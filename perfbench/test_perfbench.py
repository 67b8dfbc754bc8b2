"""Tests of the benchmark's own arithmetic (``python -m pytest perfbench``)."""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.metrics.stats import percentile  # noqa: E402
from repro.sim.engine import EventLoop, Simulator  # noqa: E402


class _Clock:
    """Returns the scripted times one by one."""

    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


class _Owner:
    def method(self) -> None:
        pass


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9].
    book = ledger.Ledger(clock=_Clock(0, 1, 2, 3, 4, 5, 9, 10))
    c = book.span("sim.network.tx", "send", lambda: None)
    b = book.span("canopus", "handler", c)
    d = book.span("canopus", "callback", lambda: None)
    a = book.span("sim.engine", "run", lambda: (b(), d()))
    a()
    assert book.self_s["sim.engine"] == 10 - (4 - 1) - (9 - 5)
    assert book.self_s["canopus"] == (4 - 1) - (3 - 2) + (9 - 5)
    assert book.self_s["sim.network.tx"] == 3 - 2
    assert sum(book.self_s.values()) == 10  # self times partition the root span
    assert book.calls("handler", "canopus") == 1
    assert book.calls("callback") == 1
    assert book.calls("send") == 1


def test_span_closes_when_the_wrapped_call_raises():
    book = ledger.Ledger(clock=_Clock(0, 1, 2, 5))

    def fail() -> None:
        raise KeyError("boom")

    failing = book.span("verify", "check", fail)

    def body() -> None:
        with pytest.raises(KeyError):
            failing()

    book.span("shard", "entry", body)()
    assert book.self_s == {"verify": 2 - 1, "shard": 5 - 1}
    assert not book._stack


def test_engine_self_time_excludes_callback_spans():
    book = ledger.Ledger()
    simulator = Simulator(seed=1)
    book.wrap_engine(simulator)
    fired = []
    simulator.schedule(0.1, lambda: fired.append(1))
    simulator.loop.schedule_fast(0.2, functools.partial(fired.append, 2))
    simulator.run_until(1.0)
    assert fired == [1, 2]
    assert book.calls("callback") == 2
    assert book.counts[("sim.engine", "run")] == 1
    assert set(book.self_s) == {"sim.engine", "other"}


# ----------------------------------------------------------------------
# Callback attribution
# ----------------------------------------------------------------------
def test_bound_method_belongs_to_its_class_module():
    assert ledger.owner_module(_Owner().method) == __name__
    assert ledger.owner_module(EventLoop().step) == "repro.sim.engine"
    assert ledger.layer_of(ledger.owner_module(EventLoop().step)) == "sim.engine"


def test_partial_belongs_to_the_wrapped_callable():
    nested = functools.partial(functools.partial(_Owner().method))
    assert ledger.owner_module(nested) == __name__
    assert ledger.owner_module(functools.partial(percentile, [1.0])) == "repro.metrics.stats"
    assert ledger.owner_module(functools.partial(len)) == "builtins"


def test_lambda_belongs_to_the_module_defining_it():
    assert ledger.owner_module(lambda: None) == __name__
    assert ledger.layer_of(__name__) == "other"


def test_layer_names():
    assert ledger.layer_of("repro.canopus.node") == "canopus"
    assert ledger.layer_of("repro.sim.network") == "sim.network"
    assert ledger.layer_of("repro.broadcast.raft_broadcast") == "broadcast"
    assert ledger.layer_of("repro") == "other"


# ----------------------------------------------------------------------
# End-to-end arithmetic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("submitted", [0, 1, 7, 9640])
@pytest.mark.parametrize("unreplied", [-3, 0, 1, 7, 20000])
def test_failed_op_ratio_is_a_share(submitted, unreplied):
    ratio = workloads.failed_op_ratio(submitted, unreplied)
    assert 0.0 <= ratio <= 1.0


def test_a_raising_check_is_a_failed_verdict_with_its_text():
    verdicts = {}

    def deep(n: int) -> int:
        return deep(n + 1)

    workloads.record_verdict(verdicts, "check.linearizable", lambda: (True, "first shard ok"))
    workloads.record_verdict(verdicts, "check.linearizable", lambda: deep(0))
    workloads.record_verdict(verdicts, "check.linearizable", lambda: (True, "third shard ok"))
    ok, message = verdicts["check.linearizable"]
    assert ok is False
    assert message.startswith("raised RecursionError: maximum recursion depth exceeded")


def test_failed_op_ratio_value():
    assert workloads.failed_op_ratio(7192, 2101) == 2101 / 7192


def test_percentile_sample_count_rule():
    assert workloads.tail_supported(1000, 0.99)  # exactly 10 beyond p99
    assert not workloads.tail_supported(999, 0.99)
    assert workloads.tail_supported(100, 0.5, minimum=50)
    assert workloads.tail_supported(5000, 0.99, minimum=50)
    assert not workloads.tail_supported(4999, 0.99, minimum=50)


def _rep(seed, latencies, unreplied=0, agreement=True):
    return workloads.Repetition(
        seed=seed, setup_s=0.0, run_s=0.0, verify_s=0.0, setup_phases={},
        submitted=len(latencies) + unreplied, unreplied=unreplied,
        completed_in_window=len(latencies), latencies=latencies, digest="",
        verdicts={"check.agreement": (agreement, "")},
    )


def test_pool_seeds_counts_each_seed_once():
    workload = workloads.WORKLOADS["canopus-uniform"]
    reps = [
        _rep(1, [0.001, 0.003], unreplied=1, agreement=False),
        _rep(2, [0.002]),
        _rep(1, [9.0, 9.0], unreplied=5),  # a repeat of seed 1 is not pooled again
    ]
    metrics, info = workloads.pool_seeds(workload, reps)
    assert [rep.seed for rep in info["seeds"]] == [1, 2]
    assert info["samples"] == 3
    assert metrics["sim_latency_p50_ms"] == 2.0
    assert metrics["sim_goodput_rps"] == 3 / (2 * workload.measure_s)
    assert metrics["failed_op_ratio"] == 1 / 4
    assert metrics["violations"] == 1
    assert info["failing"] == {"check.agreement": [(1, "")]}


def test_run_seeds_start_with_the_given_seed_and_repeat():
    seeds = run.run_seeds(7)
    assert seeds[0] == 7
    assert len(set(seeds)) == run.SEEDS_PER_RUN
    assert seeds == run.run_seeds(7)
    assert run.run_seeds(11)[1:] != seeds[1:]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    expected = {n: v for n, v in run.END_TO_END.items() if n not in run.REPORTED_ONLY}
    assert {n: (m["unit"], m["better"]) for n, m in end_to_end.items()} == expected
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    for entry in spec["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        assert per_layer == ledger.reported_metrics(workload.protocol)


def test_a_run_reports_only_its_own_protocol_layers():
    canopus = ledger.reported_metrics("canopus")
    epaxos = ledger.reported_metrics("epaxos")
    assert "canopus.self_s" in canopus and "epaxos.self_s" not in canopus
    assert "epaxos.self_s" in epaxos and "broadcast.self_s" not in epaxos
    shared = set(ledger.PER_LAYER_METRICS) - {
        name for names in ledger.PROTOCOL_METRICS.values() for name in names
    }
    assert shared <= set(canopus) & set(epaxos)


def test_baseline_names_real_workloads_and_layer_metrics():
    baseline = json.loads(run.BASELINE.read_text())
    assert list(baseline["workloads"]) == list(workloads.WORKLOADS)
    for entry in baseline["workloads"].values():
        assert set(entry["heavy"] + entry["light"]) <= set(ledger.PER_LAYER_METRICS)
        assert not set(entry["heavy"]) & set(entry["light"])
        for outcome in entry["seeds"].values():
            assert set(run.SIM_METRICS) <= set(outcome)
