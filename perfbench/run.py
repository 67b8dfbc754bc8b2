"""Repo benchmark: one workload, measured end to end or traced layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload canopus-uniform --seed 7 --seconds 40 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer ledger (``ledger.py``); its JSON result leaves out the layers of
protocols the workload does not run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

A run covers ``SEEDS_PER_RUN`` workload seeds derived from ``--seed`` (the
first is ``--seed`` itself), each built, driven and verified once; further
repetitions cycle through the same seeds while ``--seconds`` allows and
must reproduce their simulated outcome exactly.  Every repetition runs in a
process of its own (``repetition.py``), one after another, each after a few
set-up-only processes.  Host metrics are medians over processes; simulated
metrics pool the run's seeds, so they depend on ``--seed`` alone.

Arrivals are open-loop Poisson in simulated time: every request is sent
exactly when it is due, so the generator is never late.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ledger  # noqa: E402
import workloads  # noqa: E402

#: Workload seeds one run covers: the sampling error of a simulated metric
#: shrinks with the number of independent seeds pooled.
SEEDS_PER_RUN = 8
#: Set-up-only processes started before each repetition, and builds in
#: each: set-up time moves by a third between processes and over a few
#: seconds on a shared host, so ``setup_s`` is the median over processes
#: spread through the whole run of each process's median build.
SETUP_PROCESSES_PER_REP = 2
SETUPS_PER_PROCESS = 16

#: End-to-end metrics: name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_goodput_rps": ("1/s", "higher"),
    "sim_latency_p50_ms": ("ms", "lower"),
    "sim_latency_p99_ms": ("ms", "lower"),
    "failed_op_ratio": ("ratio", "lower"),
    "violations": ("count", "lower"),
}
#: End-to-end metrics printed but left out of the JSON ``metrics``:
#: ``failed_op_ratio`` and ``violations`` can read 0 (they are folded into
#: ``failed`` and ``correct`` instead), and the median ``run_s``/``verify_s``
#: of one run moves with the load other tenants put on a shared machine by
#: more than the largest bound a metric may have (their per-layer parts are
#: in the traced run).
REPORTED_ONLY = ("run_s", "verify_s", "failed_op_ratio", "violations")
#: End-to-end metrics in simulated time: fixed by ``--seed``.
SIM_METRICS = (
    "sim_goodput_rps", "sim_latency_p50_ms", "sim_latency_p99_ms", "failed_op_ratio", "violations"
)
#: Why each workload exists, the layers it loads, and its simulated
#: outcome at the default and the held-out seed.
BASELINE = HERE / "baseline.json"


def run_seeds(seed: int, count: int = SEEDS_PER_RUN) -> List[int]:
    """``seed`` followed by ``count - 1`` seeds derived from it."""
    derived = [zlib.crc32(f"{seed}/{i}".encode("utf-8")) & 0x7FFFFFFF for i in range(1, count)]
    return [seed] + derived


def _repeat(plan: Sequence[int], seconds: float, minimum: int, one: Any) -> List[Any]:
    """Run ``one(seed)`` over ``plan`` (cycled) at least ``minimum`` times,
    then while the next call is expected to end within ``seconds``."""
    deadline = time.perf_counter() + seconds
    results: List[Any] = []
    walls: List[float] = []
    while len(results) < minimum or (
        time.perf_counter() + statistics.median(walls) <= deadline
    ):
        start = time.perf_counter()
        results.append(one(plan[len(results) % len(plan)]))
        walls.append(time.perf_counter() - start)
    return results


def _spawn(
    workload: workloads.Workload, seed: int, trace: bool = False
) -> Tuple[Any, Dict[str, Any]]:
    """One repetition in a child process: the :class:`workloads.Repetition`
    and the child's extra results (``peak_rss_mb``; the ledger if traced)."""
    command = [sys.executable, str(HERE / "repetition.py"), workload.name, str(seed)]
    child = subprocess.run(
        command + (["--trace"] if trace else []), check=True, stdout=subprocess.PIPE, text=True
    )
    result = json.loads(child.stdout)
    fields = {f.name for f in dataclasses.fields(workloads.Repetition)}
    extra = {key: result.pop(key) for key in list(result) if key not in fields}
    return workloads.Repetition(**result), extra


def _setup_times(workload: workloads.Workload, seed: int) -> List[float]:
    """Median set-up time of each of ``SETUP_PROCESSES_PER_REP`` set-up-only processes."""
    command = [sys.executable, str(HERE / "repetition.py"), workload.name, str(seed),
               "--setups", str(SETUPS_PER_PROCESS)]
    medians = []
    for _ in range(SETUP_PROCESSES_PER_REP):
        child = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True)
        medians.append(statistics.median(json.loads(child.stdout)["setup_s"]))
    return medians


def _check_repeats(reps: Sequence[Any]) -> List[str]:
    """Repetitions at one seed must reproduce the first one's outcome."""
    first: Dict[int, Any] = {}
    problems = []
    for rep in reps:
        outcome = rep.sim_outcome()
        if rep.seed not in first:
            first[rep.seed] = outcome
        elif outcome != first[rep.seed]:
            problems.append(f"seed {rep.seed}: a repetition's simulated outcome differs")
    return problems


def _print_verdicts(info: Dict[str, Any]) -> None:
    seeds = info["seeds"]
    print("verdicts (over %d seeds):" % len(seeds))
    for name in workloads.CHECKS:
        results = [rep.verdicts[name] for rep in seeds]
        failures = info["failing"].get(name, [])
        if all(ok is None for ok, _ in results):
            print(f"  {name:20s} n/a   {results[0][1]}")
        elif failures:
            seed, message = failures[0]
            print(f"  {name:20s} FAIL  on {len(failures)} of {len(seeds)} seeds; "
                  f"seed {seed}: {message}")
        else:
            print(f"  {name:20s} pass  on {len(seeds)} of {len(seeds)} seeds: {results[0][1]}")


def _describe(workload: workloads.Workload) -> str:
    shape = f"{workload.racks} racks x {workload.nodes_per_rack} nodes"
    if workload.shards:
        system = f"{workload.shards} {workload.protocol} shards over {shape}"
    else:
        system = f"{workload.protocol} on {shape}"
    mix = (f"{workload.write_ratio:.0%} writes, {workload.key_distribution} over "
           f"{workload.key_count} keys")
    if workload.multi_key_ratio:
        mix += (f", {workload.multi_key_ratio:.0%} two-key cross-shard transactions "
                f"({workload.txn_read_ratio:.0%} of them snapshot reads)")
    return (f"{system}; {workload.rate_hz:.0f} req/s from {workload.client_processes} client "
            f"processes; {mix}; window {workload.measure_s}s after {workload.warmup_s}s "
            f"warm-up, {workload.cooldown_s}s cool-down (simulated)")


def _compare_baseline(
    name: str, seed: int, metrics: Dict[str, float], info: Dict[str, Any]
) -> None:
    """Say whether this seed's simulated outcome matches ``baseline.json``.

    Informational: a change to modelled behaviour moves these on purpose.
    """
    recorded = json.loads(BASELINE.read_text())["workloads"][name]["seeds"].get(str(seed))
    if recorded is None:
        return
    digests = {str(rep.seed): rep.digest for rep in info["seeds"]}
    moved = [key for key in SIM_METRICS if recorded[key] != metrics[key]]
    if recorded["digests"] != digests:
        moved.append("digests")
    verdict = "matches" if not moved else "differs in " + ", ".join(moved)
    print(f"baseline.json, seed {seed}: simulated outcome {verdict}")


def measure(workload: workloads.Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Tracing off: every end-to-end metric."""
    setups: List[float] = []

    def one(s: int) -> Tuple[Any, Dict[str, Any]]:
        setups.extend(_setup_times(workload, s))
        return _spawn(workload, s)

    runs = _repeat(run_seeds(seed), seconds, SEEDS_PER_RUN, one)
    reps = [rep for rep, _ in runs]
    for rep in reps:
        print(f"rep seed={rep.seed} setup={rep.setup_s:.4f}s run={rep.run_s:.3f}s "
              f"verify={rep.verify_s:.3f}s digest={rep.digest[:8]}")
    sim, info = workloads.pool_seeds(workload, reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(rep.run_s for rep in reps),
        "verify_s": statistics.median(rep.verify_s for rep in reps),
        "peak_rss_mb": statistics.median(extra["peak_rss_mb"] for _, extra in runs),
        **sim,
    }
    problems = _check_repeats(reps)
    if not workloads.tail_supported(info["samples"], 0.99):
        problems.append(f"only {info['samples']} latency samples: p99 has fewer than "
                        f"{workloads.MIN_TAIL_SAMPLES} beyond it")

    print(f"end-to-end ({len(reps)} repetitions; host figures are medians, "
          f"simulated figures pool {len(info['seeds'])} seeds; * = not in the JSON result):")
    notes = {
        "setup_s": f"median over {len(setups)} processes of each one's median of "
                   f"{SETUPS_PER_PROCESS} set-ups",
        "run_s": "start() to end of cool-down, window summary included",
        "verify_s": "every correctness check",
        "peak_rss_mb": "median over repetitions of the repetition process's peak",
        "sim_goodput_rps": "requests completed in the window / window length",
        "sim_latency_p50_ms": f"{info['samples']} samples",
        "sim_latency_p99_ms": f"{info['samples']} samples, "
                              f"{int(info['samples'] * 0.01)} beyond p99",
        "failed_op_ratio": f"{info['unreplied']} of {info['submitted']} window requests "
                           "unanswered at end of run",
        "violations": "checks that failed or raised",
    }
    for name, (unit, better) in END_TO_END.items():
        label = name + ("*" if name in REPORTED_ONLY else "")
        print(f"  {label:20s} {metrics[name]:>14.6g} {unit:6s} {better:6s}  {notes[name]}")
    _print_verdicts(info)
    for rep in info["seeds"]:
        print(f"digest seed={rep.seed} {rep.digest}")
    _compare_baseline(workload.name, seed, metrics, info)
    for problem in problems:
        print(f"benchmark check failed: {problem}")
    return {
        "correct": metrics["violations"] == 0 and not problems,
        "attempted": info["submitted"],
        "failed": info["unreplied"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
            if name not in REPORTED_ONLY
        },
    }


def trace(workload: workloads.Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """Tracing on: untraced and traced repetitions in pairs; the per-layer ledger."""

    def pair(s: int) -> Tuple[Any, Any, Dict[str, Any]]:
        plain, _ = _spawn(workload, s)
        traced, book = _spawn(workload, s, trace=True)
        return plain, traced, book

    pairs = _repeat(run_seeds(seed), seconds, 1, pair)
    problems = []
    for plain, traced, book in pairs:
        if traced.sim_outcome() != plain.sim_outcome():
            problems.append(f"seed {plain.seed}: traced outcome differs from untraced")
        for what, spans, counter in book["reconcile"]:
            status = "ok" if spans == counter else "MISMATCH"
            print(f"reconcile seed={traced.seed}: {what} {spans} vs program counter {counter} "
                  f"{status}")
            if spans != counter:
                problems.append(f"seed {traced.seed}: {what} {spans} != {counter}")
        print(f"pair seed={plain.seed} run_s untraced={plain.run_s:.3f} traced={traced.run_s:.3f} "
              f"digest untraced={plain.digest[:8]} traced={traced.digest[:8]}")
    problems += _check_repeats([plain for plain, _, _ in pairs])
    metrics = {
        name: statistics.median(book["layers"][name] for _, _, book in pairs)
        for name in ledger.PER_LAYER_METRICS
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        traced.run_s for _, traced, _ in pairs
    ) / statistics.median(plain.run_s for plain, _, _ in pairs)

    _, last_rep, last = pairs[-1]
    print(f"layer self time, seconds (last traced repetition, seed {last_rep.seed}):")
    for layer, own in sorted(last["self_s"].items(), key=lambda item: -item[1]):
        print(f"  {layer:26s} {own:10.4f}  {last['spans'][layer]:9d} spans")
    outside = last_rep.run_s + last_rep.verify_s - sum(last["self_s"].values())
    print(f"  {'(benchmark, outside spans)':26s} {outside:10.4f}")
    print(f"per-layer metrics (median of {len(pairs)} traced repetitions):")
    for name, (unit, better) in ledger.PER_LAYER_METRICS.items():
        print(f"  {name:30s} {metrics[name]:>14.6g} {unit:11s} {better}")
    for problem in problems:
        print(f"benchmark check failed: {problem}")
    _, info = workloads.pool_seeds(workload, [plain for plain, _, _ in pairs])
    _print_verdicts(info)
    return {
        "correct": not problems and not info["failing"],
        "attempted": info["submitted"],
        "failed": info["unreplied"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in ledger.reported_metrics(workload.protocol).items()
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} seeds={run_seeds(args.seed)} "
          f"trace={args.trace}")
    print(f"workload: {_describe(workload)}")
    print("arrivals: open-loop Poisson in simulated time; every request is sent exactly "
          "when due, generator lag 0")
    if args.trace:
        result = trace(workload, args.seed, args.seconds)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
