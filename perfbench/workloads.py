"""The benchmark's workloads and one measured repetition of each.

A repetition builds the system through the program's public API (the
protocol registry, ``make_single_dc_topology``, ``WorkloadGenerator``,
``ShardedCluster``/``ShardRouter``), drives it with open-loop Poisson
arrivals for a fixed simulated schedule (warm-up, measurement window,
cool-down) and then runs every correctness check that applies to it.

Host time is split three ways: ``setup_s`` (simulator, topology, protocol
or sharded cluster, workload generator), ``run_s`` (``start()`` to the end
of cool-down, including the window summary) and ``verify_s`` (every check).
Everything else a repetition returns is in simulated time and repeats
exactly at a fixed seed.

``ledger`` is ``None`` for a measured run.  A traced run passes a
:class:`ledger.Ledger`, whose hooks wrap each layer's public boundaries as
the system is assembled (see ``ledger.py``); the simulated outcome must not
change.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.builders import build_system, make_single_dc_topology
from repro.canopus.config import CanopusConfig
from repro.epaxos.node import EPaxosConfig
from repro.metrics.stats import percentile
from repro.shard import ShardedCluster, ShardMetrics, ShardRouter, txn_marker_kind
from repro.shard.router import collect_txn_states
from repro.sim.engine import Simulator
from repro.verify import (
    check_agreement,
    check_cross_shard_atomicity,
    check_linearizable_history,
    check_read_isolation,
)
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10

#: Names of the correctness verdicts, in print order.
CHECKS = ("check.agreement", "check.linearizable", "check.atomic", "check.isolated")


@dataclass(frozen=True)
class Workload:
    """One fixed workload shape; only the seed varies between runs."""

    name: str
    protocol: str
    nodes_per_rack: int
    racks: int
    rate_hz: float
    write_ratio: float
    warmup_s: float
    measure_s: float
    cooldown_s: float
    shards: int = 0
    key_distribution: str = "uniform"
    multi_key_ratio: float = 0.0
    txn_read_ratio: float = 0.0
    client_processes: int = 36
    key_count: int = 10_000

    def protocol_config(self) -> Any:
        if self.protocol == "epaxos":
            return EPaxosConfig(batch_duration_s=0.002, latency_probing=True, thrifty=False)
        if self.shards:
            return None
        # The paper's single-datacenter Canopus: LOT height 2, Raft
        # broadcast inside a super-leaf, cycles back to back (no pipelining).
        return CanopusConfig(
            lot_height=2, cycle_interval_s=0.005, broadcast_mode="raft", pipelining=False
        )


#: Why each exists (more in baseline.json): canopus-uniform is the paper's
#: system at its headline read-heavy mix, below the knee; epaxos-uniform is
#: the repo's sim-hotpath shape, past the knee, where engine and network
#: dominate (runnable, but not in BENCHMARK.json: it fails prefix agreement
#: and leaves requests unanswered, so its outputs are not correct);
#: shard-zipf-txn is the only load on the shard router and checkers.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="canopus-uniform",
            protocol="canopus",
            nodes_per_rack=9,
            racks=3,
            rate_hz=32_000.0,
            write_ratio=0.2,
            warmup_s=0.1,
            measure_s=0.3,
            cooldown_s=0.05,
        ),
        Workload(
            name="epaxos-uniform",
            protocol="epaxos",
            nodes_per_rack=9,
            racks=3,
            rate_hz=24_000.0,
            write_ratio=0.2,
            warmup_s=0.1,
            measure_s=0.3,
            cooldown_s=0.05,
        ),
        Workload(
            name="shard-zipf-txn",
            protocol="canopus",
            nodes_per_rack=3,
            racks=3,
            rate_hz=16_000.0,
            write_ratio=0.5,
            warmup_s=0.1,
            measure_s=0.4,
            cooldown_s=0.1,
            shards=2,
            key_distribution="zipf",
            multi_key_ratio=0.05,
            txn_read_ratio=0.3,
        ),
    )
}


@dataclass
class System:
    """One assembled system, ready to start."""

    simulator: Simulator
    topology: Any
    protocols: List[Any]
    generator: WorkloadGenerator
    collector: Any
    #: Host seconds spent building each part: topology, protocol, workload.
    phases: Dict[str, float]
    cluster: Optional[ShardedCluster] = None
    router: Optional[ShardRouter] = None


@dataclass
class Repetition:
    """What one build-run-verify repetition measured."""

    seed: int
    setup_s: float
    run_s: float
    verify_s: float
    setup_phases: Dict[str, float]
    #: Everything below is in simulated time and repeats exactly at a seed.
    submitted: int
    unreplied: int
    completed_in_window: int
    #: Submit-to-reply times (simulated s) of requests completed in the window.
    latencies: List[float]
    digest: str
    verdicts: Dict[str, Tuple[Optional[bool], str]]
    #: Counters the program exposes (protocol ``stats()``, router stats,
    #: host message counts and CPU), read at the end of the run.
    counters: Dict[str, float] = field(default_factory=dict)

    def sim_outcome(self) -> Tuple[Any, ...]:
        """Everything that must repeat exactly at this seed."""
        return (
            self.submitted,
            self.unreplied,
            self.completed_in_window,
            self.latencies,
            self.digest,
            {name: ok for name, (ok, _) in self.verdicts.items()},
            sorted(self.counters.items()),
        )


def commit_log_digest(logs: Dict[str, List[int]]) -> str:
    """SHA-256 of every replica's commit log, request ids rebased to the run.

    Request ids come from a process-wide counter, so they are rebased to
    the run's smallest id; the digest then depends only on modelled
    behaviour and compares across repetitions, processes and commits (it
    is the fingerprint the repo's fixed-seed perf points pin).
    """
    all_ids = [i for log in logs.values() for i in log]
    base = min(all_ids) if all_ids else 0
    normalized = {node: [i - base for i in log] for node, log in sorted(logs.items())}
    return hashlib.sha256(json.dumps(normalized, sort_keys=True).encode("utf-8")).hexdigest()


def failed_op_ratio(submitted: int, unreplied: int) -> float:
    """Share of the window's requests that got no reply by the end of the run."""
    if submitted <= 0:
        return 0.0
    return max(0, min(unreplied, submitted)) / submitted


def tail_supported(samples: int, fraction: float, minimum: int = MIN_TAIL_SAMPLES) -> bool:
    """Do at least ``minimum`` of ``samples`` lie beyond the ``fraction`` percentile?"""
    return samples * (1.0 - fraction) >= minimum


def pool_seeds(
    workload: Workload, reps: Sequence[Repetition]
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Simulated end-to-end metrics over the distinct seeds among ``reps``.

    Latency samples and request counts are pooled over the seeds (first
    repetition of each); ``violations`` counts the checks that failed or
    raised on at least one seed.  Returns the metrics and the details the
    report prints: ``seeds`` (one repetition per seed), ``samples``,
    ``submitted``, ``unreplied`` and ``failing`` (check -> [(seed, message)]).
    """
    first: Dict[int, Repetition] = {}
    for rep in reps:
        first.setdefault(rep.seed, rep)
    seeds = list(first.values())
    latencies = [x for rep in seeds for x in rep.latencies]
    submitted = sum(rep.submitted for rep in seeds)
    unreplied = sum(rep.unreplied for rep in seeds)
    failing: Dict[str, List[Tuple[int, str]]] = {}
    for rep in seeds:
        for name, (ok, message) in rep.verdicts.items():
            if ok is False:
                failing.setdefault(name, []).append((rep.seed, message))
    metrics = {
        "sim_goodput_rps": sum(rep.completed_in_window for rep in seeds)
        / (workload.measure_s * len(seeds)),
        "sim_latency_p50_ms": percentile(latencies, 0.5) * 1000.0,
        "sim_latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "failed_op_ratio": failed_op_ratio(submitted, unreplied),
        "violations": len(failing),
    }
    info = {
        "seeds": seeds,
        "samples": len(latencies),
        "submitted": submitted,
        "unreplied": unreplied,
        "failing": failing,
    }
    return metrics, info


def build(workload: Workload, seed: int, ledger: Any = None) -> System:
    """Assemble ``workload`` at ``seed`` through the program's public API."""
    clock = time.perf_counter
    t0 = clock()
    simulator = Simulator(seed=seed)
    if ledger is not None:
        ledger.wrap_engine(simulator)
    topology = make_single_dc_topology(
        simulator, nodes_per_rack=workload.nodes_per_rack, racks=workload.racks
    )
    if ledger is not None:
        ledger.wrap_hosts(topology)
    t1 = clock()
    cluster = router = None
    if workload.shards:
        cluster = ShardedCluster.build(topology, workload.shards, protocol=workload.protocol)
        if ledger is not None:
            ledger.wrap_reply_plane(cluster)
        ShardMetrics(cluster)
        router = ShardRouter(cluster)
        if ledger is not None:
            ledger.wrap_router(router)
        protocols = list(cluster.shards.values())
    else:
        sut = build_system(workload.protocol, topology, config=workload.protocol_config())
        protocols = [sut.protocol]
    t2 = clock()
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(
            client_processes=workload.client_processes,
            aggregate_rate_hz=workload.rate_hz,
            write_ratio=workload.write_ratio,
            key_count=workload.key_count,
            key_distribution=workload.key_distribution,
            multi_key_ratio=workload.multi_key_ratio,
            txn_read_ratio=workload.txn_read_ratio,
            seed=seed,
        ),
        router=router,
    )
    collector = generator.build()
    if ledger is not None:
        ledger.wrap_handlers(protocols, generator.agents)
        ledger.wrap_collector(collector)
    t3 = clock()
    return System(
        simulator=simulator,
        topology=topology,
        protocols=protocols,
        generator=generator,
        collector=collector,
        phases={"topology": t1 - t0, "protocol": t2 - t1, "workload": t3 - t2},
        cluster=cluster,
        router=router,
    )


def time_setups(workload: Workload, seed: int, count: int) -> List[float]:
    """Host seconds of ``count`` back-to-back builds of ``workload`` at ``seed``.

    Each build starts after a full collection, so no build pays for the
    cyclic garbage an earlier one left behind.
    """
    times = []
    for _ in range(count):
        gc.collect()
        start = time.perf_counter()
        build(workload, seed)
        times.append(time.perf_counter() - start)
    return times


def record_verdict(
    verdicts: Dict[str, Tuple[Optional[bool], str]],
    name: str,
    check: Callable[[], Tuple[bool, str]],
) -> None:
    """Record one check's verdict; a check that raises counts as failed."""
    try:
        ok, message = check()
    except Exception as exc:  # a crashing checker is a failed check, not a crash
        ok, message = False, f"raised {type(exc).__name__}: {exc}"
    previous = verdicts.get(name)
    if previous is None or previous[0] is not False:
        verdicts[name] = (bool(ok), message)  # per-shard checks keep their first failure


def run_repetition(workload: Workload, seed: int, ledger: Any = None) -> Repetition:
    """Build, drive and verify ``workload`` once at ``seed``."""
    clock = time.perf_counter
    t0 = clock()
    system = build(workload, seed, ledger)
    simulator, collector = system.simulator, system.collector
    t1 = clock()

    window_start = workload.warmup_s
    window_end = workload.warmup_s + workload.measure_s
    run_end = window_end + workload.cooldown_s
    for protocol in system.protocols:
        protocol.start()
    system.generator.start()
    simulator.run_until(window_end)
    system.generator.stop()
    simulator.run_until(run_end)
    summary = collector.summarize(window_start, window_end)
    t2 = clock()

    # The run's outcome, read before any check advances the simulator.
    records = collector.records.values()
    in_window = [r for r in records if window_start <= r.submitted_at <= window_end]
    latencies = [
        r.completed_at - r.submitted_at
        for r in records
        if r.completed_at is not None and window_start <= r.completed_at <= window_end
    ]
    cluster, router = system.cluster, system.router
    logs = (cluster or system.protocols[0]).committed_logs()
    counters = _layer_counters(system, run_end)
    counters["requests_total"] = len(collector.records)
    if ledger is not None:
        ledger.mark_run_end()

    def traced(layer: str, check: Callable[..., Any]) -> Callable[..., Any]:
        return check if ledger is None else ledger.span(layer, "check", check)

    verdicts: Dict[str, Tuple[Optional[bool], str]] = {}
    agreement = traced("verify.agreement", check_agreement)
    linearizable = traced("verify.linearizability", check_linearizable_history)
    if cluster is None:
        record_verdict(verdicts, "check.agreement", lambda: agreement(logs))
        histories = [collector.to_history()]
    else:
        for shard_logs in cluster.per_shard_committed_logs().values():
            record_verdict(verdicts, "check.agreement", lambda logs=shard_logs: agreement(logs))
        # Atomicity holds at quiescence: let every coordinator-side
        # transaction reach its outcome first (bounded, in simulated time),
        # as the repo's sharded bench does before it checks.
        drain_deadline = simulator.now + 30.0
        while router.pending_transactions() and simulator.now < drain_deadline:
            simulator.run_until(simulator.now + 0.5)
        histories = [
            collector.to_history(
                key_filter=lambda key, shard=shard_id: (
                    txn_marker_kind(key) is None and cluster.shard_of(key) == shard
                )
            )
            for shard_id in cluster.shard_ids
        ]
    linearizable_reads = all(p.read_consistency() == "linearizable" for p in system.protocols)
    if linearizable_reads:
        for history in histories:
            record_verdict(verdicts, "check.linearizable", lambda h=history: linearizable(h))
    else:
        verdicts["check.linearizable"] = (None, "n/a: reads are not declared linearizable")
    if cluster is None:
        verdicts["check.atomic"] = (None, "n/a: no cross-shard transactions")
        verdicts["check.isolated"] = (None, "n/a: no snapshot reads")
    else:
        collect = traced("shard", collect_txn_states)
        atomic = traced("verify.atomicity", check_cross_shard_atomicity)
        isolated = traced("verify.isolation", check_read_isolation)
        record_verdict(
            verdicts, "check.atomic", lambda: atomic(collect(cluster, router.transaction_ids()))
        )
        record_verdict(
            verdicts,
            "check.isolated",
            lambda: isolated(router.snapshot_reads, router.committed_txn_order),
        )
    t3 = clock()
    if linearizable_reads:
        per_key = [len(ops) for h in histories for ops in h.by_key().values()]
        counters["verify.ops_checked"] = sum(per_key)
        counters["verify.max_key_ops"] = max(per_key, default=0)
    for protocol in system.protocols:
        protocol.stop()

    return Repetition(
        seed=seed,
        setup_s=t1 - t0,
        run_s=t2 - t1,
        verify_s=t3 - t2,
        setup_phases=system.phases,
        submitted=len(in_window),
        unreplied=sum(1 for r in in_window if r.completed_at is None),
        completed_in_window=summary.requests_completed,
        latencies=latencies,
        digest=commit_log_digest(logs),
        verdicts=verdicts,
        counters=counters,
    )


def _layer_counters(system: System, elapsed_s: float) -> Dict[str, float]:
    """Counters the program already exposes, summed over every shard."""
    counters: Dict[str, float] = {}
    for protocol in system.protocols:
        for key, value in protocol.stats().items():
            counters[key] = counters.get(key, 0) + value
    if system.router is not None:
        for key, value in system.router.stats.items():
            counters[f"router.{key}"] = value
    topology = system.topology
    hosts = topology.network.hosts
    counters["cpu_util_max"] = max(
        hosts[name].cpu_utilization(elapsed_s) for name in topology.server_hosts
    )
    for role, names in (("server", topology.server_hosts), ("client", topology.client_hosts)):
        counters[f"{role}.messages_received"] = sum(hosts[n].messages_received for n in names)
        counters[f"{role}.messages_sent"] = sum(hosts[n].messages_sent for n in names)
    return counters
