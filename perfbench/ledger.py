"""Outside-in layer ledger for the traced benchmark run.

Layers are the ``repro.*`` packages (``sim.engine`` and ``sim.network``
are split out of ``repro.sim``).  The ledger never edits the program: it
wraps public boundaries on the instances of one run, from the outside.

* Engine callbacks.  ``schedule``, ``schedule_at``, ``schedule_fast`` and
  ``schedule_hidden`` are replaced on the loop instance before the
  topology is built, so every dispatched callback runs inside a span owned
  by the callback's module (:func:`owner_module`).  ``run_until`` is a
  ``sim.engine`` span: engine self time is ``run_until`` minus every
  callback span.
* Entry points.  Host ``send``/``multicast`` (wrapped before the protocol
  is built, so references bound at build time see the wrapper), every
  server's and client agent's ``on_message`` (re-registered through
  ``runtime.set_handler``), a Canopus node's reliable-broadcast layer, the
  sharded reply plane, ``ShardRouter``, ``MetricsCollector`` and each
  checker.

A span's *self time* is its duration minus the time of its child spans.
Spans nest strictly (the simulator is one thread), so the ledger keeps a
stack and adds each finished span's self time to its layer as it closes;
no span list is kept.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

from repro.broadcast.base import ReliableBroadcast


def owner_module(callback: Any) -> str:
    """The module that owns ``callback``.

    A bound method belongs to its instance's class module, a
    ``functools.partial`` to the function it wraps, anything else (plain
    function, lambda, closure) to its ``__module__``; a callable object
    without one to its class module.
    """
    while isinstance(callback, functools.partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, types.ModuleType):
        return type(owner).__module__
    module = getattr(callback, "__module__", None)
    return module if isinstance(module, str) else type(callback).__module__


def layer_of(module: str) -> str:
    """``repro.canopus.node`` -> ``canopus``; ``repro.sim.network`` -> ``sim.network``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "sim" and len(parts) > 2:
        return f"sim.{parts[2]}"
    return parts[1]


class Ledger:
    """Self time per layer and span counts per (layer, kind)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Open spans, innermost last: ``[(layer, kind), start, child_time]``.
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Messages handed to ``Host.send``/``Host.multicast``.
        self.tx_messages = 0
        #: ``counts`` and ``tx_messages`` when the run ended, before the
        #: checks drive the simulator further (see :meth:`mark_run_end`).
        self.run_end: Tuple[Dict[Tuple[str, str], int], int] = ({}, 0)
        self._layers: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Span arithmetic
    # ------------------------------------------------------------------
    def _exit(self) -> None:
        """Close the innermost span: charge its self time, pass its duration up."""
        stack = self._stack
        key, start, child = stack.pop()
        duration = self._clock() - start
        self.self_s[key[0]] += duration - child
        self.counts[key] += 1
        if stack:
            stack[-1][2] += duration

    def span(self, layer: str, kind: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer``."""
        key = (layer, kind)
        push = self._stack.append
        clock = self._clock
        exit_ = self._exit

        def spanned(*args: Any, **kwargs: Any) -> Any:
            push([key, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return spanned

    def layer(self, callback: Any) -> str:
        module = owner_module(callback)
        layer = self._layers.get(module)
        if layer is None:
            layer = self._layers[module] = layer_of(module)
        return layer

    def calls(self, kind: str, layer: str = "") -> int:
        """Spans of ``kind`` (in ``layer``, or in every layer)."""
        return sum(
            n for (lay, k), n in self.counts.items() if k == kind and (not layer or lay == layer)
        )

    def mark_run_end(self) -> None:
        """Snapshot the span counts at the moment the program's counters are read."""
        self.run_end = (dict(self.counts), self.tx_messages)

    # ------------------------------------------------------------------
    # Wrapping one run's boundaries
    # ------------------------------------------------------------------
    def wrap_engine(self, simulator: Any) -> None:
        """Span every callback the loop dispatches, and ``run_until`` itself."""
        loop = simulator.loop
        push = self._stack.append
        clock = self._clock
        exit_ = self._exit
        layer_for = self.layer
        callback_code = None

        def wrap(callback: Callable[[], None]) -> Callable[[], None]:
            if getattr(callback, "__code__", None) is callback_code:
                return callback  # scheduled through another wrapped entry
            key = (layer_for(callback), "callback")

            def spanned() -> None:
                push([key, clock(), 0.0])
                try:
                    callback()
                finally:
                    exit_()

            return spanned

        callback_code = wrap(lambda: None).__code__
        schedule, schedule_at = loop.schedule, loop.schedule_at
        schedule_fast, schedule_hidden = loop.schedule_fast, loop.schedule_hidden
        loop.schedule = lambda delay, callback, **kw: schedule(delay, wrap(callback), **kw)
        loop.schedule_at = lambda when, callback, **kw: schedule_at(when, wrap(callback), **kw)
        loop.schedule_fast = lambda when, callback, priority=10: schedule_fast(
            when, wrap(callback), priority
        )
        loop.schedule_hidden = lambda when, callback, priority=10: schedule_hidden(
            when, wrap(callback), priority
        )
        simulator.run_until = self.span("sim.engine", "run", simulator.run_until)

    def wrap_hosts(self, topology: Any) -> None:
        """Span ``Host.send``/``multicast`` as ``sim.network.tx``."""
        for host in topology.network.hosts.values():
            host.send = self.span("sim.network.tx", "send", self._counted(host.send, 1))
            host.multicast = self.span("sim.network.tx", "send", self._counted(host.multicast))

    def _counted(self, send: Callable[..., None], fanout: int = 0) -> Callable[..., None]:
        def counted(dsts: Any, payload: Any, size_bytes: int) -> None:
            self.tx_messages += fanout or len(dsts)
            send(dsts, payload, size_bytes)

        return counted

    def wrap_handlers(self, protocols: List[Any], agents: List[Any]) -> None:
        """Re-register every server's and client agent's ``on_message``."""
        for protocol in protocols:
            for node in protocol.nodes.values():
                self._register(node.runtime, node.on_message)
                broadcast = getattr(node, "broadcast", None)
                if isinstance(broadcast, ReliableBroadcast):
                    broadcast.on_message = self.span("broadcast", "handler", broadcast.on_message)
                    broadcast.broadcast = self.span("broadcast", "entry", broadcast.broadcast)
                    broadcast.deliver = self.span(
                        self.layer(broadcast.deliver), "entry", broadcast.deliver
                    )
        for agent in agents:
            self._register(agent.runtime, agent.on_message)

    def _register(self, runtime: Any, on_message: Callable[[str, Any], None]) -> None:
        runtime.set_handler(self.span(self.layer(on_message), "handler", on_message))

    def wrap_reply_plane(self, cluster: Any) -> None:
        """Span every reply listener registered on a sharded cluster from now on."""
        add, remove = cluster.add_reply_listener, cluster.remove_reply_listener
        wrapped: Dict[Any, Callable[..., Any]] = {}

        def add_listener(listener: Callable[..., Any]) -> None:
            wrapped[listener] = self.span(self.layer(listener), "entry", listener)
            add(wrapped[listener])

        def remove_listener(listener: Callable[..., Any]) -> None:
            remove(wrapped.pop(listener, listener))

        cluster.add_reply_listener = add_listener
        cluster.remove_reply_listener = remove_listener

    def wrap_router(self, router: Any) -> None:
        for name in ("submit", "target_for_key", "submit_transaction", "read_txn"):
            setattr(router, name, self.span("shard", "entry", getattr(router, name)))

    def wrap_collector(self, collector: Any) -> None:
        for name in ("summarize", "to_history"):
            setattr(collector, name, self.span("metrics", "entry", getattr(collector, name)))


#: Per-layer metrics of a traced run: name -> (unit, better).
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "setup.topology_s": ("s", "lower"),
    "setup.protocol_s": ("s", "lower"),
    "setup.workload_s": ("s", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.callbacks": ("count", "lower"),
    "sim.engine.callbacks_per_op": ("count/op", "lower"),
    "sim.network.self_s": ("s", "lower"),
    "sim.network.tx_s": ("s", "lower"),
    "canopus.self_s": ("s", "lower"),
    "broadcast.self_s": ("s", "lower"),
    "canopus.handler_calls": ("count", "lower"),
    "epaxos.self_s": ("s", "lower"),
    "epaxos.handler_calls": ("count", "lower"),
    "workload.self_s": ("s", "lower"),
    "shard.self_s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "verify.linearizability_s": ("s", "lower"),
    "verify.ops_checked": ("count", "higher"),
    "verify.max_key_ops": ("count", "higher"),
    "verify.agreement_s": ("s", "lower"),
    "verify.atomicity_s": ("s", "lower"),
    "verify.isolation_s": ("s", "lower"),
    "canopus.msgs_per_op": ("count/op", "lower"),
    "canopus.bytes_per_op": ("B/op", "lower"),
    "epaxos.msgs_per_op": ("count/op", "lower"),
    "epaxos.bytes_per_op": ("B/op", "lower"),
    "canopus.ops_per_cycle": ("count/cycle", "higher"),
    "canopus.empty_cycle_ratio": ("ratio", "lower"),
    "epaxos.fast_path_ratio": ("ratio", "higher"),
    "epaxos.cmds_per_instance": ("count", "higher"),
    "shard.txn_commit_ratio": ("ratio", "higher"),
    "shard.control_writes_per_txn": ("count", "lower"),
    "sim.cpu_util_max": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Per-layer metrics of one consensus protocol's own layers.
PROTOCOL_METRICS: Dict[str, Tuple[str, ...]] = {
    "canopus": (
        "canopus.self_s", "broadcast.self_s", "canopus.handler_calls", "canopus.msgs_per_op",
        "canopus.bytes_per_op", "canopus.ops_per_cycle", "canopus.empty_cycle_ratio",
    ),
    "epaxos": (
        "epaxos.self_s", "epaxos.handler_calls", "epaxos.msgs_per_op", "epaxos.bytes_per_op",
        "epaxos.fast_path_ratio", "epaxos.cmds_per_instance",
    ),
}


def reported_metrics(protocol: str) -> Dict[str, Tuple[str, str]]:
    """The per-layer metrics a run of a ``protocol`` workload puts in its
    JSON result: all but those of another protocol's layers, which read 0."""
    others = {name for proto, names in PROTOCOL_METRICS.items() if proto != protocol
              for name in names}
    return {name: spec for name, spec in PER_LAYER_METRICS.items() if name not in others}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(ledger: Ledger, rep: Any, protocol: str) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_ratio`` for one traced rep.

    ``rep`` is the traced :class:`workloads.Repetition`; ``protocol`` the
    workload's consensus protocol.  A layer the workload never runs reads 0.
    Per-op figures divide by every request the clients submitted.
    """
    c = rep.counters
    own = ledger.self_s.get
    ops = c["requests_total"]
    callbacks = ledger.calls("callback")
    metrics = {f"setup.{phase}_s": seconds for phase, seconds in rep.setup_phases.items()}
    metrics.update({
        "sim.engine.self_s": own("sim.engine", 0.0),
        "sim.engine.callbacks": callbacks,
        "sim.engine.callbacks_per_op": _ratio(callbacks, ops),
        "sim.network.self_s": own("sim.network", 0.0),
        "sim.network.tx_s": own("sim.network.tx", 0.0),
        "canopus.self_s": own("canopus", 0.0),
        "broadcast.self_s": own("broadcast", 0.0),
        "canopus.handler_calls": ledger.calls("handler", "canopus"),
        "epaxos.self_s": own("epaxos", 0.0),
        "epaxos.handler_calls": ledger.calls("handler", "epaxos"),
        "workload.self_s": own("workload", 0.0),
        "shard.self_s": own("shard", 0.0),
        "metrics.self_s": own("metrics", 0.0),
        "verify.linearizability_s": own("verify.linearizability", 0.0),
        "verify.ops_checked": c.get("verify.ops_checked", 0),
        "verify.max_key_ops": c.get("verify.max_key_ops", 0),
        "verify.agreement_s": own("verify.agreement", 0.0),
        "verify.atomicity_s": own("verify.atomicity", 0.0),
        "verify.isolation_s": own("verify.isolation", 0.0),
        "canopus.ops_per_cycle": _ratio(c.get("writes_committed", 0), c.get("cycles_committed", 0)),
        "canopus.empty_cycle_ratio": _ratio(c.get("empty_cycles", 0), c.get("cycles_committed", 0)),
        "epaxos.fast_path_ratio": _ratio(
            c.get("fast_path", 0), c.get("fast_path", 0) + c.get("slow_path", 0)
        ),
        "epaxos.cmds_per_instance": _ratio(
            c.get("commands_executed", 0), c.get("instances_committed", 0)
        ),
        "shard.txn_commit_ratio": _ratio(
            c.get("router.txns_committed", 0), c.get("router.txns_started", 0)
        ),
        "shard.control_writes_per_txn": _ratio(
            c.get("router.control_writes", 0), c.get("router.txns_started", 0)
        ),
        "sim.cpu_util_max": c["cpu_util_max"],
    })
    for name in ("canopus", "epaxos"):
        mine = name == protocol
        metrics[f"{name}.msgs_per_op"] = _ratio(c["messages_sent"], ops) if mine else 0.0
        metrics[f"{name}.bytes_per_op"] = _ratio(c["bytes_sent"], ops) if mine else 0.0
    return metrics


def reconcile(ledger: Ledger, counters: Dict[str, float]) -> List[Tuple[str, int, int]]:
    """Span counts against the counters the program keeps for the same events.

    Returns ``(what, spans, program_count)`` rows, read at the end of the
    run: server handler spans against server hosts' ``messages_received``,
    client agent handler spans against client hosts' ``messages_received``,
    and messages handed to ``Host.send``/``multicast`` against every host's
    ``messages_sent``.
    """
    counts, tx_messages = ledger.run_end
    handlers = {layer: n for (layer, kind), n in counts.items() if kind == "handler"}
    client = handlers.pop("workload", 0)
    handlers.pop("broadcast", None)  # nested inside a server handler span
    return [
        ("server on_message spans", sum(handlers.values()),
         int(counters["server.messages_received"])),
        ("client on_message spans", client, int(counters["client.messages_received"])),
        ("messages sent through Host.send/multicast", tx_messages,
         int(counters["server.messages_sent"] + counters["client.messages_sent"])),
    ]
