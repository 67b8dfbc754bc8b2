"""Deterministic discrete-event simulation engine.

The engine is one global binary heap of ``(time, priority, seq, event)``
tuples.  Determinism is guaranteed by:

* a single seeded :class:`random.Random` instance owned by the simulator,
* a monotonically increasing sequence number that breaks ties between
  events scheduled for the same instant, and
* the absence of any wall-clock reads.

Execution order is the total order ``(time, priority, seq)``.  The
byte-identical-log contract rests on this: at a fixed seed the loop runs
the same callbacks at the same simulated instants in the same order, so
committed logs and all modelled timings are reproducible and only
wall-clock differs.  ``tests/test_sim_engine.py`` checks the fired order
against a sort oracle, and the ``engine-microbench`` perf point pins it
with a trace digest.

Protocol code never touches the engine directly; it talks to a
:class:`repro.runtime.sim_runtime.SimRuntime` which wraps the engine and a
:class:`repro.sim.network.Network`.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Event", "EventLoop", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  ``priority`` lets the
    network layer deliver packets before application timers that fire at
    exactly the same instant, which keeps traces intuitive; ``seq`` makes
    ordering total and therefore deterministic.

    The loop's heap stores ``(time, priority, seq, event)`` tuples rather
    than the events themselves: tuple comparison runs in C and almost
    always resolves on the first float, where the dataclass-generated
    ``__lt__`` builds two tuples per comparison in Python.  The dataclass
    ordering is kept for callers that sort events directly.

    Entries whose fourth element is a bare callable instead of an Event
    are the *fast path* used by :meth:`EventLoop.schedule_fast`: delivery
    queues re-arm themselves roughly once per network event, and those
    wake-ups are never cancelled, never labelled, and never inspected, so
    allocating an Event for each was pure overhead.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    loop: Optional["EventLoop"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped.

        The entry stays in the heap until popped or until the loop
        compacts; cancelling an event that already fired is a no-op.
        """
        if not self.cancelled:
            self.cancelled = True
            loop = self.loop
            if loop is not None:
                loop._live -= 1
                loop._cancelled += 1
                if loop._cancelled * 2 > len(loop._heap):
                    loop._compact()


class EventLoop:
    """A binary-heap discrete event loop.

    The loop exposes :meth:`schedule` / :meth:`schedule_at` for enqueueing
    callbacks and :meth:`run` / :meth:`run_until` / :meth:`step` for
    execution.  Time is a ``float`` in **seconds**.

    Cancellation is lazy but bounded: a cancelled entry stays in the heap
    and is skipped when popped, while a live counter keeps ``len(loop)``
    O(1).  Once cancelled entries outnumber the rest, :meth:`_compact`
    drops them all and re-heapifies, so they are at most half the heap
    and each rebuild is paid for by the cancels that triggered it.
    Compaction cannot change the order: ``(time, priority, seq)`` keys are
    unique, so a heap's pop order is fixed by the set of entries it holds.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        #: Number of non-cancelled events in the heap, so ``__len__`` is O(1).
        self._live = 0
        #: Cancelled :class:`Event` entries still in the heap.
        self._cancelled = 0
        #: Real event turns only (one per executed heap entry).  Unlike
        #: ``_processed`` this is never adjusted by the network layer's
        #: virtual backlog replay, so same-turn coalescing stays stable.
        self._turn = 0
        #: Callbacks invoked when :meth:`run_until` reaches its deadline
        #: (the network layer uses this to settle lazily-delivered backlog
        #: so counters match the eager reference at window edges).
        self._quiesce_hooks: List[Callable[[], None]] = []
        #: Deadline of the active :meth:`run_until` window (``inf`` under
        #: :meth:`run`).  Lookahead consumers (the network's switch drains)
        #: cap eager work here so introspectable state at a window edge is
        #: identical to the eager reference's.
        self._deadline = float("inf")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful for budget guards)."""
        return self._processed

    def __len__(self) -> int:
        return self._live

    def add_quiesce_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` whenever :meth:`run_until` reaches its deadline."""
        self._quiesce_hooks.append(hook)

    # ------------------------------------------------------------------
    # Hidden events and virtual accounting
    #
    # The lazy delivery layer (repro.sim.network) elides reference-engine
    # events and replays their work in batches.  Its own helper events —
    # switch drains, idle-CPU wake-ups — have no reference counterpart and
    # must stay invisible to ``len(loop)`` / ``processed_events``, while
    # the *elided* reference events must be mirrored into those counters
    # at replay time.  These two methods are the only sanctioned way to do
    # either; mutating ``_live`` / ``_processed`` from outside this module
    # is flagged by the ``no-engine-counter-poke`` detlint rule.
    # ------------------------------------------------------------------
    def schedule_hidden(self, when: float, callback: Callable[[], None], priority: int = 10) -> None:
        """Schedule a non-cancellable callback invisible to ``len(loop)``.

        The entry executes exactly like a :meth:`schedule_fast` entry but
        is not counted as live; the callback must call
        ``adjust_hidden(1, -1)`` first thing to undo :meth:`step`'s
        per-event accounting (the loop cannot tell a hidden entry apart
        at execution time).
        """
        self.schedule_fast(when, callback, priority)
        self._live -= 1

    def adjust_hidden(self, live: int = 0, processed: int = 0) -> None:
        """Adjust the observable counters on behalf of elided events.

        ``live`` mirrors reference-engine armed entries into ``len(loop)``
        (or, with ``(1, -1)``, restores the decrement/increment a firing
        hidden entry was charged by :meth:`step`); ``processed`` counts
        replayed reference flushes into :attr:`processed_events`.
        """
        self._live += live
        self._processed += processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 10,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 10,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        seq = next(self._seq)
        event = Event(
            time=when, priority=priority, seq=seq, callback=callback, label=label, loop=self
        )
        heappush(self._heap, (when, priority, seq, event))
        self._live += 1
        return event

    def schedule_fast(self, when: float, callback: Callable[[], None], priority: int = 10) -> None:
        """Schedule a non-cancellable callback at absolute time ``when``.

        Skips the :class:`Event` wrapper entirely — the heap entry carries
        the bare callable.  Meant for the network delivery queues, which
        re-arm once per delivery burst and never cancel; ordering semantics
        ((time, priority, seq)) are identical to :meth:`schedule_at`.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        heappush(self._heap, (when, priority, next(self._seq), callback))
        self._live += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                # Mark the event consumed so a late cancel() (e.g. a timer
                # callback cancelling its own timer) cannot decrement again.
                event.cancelled = True
                callback = event.callback
            else:
                # schedule_fast entry: the callable itself, never cancelled.
                callback = event
            if entry[0] < self._now:
                raise SimulationError("event heap produced an event in the past")
            self._now = entry[0]
            self._processed += 1
            self._turn += 1
            self._live -= 1
            callback()
            return True
        return False

    def run(self) -> None:
        """Run until the event heap is exhausted or :meth:`stop` is called."""
        self._running = True
        self._deadline = float("inf")
        try:
            while self._running and self.step():
                pass
        finally:
            self._running = False

    def run_until(self, deadline: float) -> None:
        """Run events with timestamps strictly ``<= deadline``.

        On return the clock is advanced to ``deadline`` even if the heap
        drained earlier, so repeated ``run_until`` calls behave like a
        sequence of measurement windows.
        """
        self._deadline = deadline
        # Hot loop: local aliases, no step() indirection, Event handling
        # inlined.  The loop stops on the head's time, so entries past the
        # deadline (cancelled or not) stay in the heap untouched.
        heap = self._heap
        pop = heappop
        while heap:
            entry = heap[0]
            when = entry[0]
            if when > deadline:
                break
            pop(heap)
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.cancelled = True
                callback = event.callback
            else:
                callback = event
            if when < self._now:
                raise SimulationError("event heap produced an event in the past")
            self._now = when
            self._processed += 1
            self._turn += 1
            self._live -= 1
            callback()
        if self._now < deadline:
            self._now = deadline
        for hook in self._quiesce_hooks:
            hook()

    def stop(self) -> None:
        """Stop a :meth:`run` in progress after the current event."""
        self._running = False

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap.

        The heap is rebuilt in place: :meth:`run_until` holds a local alias
        to it, and a cancel from inside a callback can land here mid-loop.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[3].__class__ is not Event or not e[3].cancelled]
        heapify(heap)
        self._cancelled = 0


class Simulator:
    """Top-level container binding an event loop, RNG and named components.

    A :class:`Simulator` is the unit of reproducibility: constructing two
    simulators with the same seed and driving them with the same inputs
    yields byte-identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self.loop = EventLoop()
        self.seed = seed
        self.rng = random.Random(seed)
        self.components: Dict[str, Any] = {}

    # Convenience passthroughs -----------------------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    def schedule(self, delay: float, callback: Callable[[], None], **kwargs: Any) -> Event:
        return self.loop.schedule(delay, callback, **kwargs)

    def run(self) -> None:
        self.loop.run()

    def run_until(self, deadline: float) -> None:
        self.loop.run_until(deadline)

    # Component registry -------------------------------------------------
    def register(self, name: str, component: Any) -> Any:
        """Register a named component (host, protocol node, collector...)."""
        if name in self.components:
            raise SimulationError(f"component {name!r} already registered")
        self.components[name] = component
        return component

    def get(self, name: str) -> Any:
        return self.components[name]

    def fork_rng(self, label: str) -> random.Random:
        """Derive an independent, deterministic RNG stream for ``label``.

        The label is folded in with CRC-32 rather than builtin ``hash``:
        string hashes are salted per process, so seeding from them would
        silently make "deterministic" streams differ between runs.
        """
        derived_seed = (self.seed * 1_000_003 + zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF
        return random.Random(derived_seed)
