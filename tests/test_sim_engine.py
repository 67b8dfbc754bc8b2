"""Unit tests for the discrete-event engine.

The byte-identical-log contract rests on one invariant: the loop executes
any schedule stream in ``(time, priority, seq)`` order.  Besides the unit
cases, :class:`TestOrderOracle` checks that invariant against a sort
oracle over seeded random streams, including lazy cancellation, heap
compaction and callbacks that schedule more events.
"""

import math
import random
from functools import partial

import pytest

from repro.bench.builders import build_system, make_single_dc_topology
from repro.bench.runner import _drive_engine_mix
from repro.canopus.config import CanopusConfig
from repro.canopus.messages import ClientRequest, RequestType
from repro.sim.engine import Event, EventLoop, SimulationError, Simulator


class TestEventLoop:
    def test_starts_at_time_zero(self):
        loop = EventLoop()
        assert loop.now == 0.0

    def test_schedule_and_run_single_event(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.5, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [1.5]

    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(3.0, lambda: order.append("c"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(2.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        loop = EventLoop()
        order = []
        for label in ("first", "second", "third"):
            loop.schedule(1.0, lambda l=label: order.append(l))
        loop.run()
        assert order == ["first", "second", "third"]

    def test_priority_breaks_ties_before_sequence(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("low"), priority=10)
        loop.schedule(1.0, lambda: order.append("high"), priority=1)
        loop.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        loop.run()
        assert fired == []

    def test_len_counts_only_live_events(self):
        loop = EventLoop()
        event = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert len(loop) == 2
        event.cancel()
        assert len(loop) == 1

    def test_step_returns_false_when_empty(self):
        loop = EventLoop()
        assert loop.step() is False

    def test_run_until_advances_clock_to_deadline(self):
        loop = EventLoop()
        loop.schedule(0.5, lambda: None)
        loop.run_until(2.0)
        assert loop.now == 2.0

    def test_run_until_does_not_execute_later_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.5, lambda: fired.append("early"))
        loop.schedule(5.0, lambda: fired.append("late"))
        loop.run_until(1.0)
        assert fired == ["early"]
        assert len(loop) == 1

    def test_events_scheduled_during_run_are_executed(self):
        loop = EventLoop()
        fired = []

        def chain():
            fired.append(loop.now)
            if len(fired) < 3:
                loop.schedule(1.0, chain)

        loop.schedule(1.0, chain)
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_processed_events_counter(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(float(i + 1), lambda: None)
        loop.run()
        assert loop.processed_events == 5

    def test_stop_halts_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: (fired.append(1), loop.stop()))
        loop.schedule(2.0, lambda: fired.append(2))
        loop.run()
        assert fired == [1]

    def test_callback_cancels_event_at_same_instant(self):
        loop = EventLoop()
        fired = []
        victim = loop.schedule_at(1e-5, lambda: fired.append("victim"), priority=9)
        loop.schedule_at(1e-5, lambda: victim.cancel(), priority=1)
        loop.run()
        assert fired == []
        assert len(loop) == 0

    def test_self_cancel_after_firing_does_not_double_decrement(self):
        loop = EventLoop()
        holder = {}
        other = loop.schedule_at(2e-5, lambda: None)

        def fire_and_cancel_self():
            holder["event"].cancel()  # already consumed: must be a no-op

        holder["event"] = loop.schedule_at(1e-5, fire_and_cancel_self)
        assert len(loop) == 2
        loop.run_until(1.5e-5)
        assert len(loop) == 1  # only ``other`` remains live
        other.cancel()
        assert len(loop) == 0

    def test_double_cancel_is_idempotent(self):
        loop = EventLoop()
        event = loop.schedule_at(1e-5, lambda: None)
        loop.schedule_at(2e-5, lambda: None)
        event.cancel()
        event.cancel()
        assert len(loop) == 1

    def test_priority_then_seq_at_one_instant(self):
        """Many events at one instant drain in (priority, seq) order."""
        rng = random.Random(13)
        plan = [(rng.randrange(16), index) for index in range(200)]
        loop = EventLoop()
        order = []
        for priority, index in plan:
            loop.schedule_at(6e-5, lambda i=index: order.append(i), priority=priority)
        loop.run()
        assert order == [index for _, index in sorted(plan)]

    def test_fast_and_event_entries_interleave_by_seq(self):
        """schedule_fast entries share the seq counter with Event entries."""
        loop = EventLoop()
        order = []
        loop.schedule_fast(1e-5, lambda: order.append("fast-0"), 5)
        loop.schedule_at(1e-5, lambda: order.append("event-1"), priority=5)
        loop.schedule_fast(1e-5, lambda: order.append("fast-2"), 5)
        loop.run()
        assert order == ["fast-0", "event-1", "fast-2"]

    def test_callback_cancels_later_pending_event(self):
        """A callback cancels an entry scheduled before the run started."""
        loop = EventLoop()
        fired = []
        later = loop.schedule_at(1.05e-4, lambda: fired.append("later"))
        loop.schedule_at(1.02e-4, lambda: later.cancel(), priority=1)
        loop.run()
        assert fired == []
        assert len(loop) == 0
        assert loop.processed_events == 1

    def test_far_future_event_fires_at_its_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(86400.0, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [86400.0]
        assert loop.now == 86400.0
        assert len(loop) == 0

    def test_events_across_time_scales_fire_in_order(self):
        """Entries from sub-microsecond to days apart fire in time order,
        with same-instant ties still broken by priority."""
        loop = EventLoop()
        order = []
        times = [3.5e-7, 2.5e-5, 0.004, 1.5, 250.0, 250.0, 9000.0, 2.5e5]
        for index in (5, 2, 7, 0, 4, 6, 1, 3):
            loop.schedule_at(
                times[index], lambda i=index: order.append(i), priority=10 - index
            )
        loop.run()
        assert order == [0, 1, 2, 3, 5, 4, 6, 7]

    def test_chained_long_delays_fire_at_exact_times(self):
        """Callbacks re-arming far ahead keep firing at the exact times."""
        loop = EventLoop()
        fired = []

        def chain(left):
            fired.append(loop.now)
            if left:
                loop.schedule(375.0, partial(chain, left - 1))

        loop.schedule(375.0, partial(chain, 4))
        loop.schedule(1000.0, lambda: fired.append("marker"))
        loop.run()
        assert fired == [375.0, 750.0, "marker", 1125.0, 1500.0, 1875.0]

    def test_cancelled_entries_drained_by_run_leave_len_zero(self):
        """Cancelled entries leave the count at once, whether compaction or
        the drain removes them from the heap."""
        loop = EventLoop()
        near = loop.schedule_at(3e-5, lambda: None)
        far = loop.schedule_at(0.5, lambda: None)
        live = loop.schedule_at(8e-5, lambda: None)
        assert len(loop) == 3
        near.cancel()
        far.cancel()
        assert len(loop) == 1
        live.cancel()
        assert len(loop) == 0
        loop.run()  # draining ghosts must not fire or go negative
        assert len(loop) == 0
        assert loop.processed_events == 0


class _OracleStream:
    """A seeded random schedule stream that predicts its own fire order.

    Every ``schedule_at`` / ``schedule_fast`` call is logged as its
    ``(time, priority, seq)`` key.  Times sit on an exact binary grid so
    many entries share an instant, and every entry is scheduled strictly
    after the moment that scheduled it, so the loop's contract reduces to
    a sort: the fired entries are the logged ones, minus those cancelled
    before their turn, in key order.  ``cancel()`` calls record the key of
    the moment they ran (the firing entry, or the last window edge) so
    the oracle can tell an effective cancel from a late one.
    """

    GRID = 2.0**-12

    def __init__(
        self, seed, cancels=6, callback_cancels=(0, 0, 0, 0, 1), recent=None, fast=0.5
    ):
        self.rng = random.Random(seed)
        self.loop = EventLoop()
        self.log = []  # key per schedule call, indexed by seq
        self.cancelled = {}  # seq -> key of the moment of its first cancel()
        self.events = []  # (seq, Event) for every schedule_at entry
        self.fired = []
        self.moment = (-math.inf, 0, 0)
        self.in_callback = False
        #: Cancels per window, the cancel counts a firing entry draws from, the
        #: number of latest events cancels pick from (``None``: all), and the
        #: share of entries scheduled fast.
        self.cancels = cancels
        self.callback_cancels = callback_cancels
        self.recent = recent
        self.fast_share = fast

    def schedule(self, after_slot, spread):
        rng = self.rng
        when = (after_slot + rng.randrange(1, spread + 1)) * self.GRID
        priority = rng.randrange(4)
        seq = len(self.log)
        self.log.append((when, priority, seq))
        if rng.random() < self.fast_share:
            self.loop.schedule_fast(when, partial(self.fire, seq), priority)
        else:
            event = self.loop.schedule_at(when, partial(self.fire, seq), priority=priority)
            assert event.seq == seq
            self.events.append((seq, event))

    def cancel_one(self):
        # Targets may already have fired or been cancelled: late and double
        # cancels must be no-ops.
        seq, event = self.rng.choice(self.events[-self.recent :] if self.recent else self.events)
        self.cancelled.setdefault(seq, self.moment)
        event.cancel()

    def fire(self, seq):
        key = self.log[seq]
        assert self.loop.now == key[0]
        self.fired.append(seq)
        self.moment = key
        self.in_callback = True
        slot = round(key[0] / self.GRID)
        for _ in range(self.rng.choice((0, 0, 1, 2))):
            self.schedule(slot, 6)
        if self.events:
            for _ in range(self.rng.choice(self.callback_cancels)):
                self.cancel_one()
        self.in_callback = False

    def live_keys(self):
        # A cancel at or after the entry's own turn (self-cancel included)
        # is late and leaves it fired.
        return [
            key
            for key in self.log
            if key[2] not in self.cancelled or self.cancelled[key[2]] >= key
        ]

    def predict(self, edge):
        """``(now, processed_events, len(loop))`` after ``run_until(edge)``."""
        live = self.live_keys()
        due = sum(1 for key in live if key[0] <= edge)
        return (edge, due, len(live) - due)

    def ghosts(self):
        """Cancelled :class:`Event` entries actually in the loop's heap."""
        return sum(1 for entry in self.loop._heap if isinstance(entry[3], Event) and entry[3].cancelled)

    def drive(self, edges):
        """Schedule, cancel and drain window by window; returns the
        observed and predicted edge snapshots."""
        loop = self.loop
        observed, predicted = [], []
        slot = 0
        for edge in edges:
            for _ in range(60):
                self.schedule(slot, 40)
            for _ in range(self.cancels):
                self.cancel_one()
            loop.run_until(edge)
            observed.append((loop.now, loop.processed_events, len(loop)))
            predicted.append(self.predict(edge))
            assert loop._cancelled == self.ghosts()
            self.moment = (edge, math.inf, math.inf)
            slot = math.floor(edge / self.GRID)
        loop.run()
        return observed, predicted


class TestOrderOracle:
    """The loop against a sort oracle over seeded random streams."""

    # Window edges in grid slots: on grid points (inclusive edges) and
    # between them.
    EDGES = (5, 11.5, 24, 24.25, 50, 90.5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
    def test_fired_order_is_the_sorted_live_schedule(self, seed):
        stream = _OracleStream(seed)
        edges = [slot * _OracleStream.GRID for slot in self.EDGES]
        observed, predicted = stream.drive(edges)
        assert observed == predicted
        expected = [key[2] for key in sorted(stream.live_keys())]
        assert stream.fired == expected
        assert len(stream.fired) < len(stream.log)  # some cancels took effect
        assert stream.loop.processed_events == len(expected)
        assert len(stream.loop) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 42])
    def test_order_holds_under_compaction(self, seed):
        """Cancel-heavy streams, fast entries mixed in, cross the compaction
        threshold many times, also from inside callbacks."""
        stream = _OracleStream(seed, cancels=100, callback_cancels=(0, 1, 2, 4), recent=60, fast=0.2)
        loop = stream.loop
        compact = loop._compact
        compactions = []

        def counting_compact():
            compactions.append(stream.in_callback)
            compact()

        loop._compact = counting_compact
        edges = [slot * _OracleStream.GRID for slot in range(5, 400, 7)]
        observed, predicted = stream.drive(edges)
        assert observed == predicted
        expected = [key[2] for key in sorted(stream.live_keys())]
        assert stream.fired == expected
        assert len(expected) * 2 < len(stream.log)  # most entries were cancelled
        assert compactions.count(True) >= 5 and compactions.count(False) >= 5
        assert loop._cancelled == stream.ghosts() == 0
        assert len(loop) == 0

    @pytest.mark.parametrize("seed", [3, 11])
    def test_run_until_window_edges_match_oracle(self, seed):
        """A fixed plan drained window by window: clock, processed count
        and live count at each edge, and the fired order, follow from
        sorting the plan."""
        rng = random.Random(seed)
        plan = [(rng.random() * 0.08, rng.randrange(12)) for _ in range(400)]
        loop = EventLoop()
        fired = []
        for seq, (when, priority) in enumerate(plan):
            loop.schedule_at(when, partial(fired.append, seq), priority=priority)
        for edge in (0.01, 0.02, 0.05, 0.1):
            loop.run_until(edge)
            due = sum(1 for when, _ in plan if when <= edge)
            assert (loop.now, loop.processed_events, len(loop)) == (edge, due, len(plan) - due)
        keys = sorted((when, priority, seq) for seq, (when, priority) in enumerate(plan))
        assert fired == [seq for _, _, seq in keys]

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("hostile", [False, True])
    def test_engine_mix_fires_in_time_order(self, seed, hostile):
        """The engine-microbench driver's fire trace never goes back in time."""
        loop, trace = _drive_engine_mix(1500, seed, hostile)
        times = [when for _, when in trace]
        assert times == sorted(times)
        assert len({tag for tag, _ in trace}) == len(trace)
        assert len(trace) == loop.processed_events
        assert len(loop) == 0


def _heap_bounded(loop):
    """Cancelled entries are at most half the heap (plus one in flight)."""
    return len(loop._heap) <= 2 * len(loop) + 1


def _pending_entries(loop):
    """Heap entries that will still fire: every entry but cancelled Events."""
    return sum(1 for entry in loop._heap if not (isinstance(entry[3], Event) and entry[3].cancelled))


class TestBoundedHeap:
    """Lazy cancellation keeps the heap within twice the live entries."""

    def test_rearmed_timer_keeps_heap_bounded(self):
        """A Raft-style election timer re-armed on every heartbeat."""
        loop = EventLoop()
        rng = random.Random(5)
        ticks, timeouts, rearms = [], [], []  # rearms: heap size after each
        timer = loop.schedule(0.15, lambda: timeouts.append(loop.now))

        def heartbeat():
            nonlocal timer
            timer.cancel()
            timer = loop.schedule(rng.uniform(0.1, 0.2), lambda: timeouts.append(loop.now))
            rearms.append(len(loop._heap))
            assert _heap_bounded(loop)
            if len(rearms) < 10_000:
                loop.schedule(0.001, heartbeat)

        def tick(period):
            ticks.append(period)
            loop.schedule(period, partial(tick, period))

        for period in (0.0007, 0.0013, 0.0031):
            loop.schedule(period, partial(tick, period))
        loop.schedule(0.001, heartbeat)
        while len(rearms) < 10_000:
            loop.run_until(loop.now + 0.05)
            assert _heap_bounded(loop)
        assert timeouts == [] and len(ticks) > 10_000

    def test_raft_broadcast_canopus_keeps_heap_bounded(self):
        """Raft followers in each super-leaf re-arm their election timer on
        every AppendEntries; the heap stays bounded at every window edge,
        and ``len(loop)`` counts exactly the heap entries still to fire
        (network helper wake-ups and drains included)."""
        topology = make_single_dc_topology(Simulator(seed=5), nodes_per_rack=3)
        sut = build_system("canopus", topology, config=CanopusConfig(broadcast_mode="raft"))
        sut.start()
        nodes = list(sut.cluster.nodes.values())
        loop = sut.simulator.loop
        for window in range(1, 41):
            for index, node in enumerate(nodes):
                node.submit(
                    ClientRequest(
                        client_id=f"c{index}", op=RequestType.WRITE, key=f"k{window}", value="v"
                    )
                )
            # 1 ms edges, so some land with packets in flight.
            for step in range(1, 51):
                sut.simulator.run_until((window - 1) * 0.05 + step * 0.001)
                assert len(loop) == _pending_entries(loop), (window, step)
            assert _heap_bounded(loop), (window, len(loop._heap), len(loop))
        assert len(nodes[0].committed_requests()) > 0


class TestSimulator:
    def test_same_seed_same_rng_stream(self):
        sim_a, sim_b = Simulator(seed=42), Simulator(seed=42)
        assert [sim_a.rng.random() for _ in range(5)] == [sim_b.rng.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        sim_a, sim_b = Simulator(seed=1), Simulator(seed=2)
        assert [sim_a.rng.random() for _ in range(5)] != [sim_b.rng.random() for _ in range(5)]

    def test_fork_rng_is_deterministic_per_label(self):
        sim_a, sim_b = Simulator(seed=7), Simulator(seed=7)
        assert sim_a.fork_rng("n1").random() == sim_b.fork_rng("n1").random()

    def test_fork_rng_differs_between_labels(self):
        sim = Simulator(seed=7)
        assert sim.fork_rng("n1").random() != sim.fork_rng("n2").random()

    def test_register_and_get_component(self):
        sim = Simulator()
        component = object()
        sim.register("thing", component)
        assert sim.get("thing") is component

    def test_register_duplicate_raises(self):
        sim = Simulator()
        sim.register("thing", object())
        with pytest.raises(SimulationError):
            sim.register("thing", object())

    def test_run_until_updates_now(self):
        sim = Simulator()
        sim.run_until(3.5)
        assert sim.now == 3.5
