"""Simulated network: hosts, switches, links, and packet delivery.

The network model is intentionally simple but captures the three effects the
Canopus paper's evaluation hinges on:

1. **Per-hop propagation latency.**  Intra-rack hops are cheap, hops across
   the aggregation switch cost more, and inter-datacenter hops use the wide
   area latencies of Table 1.
2. **Link serialization and queuing.**  Every link has a bandwidth; a packet
   occupies the link for ``size / bandwidth`` seconds and packets queue FIFO
   behind each other.  Oversubscribed aggregation links therefore become the
   bottleneck for broadcast-heavy protocols (EPaxos) exactly as in §8.1.
3. **Receiver CPU service time.**  Each host processes incoming messages
   serially with a configurable per-message and per-byte cost, which is what
   saturates a centralized coordinator (the ZooKeeper leader in Fig. 5).

Routing is shortest-path over the host/switch graph, precomputed once per
topology.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import EventLoop, SimulationError

__all__ = [
    "Packet",
    "Link",
    "NetworkInterface",
    "Host",
    "Switch",
    "Network",
    "CpuModel",
    "DeliveryQueue",
]

#: Default per-message protocol framing overhead in bytes (headers etc.).
DEFAULT_HEADER_BYTES = 64


#: Cache-miss sentinel (None is a valid cached value: loopback).
_MISSING = object()


@dataclass(slots=True)
class Packet:
    """A message in flight between two hosts."""

    src: str
    dst: str
    payload: Any
    size_bytes: int
    packet_id: int = 0
    sent_at: float = 0.0
    hops: int = 0

    def total_bytes(self) -> int:
        return self.size_bytes + DEFAULT_HEADER_BYTES


@dataclass
class CpuModel:
    """Per-host CPU cost model for message processing.

    ``per_message_s`` dominates for the small 16-byte key-value requests the
    paper uses; ``per_byte_s`` matters for the large merged proposals Canopus
    ships between super-leaves in later rounds.  Sending also consumes CPU
    (serialization, syscalls) at ``send_fraction`` of the receive cost — this
    is what makes a node that broadcasts to everyone (a Zab leader, an EPaxos
    command leader) a bottleneck, as the paper observes.
    """

    per_message_s: float = 4e-6
    per_byte_s: float = 1e-9
    send_fraction: float = 0.5

    def service_time(self, packet: Packet) -> float:
        return self.per_message_s + self.per_byte_s * packet.total_bytes()

    def send_time(self, packet: Packet) -> float:
        return self.send_fraction * self.service_time(packet)


class DeliveryQueue:
    """Coalesces a stream of timed deliveries into one scheduled event.

    Links and host CPU queues hand over work whose completion times are
    (by construction) non-decreasing: link serialization and CPU busy-until
    both only move forward.  Instead of scheduling one event-loop entry per
    packet — which makes the heap grow with the number of in-flight
    messages — the queue keeps at most one outstanding event and, when it
    fires, flushes *every* pending item that is due at that instant.  This
    is the sim-network hot path batching: a burst to one destination costs
    one heap operation, not one per message.

    Items pushed out of order (possible only if a caller violates the
    monotonicity contract) fall back to a dedicated event so delivery
    timing is never wrong, merely unbatched.
    """

    __slots__ = ("loop", "deliver", "priority", "label", "_pending", "_armed", "_flush_cb")

    def __init__(
        self,
        loop: EventLoop,
        deliver: Callable[[Any], None],
        priority: int,
        label: str,
    ) -> None:
        self.loop = loop
        self.deliver = deliver
        self.priority = priority
        self.label = label
        self._pending: "deque[Tuple[float, Any]]" = deque()
        self._armed = False
        #: Pre-bound flush callback: arming happens once per burst but the
        #: bound-method allocation was still visible under saturation.
        self._flush_cb = self._flush

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, when: float, item: Any) -> None:
        """Enqueue ``item`` for delivery at absolute time ``when``."""
        pending = self._pending
        if pending and when < pending[-1][0]:
            self.loop.schedule_fast(when, lambda: self.deliver(item), self.priority)
            return
        pending.append((when, item))
        if not self._armed:
            self._armed = True
            self.loop.schedule_fast(when, self._flush_cb, self.priority)

    def _flush(self) -> None:
        self._armed = False
        pending = self._pending
        now = self.loop._now
        deliver = self.deliver
        while pending and pending[0][0] <= now:
            deliver(pending.popleft()[1])
        if pending and not self._armed:
            self._armed = True
            self.loop.schedule_fast(pending[0][0], self._flush_cb, self.priority)


class Link:
    """A unidirectional link with propagation delay, bandwidth and a FIFO queue."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        latency_s: float,
        bandwidth_bps: float,
        deliver: Callable[[Packet], None],
    ) -> None:
        self.loop = loop
        self.name = name
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self._deliver = deliver
        self._busy_until = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self._arrivals = DeliveryQueue(loop, deliver, priority=5, label=f"link:{name}")
        #: When this link is a host's only ingress link, arrivals go to the
        #: host's lazy backlog lane instead of a scheduled delivery queue
        #: (set by :meth:`Network.add_link` via ``Host._attach_ingress``).
        self._lazy_host: Optional["Host"] = None
        #: When this link feeds a zero-delay switch, arrivals go to the
        #: switch's per-ingress-link lane, drained in merged arrival order
        #: by the switch's lookahead drain (see :class:`Switch`).
        self._lazy_lane: Optional["_SwitchLane"] = None

    def transmit(self, packet: Packet) -> float:
        """Enqueue ``packet`` and return its arrival time at the far end."""
        total_bytes = packet.size_bytes + DEFAULT_HEADER_BYTES
        serialization = total_bytes * 8.0 / self.bandwidth_bps
        busy = self._busy_until
        now = self.loop._now
        start = now if now > busy else busy
        finish = start + serialization
        self._busy_until = finish
        arrival = finish + self.latency_s
        self.bytes_sent += total_bytes
        self.packets_sent += 1
        host = self._lazy_host
        if host is not None:
            host._ingress_push(arrival, packet)
        else:
            lane = self._lazy_lane
            if lane is not None:
                lane.push(arrival, now, packet)
            else:
                self._arrivals.push(arrival, packet)
        return arrival

    def transmit_at(self, earliest_start: float, packet: Packet) -> float:
        """Like :meth:`transmit`, but the packet may not start serializing
        before ``earliest_start``.

        The multicast fast path uses this to transmit a whole fan-out group
        in one event turn while charging each packet exactly the link time
        it would have been charged had its sender injected it at its own
        CPU-finish instant: ``start = max(earliest_start, busy)`` is the
        same arithmetic :meth:`transmit` performs with ``now`` when the
        injection happens as a dedicated event at ``earliest_start``.  This
        is only sound when no other source can touch this link's queue in
        between — true for host egress links, which are fed exclusively by
        their owning host in CPU-finish order.
        """
        total_bytes = packet.size_bytes + DEFAULT_HEADER_BYTES
        serialization = total_bytes * 8.0 / self.bandwidth_bps
        busy = self._busy_until
        start = earliest_start if earliest_start > busy else busy
        finish = start + serialization
        self._busy_until = finish
        arrival = finish + self.latency_s
        self.bytes_sent += total_bytes
        self.packets_sent += 1
        host = self._lazy_host
        if host is not None:
            host._ingress_push(arrival, packet)
        else:
            lane = self._lazy_lane
            if lane is not None:
                lane.push(arrival, self.loop._now, packet)
            else:
                self._arrivals.push(arrival, packet)
        return arrival

    def transmit_lazy(self, forward_at: float, packet: Packet) -> None:
        """Transmit on behalf of a switch drain forwarding at modelled
        instant ``forward_at`` (the packet's arrival at that switch).

        Identical arithmetic to :meth:`transmit` executed at a dedicated
        event at ``forward_at`` — ``start = max(forward_at, busy)`` — but
        run eagerly from the drain.  ``forward_at`` doubles as the
        downstream reference-push instant (a zero-delay switch forwards the
        moment a packet arrives), which keeps the next switch lane's
        arming rank exact.
        """
        total_bytes = packet.size_bytes + DEFAULT_HEADER_BYTES
        serialization = total_bytes * 8.0 / self.bandwidth_bps
        busy = self._busy_until
        start = forward_at if forward_at > busy else busy
        finish = start + serialization
        self._busy_until = finish
        arrival = finish + self.latency_s
        self.bytes_sent += total_bytes
        self.packets_sent += 1
        host = self._lazy_host
        if host is not None:
            host._ingress_push(arrival, packet)
        else:
            lane = self._lazy_lane
            if lane is not None:
                lane.push(arrival, forward_at, packet)
            else:
                self._arrivals.push(arrival, packet)

    @property
    def queue_delay(self) -> float:
        """Current backlog of the link in seconds."""
        return max(0.0, self._busy_until - self.loop.now)

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` spent transmitting."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent * 8.0 / self.bandwidth_bps) / elapsed_s)


class NetworkInterface:
    """Endpoint attached to a host or switch; owns the outgoing links."""

    def __init__(self, owner: "NetworkElement") -> None:
        self.owner = owner
        self.links: Dict[str, Link] = {}

    def connect(self, link: Link, neighbor: str) -> None:
        self.links[neighbor] = link


class NetworkElement:
    """Base class for hosts and switches."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.interface = NetworkInterface(self)

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _SwitchLane:
    """One ingress link's arrival backlog at a zero-delay switch.

    ``q`` holds ``(arrival, p_ref, packet)`` with arrivals non-decreasing
    (the feeding link is FIFO and feeds it in modelled-forward order).
    ``p_ref`` is the instant the reference engine would have pushed the
    packet into this link's delivery queue — its forward time at the
    previous element — which decides when that queue's flush was armed.

    ``(arm_at, arm_tick)`` reproduce the reference flush event's tie rank
    for the head group: the instant the reference would have armed that
    flush (push when the queue was empty, else the previous group's flush
    instant) and a per-switch monotone tick standing in for the engine's
    schedule sequence number.  Merging lanes by ``(arrival, arm_at,
    arm_tick)`` therefore replays equal-arrival flushes of different
    ingress links in the reference engine's ``(time, priority, seq)``
    order, which is what keeps shared-egress serialization byte-identical
    under symmetric broadcast collisions.
    """

    __slots__ = ("owner", "q", "arm_at", "arm_tick", "lat", "src")

    def __init__(self, owner: "Switch", lat: float, src: "NetworkElement") -> None:
        self.owner = owner
        self.q: "deque[Tuple[float, float, Packet]]" = deque()
        self.arm_at = float("-inf")
        self.arm_tick = 0
        #: Feeding link's latency and source element: a drain may only
        #: forward up to ``min over lanes of (lat - source's drain slack)``
        #: past its own instant, because a lazily-draining source can push
        #: an item up to its grid period after the item's modelled forward
        #: time (see Switch._margin).
        self.lat = lat
        self.src = src

    def push(self, arrival: float, p_ref: float, packet: Packet) -> None:
        q = self.q
        owner = self.owner
        if q:
            if arrival < q[-1][0]:
                # FIFO feeders cannot produce this; keep an unbatched
                # fallback mirroring DeliveryQueue's out-of-order contract.
                owner._loop.schedule_fast(arrival, lambda: owner.receive(packet), 5)
                return
            q.append((arrival, p_ref, packet))
        else:
            if p_ref > self.arm_at:
                # Reference arming: empty queue, armed by this push at p_ref.
                # When p_ref has not passed the chain key left behind by the
                # last drained group, the reference queue never went empty (the
                # push happened before that group's flush) and re-armed chained
                # at the flush instant: keep the stored chain key instead.
                self.arm_at = p_ref
                self.arm_tick = owner._arm_tick = owner._arm_tick + 1
            q.append((arrival, p_ref, packet))
            # Lane goes non-empty: enter the switch's persistent merge
            # index.  The entry mirrors (head arrival, arm_at, arm_tick)
            # exactly until _drain_to re-keys it at a group boundary or
            # pops it dry — FIFO appends never change the head, and the
            # arm fields only move on this empty-queue branch.
            heappush(owner._index, (arrival, self.arm_at, self.arm_tick, self))
        # Arm the drain on the switch's time grid: a packet may wait up to
        # one grid period (= min egress latency) because its downstream
        # arrival is at least that far away, and grid alignment means a
        # burst of head-improving pushes arms one drain, not one each.
        # An armed drain at or before ``arrival`` always beats the next
        # grid point after it (g > arrival >= at), so the grid math is
        # skipped entirely in that (common) case.
        at = owner._drain_at
        if at is None or at > arrival:
            g = (int(arrival * owner._grid_inv) + 1) * owner._grid
            if at is None or g < at:
                owner._drain_at = g
                owner._loop.schedule_fast(g, owner._drain_cb, 5)


class Switch(NetworkElement):
    """A store-and-forward switch with negligible internal processing delay.

    The switch forwards along the precomputed shortest path.  Switch
    forwarding delay is folded into link latencies, which matches how the
    paper reports topology latencies (host-to-host RTTs).

    Zero-delay switches deliver lazily: each ingress link appends arrivals
    to a :class:`_SwitchLane`, and a single *drain* event forwards the
    whole merged backlog whose arrival lies within the switch's lookahead
    window (the minimum ingress latency).  Any arrival pushed by a later
    event is strictly beyond that window — a packet transmitted at time
    ``T`` arrives after ``T + serialization + latency`` — so the merged
    arrival order the drain forwards in is exactly the order the reference
    engine's per-arrival flush events would have produced, and
    :meth:`Link.transmit_lazy` charges each hop the identical arithmetic.
    """

    def __init__(self, network: "Network", name: str, forwarding_delay_s: float = 0.0) -> None:
        super().__init__(network, name)
        self._loop = network.loop
        self.forwarding_delay_s = forwarding_delay_s
        self.packets_forwarded = 0
        #: Destination -> egress link, resolved once per destination (the
        #: store-and-forward hot path; cleared on route rebuilds).
        self._fwd: Dict[str, Link] = {}
        #: Per-ingress-link backlog lanes (zero-delay switches only).
        self._lanes: List[_SwitchLane] = []
        #: Merge-safe lookahead: min ingress latency.  Every not-yet-pushed
        #: arrival is strictly later than ``drain time + lookahead``.
        self._lookahead = float("inf")
        #: Earliest armed drain event time (None when nothing is armed).
        self._drain_at: Optional[float] = None
        #: Monotone stand-in for the engine's schedule sequence, bumped at
        #: every simulated reference arming (see :class:`_SwitchLane`).
        self._arm_tick = 0
        #: Persistent lane index: a heap holding exactly one
        #: ``(head arrival, arm_at, arm_tick, lane)`` entry per non-empty
        #: lane.  Maintained incrementally — O(log L) heappush when a lane
        #: goes non-empty (:meth:`_SwitchLane.push`), O(log L) re-key /
        #: pop at group boundaries in :meth:`_drain_to` — so a drain walks
        #: the merged order directly instead of heapifying all lane heads
        #: from scratch every grid period.  ``arm_tick`` is unique per
        #: switch, so entries totally order before ever comparing lanes.
        self._index: List[Tuple[float, float, int, _SwitchLane]] = []
        #: Pre-bound drain callback (one bound-method allocation total,
        #: not one per grid arming).
        self._drain_cb = self._drain
        #: Drain grid period: the minimum egress latency.  A laned packet
        #: may be forwarded up to one period after its arrival here without
        #: any downstream instant observing the delay.
        self._grid = float("inf")
        self._grid_inv = 0.0
        #: Cleared when a zero-latency link makes lazy forwarding unsound.
        self._lazy_ok = True
        #: Cached merge-safe window (see :meth:`_margin`).
        self._margin_cache = float("inf")
        self._margin_gen = -1

    def _attach_lane(self, link: Link, src: "NetworkElement") -> None:
        if link.latency_s <= 0.0 or not self._lazy_ok:
            self._demote_lanes()
            return
        lane = _SwitchLane(self, link.latency_s, src)
        link._lazy_lane = lane
        self._lanes.append(lane)
        if link.latency_s < self._lookahead:
            self._lookahead = link.latency_s

    def _margin(self) -> float:
        """Merge-safe forwarding window past a drain instant.

        Every arrival not yet pushed into a lane at instant ``g`` is
        strictly later than ``g + margin``: a real event at ``u >= g``
        pushes arrivals beyond ``u + lat``, while a lazy source switch's
        drain at ``u`` may forward items whose modelled forward time is up
        to its grid period old, pushing arrivals beyond ``u + lat - grid``.
        """
        gen = self.network._topo_gen
        if gen != self._margin_gen:
            margin = float("inf")
            for lane in self._lanes:
                src = lane.src
                slack = src._grid if isinstance(src, Switch) and src._lanes else 0.0
                m = lane.lat - slack
                if m < margin:
                    margin = m
            self._margin_cache = margin
            self._margin_gen = gen
        return self._margin_cache

    def _note_egress(self, latency_s: float) -> None:
        """Record an outgoing link's latency; it bounds the drain grid."""
        if latency_s <= 0.0:
            self._demote_lanes()
        elif self._lazy_ok and latency_s < self._grid:
            self._grid = latency_s
            self._grid_inv = 1.0 / latency_s

    def _demote_lanes(self) -> None:
        """Fall back to per-arrival scheduled delivery (a zero-latency link
        leaves no slack for batched forwarding).

        Spilled backlog goes back into each feeding link's delivery queue —
        the structure the reference engine keeps it in — rather than one
        scheduled event and one closure per packet: per-lane arrivals are
        non-decreasing, so :class:`DeliveryQueue`'s monotone batching
        applies and the spill arms one real flush per link.
        """
        self._lazy_ok = False
        self.network._topo_gen += 1
        if self._index:
            # Mid-run demotion: laned arrivals may be up to one grid period
            # in the past (the reference engine already delivered them).
            # Replay everything due now in merged reference order first, so
            # the spill below only ever re-queues future arrivals — the
            # delivery queues cannot schedule into the past.
            self._drain_to(self._loop._now)
        self._drain_at = None
        for link in self.network.links.values():
            lane = link._lazy_lane
            if lane is None or lane.owner is not self:
                continue
            link._lazy_lane = None
            arrivals_push = link._arrivals.push
            for arrival, _p_ref, packet in lane.q:
                arrivals_push(arrival, packet)
            lane.q.clear()
        self._lanes.clear()
        self._index.clear()
        self._grid = 0.0

    def _drain(self) -> None:
        """Forward every laned arrival inside the lookahead window.

        Runs as one event on the switch's drain grid and replays, in merged
        order, the per-arrival flushes the reference engine would have run.
        """
        loop = self._loop
        now = loop._now
        if self._drain_at != now:
            return  # superseded by a re-arm at an earlier grid point
        self._drain_at = None
        bound = now + self._margin()
        deadline = loop._deadline
        if now <= deadline < bound:
            # Never forward past the active run_until window: state
            # observable at the deadline must match the reference engine.
            bound = deadline
        nxt = self._drain_to(bound)
        if nxt is not None:
            g = (int(nxt * self._grid_inv) + 1) * self._grid
            at = self._drain_at
            if at is None or g < at:
                self._drain_at = g
                loop.schedule_fast(g, self._drain_cb, 5)

    def _drain_to(self, bound: float) -> Optional[float]:
        """Forward every laned arrival at or before ``bound`` in merged
        reference order.  Returns the merged head arrival left pending, if
        any.

        Walks :attr:`_index` — the persistent heap of per-lane head keys —
        directly: a group boundary re-keys the root in place, a dry lane
        pops it, and everything still pending survives to the next drain
        untouched.  The merge keys are immutable while a head group is
        pending (pushes only append behind it), so the pop sequence is
        identical to the heapify-from-scratch it replaces.
        """
        heads = self._index
        if not heads:
            return None
        loop = self._loop
        fwd = self._fwd
        hdr = DEFAULT_HEADER_BYTES
        count = 0
        while heads:
            head = heads[0]
            arrival = head[0]
            if arrival > bound:
                break
            lane = head[3]
            q = lane.q
            _, _, packet = q.popleft()
            count += 1
            packet.hops += 1
            dst = packet.dst
            try:
                link = fwd[dst]
            except KeyError:
                link = self.interface.links[self.network.next_hop(self.name, dst)]
                fwd[dst] = link
            # Link.transmit_lazy, inlined (the drain is the per-packet hot
            # loop): identical expression shapes, forward_at = arrival.
            total_bytes = packet.size_bytes + hdr
            serialization = total_bytes * 8.0 / link.bandwidth_bps
            busy = link._busy_until
            start = arrival if arrival > busy else busy
            finish = start + serialization
            link._busy_until = finish
            down_arrival = finish + link.latency_s
            link.bytes_sent += total_bytes
            link.packets_sent += 1
            sink = link._lazy_host
            if sink is not None:
                # Host._ingress_push, non-empty in-order fast case inlined.
                hq = sink._in_q
                if hq and down_arrival >= hq[-1][0]:
                    hq.append((down_arrival, packet))
                else:
                    sink._ingress_push(down_arrival, packet)
            else:
                sink = link._lazy_lane
                if sink is not None:
                    # _SwitchLane.push, non-empty in-order fast case
                    # inlined (the downstream lane's merge-index entry
                    # only changes when its queue goes non-empty; p_ref =
                    # arrival, the forward instant at this switch).
                    lq = sink.q
                    if lq and down_arrival >= lq[-1][0]:
                        lq.append((down_arrival, arrival, packet))
                        sw = sink.owner
                        at = sw._drain_at
                        if at is None or at > down_arrival:
                            g = (int(down_arrival * sw._grid_inv) + 1) * sw._grid
                            if at is None or g < at:
                                sw._drain_at = g
                                loop.schedule_fast(g, sw._drain_cb, 5)
                    else:
                        sink.push(down_arrival, arrival, packet)
                else:
                    link._arrivals.push(down_arrival, packet)
            if q:
                head2 = q[0]
                nxt_arrival = head2[0]
                if nxt_arrival != arrival:
                    # Group boundary: the reference re-arms at this flush's
                    # instant when the next item is already pushed, else at
                    # the instant of that item's push.  (Same-group
                    # continuations leave the root's merge key unchanged —
                    # arm_tick is unique per switch, so the min is strict.)
                    nxt_p_ref = head2[1]
                    lane.arm_at = arm = arrival if nxt_p_ref <= arrival else nxt_p_ref
                    lane.arm_tick = tick = self._arm_tick = self._arm_tick + 1
                    heapreplace(heads, (nxt_arrival, arm, tick, lane))
            else:
                # Lane drained dry: pre-assign the chain-continuation key.
                # If a deferred upstream push later lands with p_ref at or
                # before this flush instant, the reference re-armed chained
                # right here, with this merge rank (see push()).
                lane.arm_at = arrival
                lane.arm_tick = self._arm_tick = self._arm_tick + 1
                heappop(heads)
        self.packets_forwarded += count
        return heads[0][0] if heads else None

    def receive(self, packet: Packet) -> None:
        self.packets_forwarded += 1
        packet.hops += 1
        dst = packet.dst
        link = self._fwd.get(dst)
        if link is None:
            link = self.interface.links[self.network.next_hop(self.name, dst)]
            self._fwd[dst] = link
        if self.forwarding_delay_s:
            self.network.loop.schedule(
                self.forwarding_delay_s, lambda: link.transmit(packet), priority=5, label=f"fwd:{self.name}"
            )
        else:
            link.transmit(packet)


class _RxQueue(DeliveryQueue):
    """The host CPU dispatch queue, pull-aware.

    Before dispatching, the owning host replays any ingress backlog due at
    or before the flush instant (the lane's virtual flushes run at priority
    5, this queue at priority 8, so the replay order matches the reference
    engine's).  After draining, if the CPU went idle while arrivals are
    still pending in the lane, a real wake-up is armed so the backlog is
    charged at exactly the instant the reference engine would have.
    """

    __slots__ = ("host",)

    def __init__(self, host: "Host") -> None:
        super().__init__(host.network.loop, host._dispatch, priority=8, label=f"cpu:{host.name}")
        self.host = host

    def _flush(self) -> None:
        host = self.host
        loop = self.loop
        now = loop._now
        if host._in_armed_at is not None:
            host._pull(now)
        self._armed = False
        pending = self._pending
        # Host._dispatch inlined: this is the per-delivered-packet loop, and
        # the extra frame per packet was measurable.  Failure state and the
        # handler are re-read per packet (a callback can fail the host or
        # swap the handler mid-flush), exactly as the indirect call did; the
        # receive counters accumulate in locals and settle once per flush.
        hdr = DEFAULT_HEADER_BYTES
        n_received = 0
        b_received = 0
        while pending and pending[0][0] <= now:
            packet = pending.popleft()[1]
            if not host.failed:
                n_received += 1
                b_received += packet.size_bytes + hdr
                handler = host._handler
                if handler is not None:
                    obs = host._obs
                    if obs is None:
                        handler(packet.src, packet.payload)
                    else:
                        obs.deliver(host.name, packet, handler)
        if n_received:
            host.messages_received += n_received
            host.bytes_received += b_received
        if pending:
            if not self._armed:
                self._armed = True
                loop.schedule_fast(pending[0][0], self._flush_cb, 8)
        elif host._in_armed_at is not None:
            host._arm_wake(host._in_armed_at)


class _TxGroup:
    """All sends charged to one host's CPU within a single event turn.

    Every entry carries the absolute CPU-finish time its packet would have
    been injected at by a dedicated per-send event; the group is flushed as
    one event at the earliest of those times and each packet is handed to
    its first-hop link with ``transmit_at(start)``, reproducing the exact
    serialization schedule of per-send injection (see
    :meth:`Link.transmit_at` for why that is sound).
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        #: ``(dst, payload, size_bytes, cpu_finish)`` per coalesced send.
        self.items: List[Tuple[str, Any, int, float]] = []


class Host(NetworkElement):
    """A simulated machine.

    Incoming packets are serviced serially through a single CPU queue and
    then handed to the registered message handler.  Outgoing messages go
    through :meth:`send` / :meth:`multicast`, which charge this host's CPU
    and hand the packets to the network routing table when the CPU gets to
    them.  Sends issued within one event turn are coalesced into a single
    transmit-queue entry (their CPU-finish times are all determined
    synchronously, so the schedule is precomputable), which keeps the event
    heap small under fan-out bursts.
    """

    def __init__(self, network: "Network", name: str, cpu: Optional[CpuModel] = None) -> None:
        super().__init__(network, name)
        self.cpu = cpu or CpuModel()
        self._loop = network.loop
        self._handler: Optional[Callable[[str, Any], None]] = None
        self._cpu_busy_until = 0.0
        self._cpu_busy_s = 0.0
        self.messages_received = 0
        self.messages_sent = 0
        self.bytes_received = 0
        self.rack: Optional[str] = None
        self.datacenter: Optional[str] = None
        self.failed = False
        #: Observability hook — set alongside :attr:`Network._obs` when a
        #: tracer is attached; the delivery path costs one load when off.
        self._obs = None
        loop = network.loop
        self._rx_queue = _RxQueue(self)
        self._tx_queue = DeliveryQueue(loop, self._inject, priority=9, label=f"send:{name}")
        #: Open same-turn coalescing group and the loop turn it belongs to.
        self._open_tx: Optional[_TxGroup] = None
        self._open_tx_step = -1
        # Lazy ingress backlog (single-ingress-link hosts only) ----------
        #: Links delivering to this host; with exactly one, arrivals are
        #: delivered lazily through the backlog lane below.
        self._ingress_links: List[Link] = []
        #: Pending (arrival, packet) pairs, arrivals non-decreasing.
        self._in_q: "deque[Tuple[float, Packet]]" = deque()
        #: Virtual delivery-queue arming time: the instant the reference
        #: engine's per-link delivery queue would fire its next flush.
        self._in_armed_at: Optional[float] = None
        #: Earliest real wake-up currently scheduled (None when none).
        self._wake_at: Optional[float] = None
        #: Pre-bound wake callback (one bound-method allocation total).
        self._wake_cb = self._wake

    # ------------------------------------------------------------------
    def set_handler(self, handler: Callable[[str, Any], None]) -> None:
        """Register the callback invoked as ``handler(sender, payload)``."""
        self._handler = handler

    # ------------------------------------------------------------------
    # Lazy ingress backlog
    #
    # A host with a single incoming link (every host in the tree
    # topologies) does not schedule one delivery event per distinct
    # arrival time.  Links append (arrival, packet) to the host's lane at
    # transmit time; the CPU charge for each packet is *replayed* — with
    # the reference engine's exact arithmetic and order — the first time
    # the host's CPU state is observed at or after the arrival instant
    # (a send, a dispatch, a utilization probe, fail/recover, or the
    # armed wake-up when the CPU would otherwise sit idle).  See
    # ARCHITECTURE.md, "Backlog delivery".
    # ------------------------------------------------------------------
    def _attach_ingress(self, link: Link) -> None:
        """Register an incoming link; demote to scheduled delivery when
        the host stops being single-ingress (lazy replay needs one lane)."""
        self._ingress_links.append(link)
        if len(self._ingress_links) == 1:
            link._lazy_host = self
        else:
            for attached in self._ingress_links:
                attached._lazy_host = None

    def _ingress_push(self, when: float, packet: Packet) -> None:
        """Append an arrival to the backlog lane (called at transmit time)."""
        q = self._in_q
        if q:
            # Non-empty lane invariant: ``_in_armed_at`` is already set (a
            # pull only clears it when the lane empties).
            if when < q[-1][0]:
                # Out-of-order arrival: impossible for a FIFO link, but keep
                # the DeliveryQueue fallback contract (dedicated event).
                self._loop.schedule_fast(when, lambda: self.receive(packet), 5)
                return
            q.append((when, packet))
            return
        q.append((when, packet))
        if self._in_armed_at is None:
            self._in_armed_at = when
            if not self._rx_queue._pending:
                self._arm_wake(when)

    def _arm_wake(self, when: float) -> None:
        """Schedule a real wake-up so an idle CPU charges its backlog at
        the same instant the reference engine's delivery event would."""
        wake_at = self._wake_at
        if wake_at is None or when < wake_at:
            self._wake_at = when
            self._loop.schedule_fast(when, self._wake_cb, 5)

    def _wake(self) -> None:
        loop = self._loop
        self._wake_at = None
        if self._in_armed_at is not None:
            self._pull(loop._now)
            if self._in_armed_at is not None and not self._rx_queue._pending:
                self._arm_wake(self._in_armed_at)

    def _pull(self, bound: float) -> None:
        """Replay ingress delivery flushes due at or before ``bound``.

        Each iteration reproduces one flush of the reference engine's
        per-link delivery queue: it charges every packet that queue would
        have delivered at that instant with the identical ``start =
        max(arrival, busy)`` arithmetic, and re-arms (virtually) at the
        next pending arrival.
        """
        armed = self._in_armed_at
        if armed is None or armed > bound:
            return
        loop = self._loop
        q = self._in_q
        rxq = self._rx_queue
        pending = rxq._pending
        cpu = self.cpu
        per_message = cpu.per_message_s
        per_byte = cpu.per_byte_s
        failed = self.failed
        busy = self._cpu_busy_until
        busy_s = self._cpu_busy_s
        while armed is not None and armed <= bound:
            while q and q[0][0] <= armed:
                when, packet = q.popleft()
                if not failed:
                    cost = per_message + per_byte * (packet.size_bytes + DEFAULT_HEADER_BYTES)
                    start = when if when > busy else busy
                    finish = start + cost
                    busy = finish
                    busy_s += cost
                    # CPU-finish times are non-decreasing (one busy chain),
                    # so this is rx_queue.push without the out-of-order
                    # check; arming is settled once, after the batch.
                    pending.append((finish, packet))
                # else: dropped, exactly as receive() would at arrival time
            armed = q[0][0] if q else None
        self._cpu_busy_until = busy
        self._cpu_busy_s = busy_s
        self._in_armed_at = armed
        if pending and not rxq._armed:
            rxq._armed = True
            loop.schedule_fast(pending[0][0], rxq._flush_cb, 8)

    def _tx_group(self) -> Tuple[_TxGroup, bool]:
        """The open coalescing group for the current event turn.

        A group stays open only for the duration of one loop turn: any
        event processed in between bumps the loop's processed count, so a
        stale group (which may already have flushed) is never extended.
        """
        turn = self._loop._processed
        group = self._open_tx
        if group is not None and self._open_tx_step == turn:
            return group, False
        group = _TxGroup()
        self._open_tx = group
        self._open_tx_step = turn
        return group, True

    def send(self, dst: str, payload: Any, size_bytes: int) -> None:
        """Send ``payload`` to host ``dst``.

        The send is charged to this host's CPU queue first (serialization /
        syscall cost), then handed to the network when the CPU gets to it.
        """
        if self.failed:
            return
        loop = self._loop
        if self._in_armed_at is not None:
            self._pull(loop._now)
        self.messages_sent += 1
        cpu = self.cpu
        # Inlined CpuModel.send_time with the identical expression shape
        # (same parenthesization => bit-identical float results).
        cost = cpu.send_fraction * (
            cpu.per_message_s + cpu.per_byte_s * (size_bytes + DEFAULT_HEADER_BYTES)
        )
        now = loop._now
        busy = self._cpu_busy_until
        start = now if now > busy else busy
        finish = start + cost
        self._cpu_busy_until = finish
        self._cpu_busy_s += cost
        turn = loop._processed
        group = self._open_tx
        if group is not None and self._open_tx_step == turn:
            group.items.append((dst, payload, size_bytes, finish))
        else:
            group = _TxGroup()
            self._open_tx = group
            self._open_tx_step = turn
            group.items.append((dst, payload, size_bytes, finish))
            self._tx_queue.push(finish, group)

    def multicast(self, dsts: Sequence[str], payload: Any, size_bytes: int) -> None:
        """Send one logical ``payload`` to every host in ``dsts``.

        Each destination is charged the same CPU send cost, link
        serialization and receive cost as ``len(dsts)`` sequential
        :meth:`send` calls — modelled timings are identical — but the send
        cost is computed once, the whole group rides a single
        transmit-queue entry, and routing is resolved through the network's
        per-pair first-hop cache.  Sole granularity exception: destination
        crash-stop state is sampled when the group flushes, not at each
        packet's logical injection instant (see ARCHITECTURE.md, "Transport
        / broadcast fast path").
        """
        if self.failed or not dsts:
            return
        loop = self._loop
        if self._in_armed_at is not None:
            self._pull(loop._now)
        self.messages_sent += len(dsts)
        cpu = self.cpu
        cost = cpu.send_fraction * (
            cpu.per_message_s + cpu.per_byte_s * (size_bytes + DEFAULT_HEADER_BYTES)
        )
        now = loop._now
        busy = self._cpu_busy_until
        start = now if now > busy else busy
        group, fresh = self._tx_group()
        items = group.items
        first = len(items)
        for dst in dsts:
            start += cost
            items.append((dst, payload, size_bytes, start))
        self._cpu_busy_until = start
        self._cpu_busy_s += cost * len(dsts)
        if fresh:
            self._tx_queue.push(items[first][3], group)

    def _inject(self, group: _TxGroup) -> None:
        self.network._deliver_fanout(self.name, group.items)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if self._in_armed_at is not None:
            self._pull(self._loop._now)
        if self.failed:
            return
        cpu = self.cpu
        cost = cpu.per_message_s + cpu.per_byte_s * (packet.size_bytes + DEFAULT_HEADER_BYTES)
        now = self._loop._now
        busy = self._cpu_busy_until
        start = now if now > busy else busy
        finish = start + cost
        self._cpu_busy_until = finish
        self._cpu_busy_s += cost
        self._rx_queue.push(finish, packet)

    def _dispatch(self, packet: Packet) -> None:
        if self.failed:
            return
        self.messages_received += 1
        self.bytes_received += packet.size_bytes + DEFAULT_HEADER_BYTES
        handler = self._handler
        if handler is not None:
            obs = self._obs
            if obs is None:
                handler(packet.src, packet.payload)
            else:
                obs.deliver(self.name, packet, handler)

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash-stop the host: drop all future traffic and processing."""
        if self._in_armed_at is not None:
            self._pull(self.network.loop._now)  # charge pre-crash arrivals
        self.failed = True

    def recover(self) -> None:
        """Bring a crashed host back (protocol-level rejoin is separate)."""
        if self._in_armed_at is not None:
            self._pull(self.network.loop._now)  # drop in-crash arrivals
        self.failed = False

    def cpu_utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the CPU spent servicing messages.

        Accumulated busy seconds, not the ``_cpu_busy_until`` timestamp:
        the timestamp equals elapsed time plus queue backlog whenever the
        CPU was ever busy near the end of the window, which over-reported
        utilization for any host with idle gaps.
        """
        if self._in_armed_at is not None:
            self._pull(self.network.loop._now)
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self._cpu_busy_s / elapsed_s)


class Network:
    """The set of hosts, switches and links plus routing.

    Links are added with :meth:`add_link` (which creates one unidirectional
    :class:`Link` per direction).  Routing tables are computed lazily with
    BFS weighted by hop count; topologies built by
    :mod:`repro.sim.topology` are trees so shortest paths are unique.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._routes: Dict[str, Dict[str, str]] = {}
        self._packet_ids = itertools.count(1)
        #: Observability hook (:class:`repro.obs.Tracer`) — ``None`` when
        #: tracing is off; the egress path then costs one attribute load.
        self._obs = None
        self._routes_dirty = True
        self.local_loopback_latency_s = 5e-6
        self.dropped_packets = 0
        self._loopback_queues: Dict[str, DeliveryQueue] = {}
        #: Cached fan-out plans: (src, frozenset(dsts)) -> {dst: first-hop
        #: Link, or None for loopback}.  Invalidated with the routing table.
        self._fanout_plans: Dict[Tuple[str, frozenset], Dict[str, Optional[Link]]] = {}
        #: Per-pair first-hop cache backing the plans *and* the coalesced
        #: transmit groups: src -> {dst -> first-hop Link (None = loopback)}.
        #: Nested by source so the per-packet fan-out loop looks up a plain
        #: string key instead of allocating a (src, dst) tuple per item.
        #: Bounded by the number of host pairs actually communicating,
        #: unlike per-group keys, which would grow with every distinct
        #: destination mix a turn happens to coalesce.
        self._first_hops: Dict[str, Dict[str, Optional[Link]]] = {}
        #: Bumped on every link-topology change; invalidates drain margins.
        self._topo_gen = 0
        # Backlog lanes are replayed lazily; settle them whenever a run
        # window closes so observable counters (CPU busy time, link
        # packet counts) match the reference engine at every deadline.
        loop.add_quiesce_hook(self._settle_ingress)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, cpu: Optional[CpuModel] = None) -> Host:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate network element {name!r}")
        host = Host(self, name, cpu=cpu)
        self.hosts[name] = host
        self._adjacency.setdefault(name, [])
        self._routes_dirty = True
        return host

    def add_switch(self, name: str, forwarding_delay_s: float = 0.0) -> Switch:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate network element {name!r}")
        switch = Switch(self, name, forwarding_delay_s)
        self.switches[name] = switch
        self._adjacency.setdefault(name, [])
        self._routes_dirty = True
        return switch

    def element(self, name: str) -> NetworkElement:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(name)

    def add_link(self, a: str, b: str, latency_s: float, bandwidth_bps: float) -> None:
        """Create a bidirectional link between elements ``a`` and ``b``."""
        element_a = self.element(a)
        element_b = self.element(b)
        forward = Link(self.loop, f"{a}->{b}", latency_s, bandwidth_bps, element_b.receive)
        backward = Link(self.loop, f"{b}->{a}", latency_s, bandwidth_bps, element_a.receive)
        self.links[(a, b)] = forward
        self.links[(b, a)] = backward
        element_a.interface.connect(forward, b)
        element_b.interface.connect(backward, a)
        if isinstance(element_a, Switch):
            element_a._note_egress(latency_s)
        if isinstance(element_b, Switch):
            element_b._note_egress(latency_s)
        if isinstance(element_b, Host):
            element_b._attach_ingress(forward)
        elif element_b.forwarding_delay_s == 0:
            element_b._attach_lane(forward, element_a)
        if isinstance(element_a, Host):
            element_a._attach_ingress(backward)
        elif element_a.forwarding_delay_s == 0:
            element_a._attach_lane(backward, element_b)
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._topo_gen += 1
        self._routes_dirty = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _rebuild_routes(self) -> None:
        self._routes = {}
        for source in self._adjacency:
            next_hop: Dict[str, str] = {}
            visited = {source}
            queue = deque([(neighbor, neighbor) for neighbor in self._adjacency[source]])
            for neighbor, _ in queue:
                visited.add(neighbor)
            while queue:
                node, first = queue.popleft()
                next_hop[node] = first
                for neighbor in self._adjacency[node]:
                    if neighbor not in visited:
                        visited.add(neighbor)
                        queue.append((neighbor, first))
            self._routes[source] = next_hop
        self._routes_dirty = False
        self._fanout_plans.clear()
        self._first_hops.clear()
        for switch in self.switches.values():
            switch._fwd.clear()

    def _settle_ingress(self) -> None:
        """Quiesce hook: bring every lazy lane up to the current instant.

        Grid-armed switch drains may still be pending for arrivals already
        due, so force-forward those first — repeatedly, because one
        switch's forwards can land in another's lanes — then replay every
        due host backlog.
        """
        now = self.loop._now
        switches = [s for s in self.switches.values() if s._lanes]
        changed = True
        while changed:
            changed = False
            for switch in switches:
                index = switch._index
                if index and index[0][0] <= now:
                    switch._drain_to(now)
                    changed = True
        for host in self.hosts.values():
            if host._in_armed_at is not None:
                host._pull(now)

    def next_hop(self, src: str, dst: str) -> str:
        if self._routes_dirty:
            self._rebuild_routes()
        try:
            return self._routes[src][dst]
        except KeyError as exc:
            raise SimulationError(f"no route from {src} to {dst}") from exc

    def path(self, src: str, dst: str) -> List[str]:
        """Return the full element path from ``src`` to ``dst`` (exclusive of src)."""
        if self._routes_dirty:
            self._rebuild_routes()
        path = []
        current = src
        guard = 0
        while current != dst:
            current = self._routes[current][dst]
            path.append(current)
            guard += 1
            if guard > len(self._adjacency) + 1:
                raise SimulationError(f"routing loop from {src} to {dst}")
        return path

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        """Inject a packet from host ``src`` to host ``dst``.

        A one-destination fan-out: unicast and multicast share a single
        injection semantics (:meth:`_deliver_fanout`) so drop accounting,
        loopback handling and routing can never drift apart.
        """
        now = self.loop.now
        self._deliver_fanout(src, ((dst, payload, size_bytes, now),))

    def multicast(self, src: str, dsts: Sequence[str], payload: Any, size_bytes: int) -> None:
        """Inject one logical ``payload`` from ``src`` to every host in ``dsts``.

        A single shared message object fans out through the cached
        ``(src, frozenset(dsts))`` first-hop plan; every destination is
        still charged its own link serialization and receive cost, so
        modelled timings equal ``len(dsts)`` sequential :meth:`send` calls.
        Destinations may repeat, include ``src`` (loopback delivery), or be
        crash-stopped (the packet is dropped and counted, as in ``send``).
        """
        if src not in self.hosts:
            raise SimulationError(f"send requires host endpoints ({src} -> ...)")
        plan = self._fanout_plan(src, dsts)  # validates the group up front
        now = self.loop.now
        self._deliver_fanout(
            src, [(dst, payload, size_bytes, now) for dst in dsts], plan=plan
        )

    def _loopback_queue(self, dst: str) -> DeliveryQueue:
        queue = self._loopback_queues.get(dst)
        if queue is None:
            queue = self._loopback_queues[dst] = DeliveryQueue(
                self.loop, self.hosts[dst].receive, priority=5, label=f"loopback:{dst}"
            )
        return queue

    def _first_hop(self, src: str, dst: str) -> Optional[Link]:
        """Cached first-hop egress link for ``src -> dst`` (None = loopback)."""
        by_dst = self._first_hops.get(src)
        if by_dst is None:
            by_dst = self._first_hops[src] = {}
        link = by_dst.get(dst, _MISSING)
        if link is _MISSING:
            if dst not in self.hosts:
                raise SimulationError(f"send requires host endpoints ({src} -> {dst})")
            if dst == src:
                link = None
            else:
                link = self.hosts[src].interface.links[self.next_hop(src, dst)]
            by_dst[dst] = link
        return link

    def _fanout_plan(self, src: str, dsts: Sequence[str]) -> Dict[str, Optional[Link]]:
        """First-hop routing for a destination group, resolved once and cached.

        The plan maps each destination to the egress link the first packet
        hop uses (``None`` for loopback); iteration order and per-call CPU
        charging stay with the caller, so the cache can key on the
        unordered set.  Used by the :meth:`multicast` primitive, whose
        callers pass stable destination groups (replica sets); coalesced
        transmit groups, whose destination mixes are ephemeral, go through
        the per-pair :meth:`_first_hop` cache instead.
        """
        if self._routes_dirty:
            self._rebuild_routes()
        key = (src, frozenset(dsts))
        plan = self._fanout_plans.get(key)
        if plan is None:
            plan = {dst: self._first_hop(src, dst) for dst in key[1]}
            self._fanout_plans[key] = plan
        return plan

    def _deliver_fanout(
        self,
        src: str,
        items: Sequence[Tuple[str, Any, int, float]],
        plan: Optional[Dict[str, Optional[Link]]] = None,
    ) -> None:
        """Hand a flushed transmit group to first-hop links in one pass.

        Each item is ``(dst, payload, size_bytes, start)`` where ``start``
        is the CPU-finish instant that destination's packet would have been
        injected at by a dedicated event; it is forwarded to
        :meth:`Link.transmit_at` (or added to the loopback latency) so the
        per-destination schedule is bit-identical to sequential sends.
        Routing uses the group's fan-out ``plan`` when the caller resolved
        one (:meth:`multicast`, whose destination sets are stable), and
        the per-pair first-hop cache otherwise (coalesced transmit groups,
        whose destination mixes are ephemeral).
        """
        if src not in self.hosts:
            raise SimulationError(f"send requires host endpoints ({src} -> ...)")
        if self._routes_dirty:
            self._rebuild_routes()
        hosts = self.hosts
        first_hop = self._first_hop
        first_hops = self._first_hops.get(src)
        if first_hops is None:
            first_hops = self._first_hops[src] = {}
        packet_ids = self._packet_ids
        hdr = DEFAULT_HEADER_BYTES
        obs = self._obs
        loop = self.loop
        # The loop never advances time, so the reference-push instant every
        # transmit would read is the same for the whole group.
        p_ref = loop._now
        # A fan-out group from one host rides one egress link for every
        # non-loopback destination (tree routing), so the lazy-sink
        # resolution is cached across consecutive same-link items.
        last_link = None
        sink_host: Optional[Host] = None
        sink_lane: Optional[_SwitchLane] = None
        for dst, payload, size_bytes, when in items:
            if plan is not None:
                link = plan[dst]
            else:
                try:
                    link = first_hops[dst]
                except KeyError:
                    link = first_hop(src, dst)
            if hosts[dst].failed:
                self.dropped_packets += 1
                continue
            packet = Packet(src, dst, payload, size_bytes, next(packet_ids), when)
            if obs is not None:
                obs.packet_sent(packet)
            if link is None:
                self._loopback_queue(dst).push(when + self.local_loopback_latency_s, packet)
                continue
            # Link.transmit_at, inlined (this is the per-packet injection
            # hot loop): identical expression shapes, earliest_start =
            # the item's CPU-finish instant.
            total_bytes = size_bytes + hdr
            serialization = total_bytes * 8.0 / link.bandwidth_bps
            busy = link._busy_until
            start = when if when > busy else busy
            finish = start + serialization
            link._busy_until = finish
            arrival = finish + link.latency_s
            link.bytes_sent += total_bytes
            link.packets_sent += 1
            if link is not last_link:
                last_link = link
                sink_host = link._lazy_host
                sink_lane = link._lazy_lane if sink_host is None else None
            if sink_host is not None:
                # Host._ingress_push, non-empty in-order fast case inlined.
                hq = sink_host._in_q
                if hq and arrival >= hq[-1][0]:
                    hq.append((arrival, packet))
                else:
                    sink_host._ingress_push(arrival, packet)
            elif sink_lane is not None:
                # _SwitchLane.push, non-empty in-order fast case inlined.
                lq = sink_lane.q
                if lq and arrival >= lq[-1][0]:
                    lq.append((arrival, p_ref, packet))
                    sw = sink_lane.owner
                    at = sw._drain_at
                    if at is None or at > arrival:
                        g = (int(arrival * sw._grid_inv) + 1) * sw._grid
                        if at is None or g < at:
                            sw._drain_at = g
                            loop.schedule_fast(g, sw._drain_cb, 5)
                else:
                    sink_lane.push(arrival, p_ref, packet)
            else:
                link._arrivals.push(arrival, packet)

    # ------------------------------------------------------------------
    # Introspection helpers used by benchmarks
    # ------------------------------------------------------------------
    def total_bytes_on(self, link_pairs: Iterable[Tuple[str, str]]) -> int:
        return sum(self.links[pair].bytes_sent for pair in link_pairs if pair in self.links)

    def link(self, a: str, b: str) -> Link:
        return self.links[(a, b)]
