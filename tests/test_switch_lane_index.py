"""Lane-index-vs-eager differential bar for the switch drain merge.

The persistent lane index (``Switch._index``) must forward laned
arrivals in exactly the merged order the eager reference produces: the
order of per-arrival delivery-queue flushes when every switch lane is
demoted and every host ingress lane detached.  These tests drive
randomized tree topologies through randomized push/drain interleavings
— ``run_until`` deadline caps included, so drains hit mid-window bounds
and reopened head groups — in both configurations and require
byte-identical delivery traces plus agreeing observable state at every
window edge: per-host ``messages_received`` and CPU busy seconds, and
per-link ``packets_sent`` (see :func:`_snapshot`).  The same
driver also runs through a *mid-run* demotion, pinning the spill path
``_demote_lanes`` takes when lazy forwarding becomes unsound while lanes
hold backlog.
"""

import random

import pytest

from repro.bench.runner import _drive_switch_drain_mix
from repro.sim.engine import EventLoop
from repro.sim.network import Network


def _build_random_tree(net, rng):
    """Random 2-3 rack tree with mixed latencies/bandwidths; returns hosts."""
    racks = rng.randrange(2, 4)
    names = []
    for rack in range(racks):
        net.add_switch(f"tor-{rack}")
        for index in range(rng.randrange(2, 5)):
            name = f"h{rack}-{index}"
            names.append(name)
            net.add_host(name)
            net.add_link(
                name,
                f"tor-{rack}",
                latency_s=rng.choice([2e-6, 5e-6, 11e-6]),
                bandwidth_bps=rng.choice([1e9, 10e9]),
            )
    net.add_switch("spine")
    for rack in range(racks):
        net.add_link(f"tor-{rack}", "spine", latency_s=rng.choice([4e-6, 9e-6]), bandwidth_bps=40e9)
    return names


def _demote_everything(net):
    """Force the eager reference configuration: spill every switch lane and
    detach every host ingress lane, so all delivery goes through real
    per-arrival scheduled flushes."""
    for switch in net.switches.values():
        switch._demote_lanes()
    for link in net.links.values():
        link._lazy_host = None


def _snapshot(net, loop):
    """What a caller can observe at a window edge: the clock, every host's
    received-message count and CPU busy seconds (the figure
    ``Host.cpu_utilization`` reports), and every link's packet count."""
    return (
        loop.now,
        [(host.messages_received, host._cpu_busy_s) for host in net.hosts.values()],
        [link.packets_sent for link in net.links.values()],
    )


def _drive(net, loop, names, seed, demote=None):
    """Randomized send/drain interleaving; returns (trace, edge snapshots).

    ``demote``, when set to ``(switch_name, at_index)``, demotes that
    switch's lanes mid-run — with backlog in flight — at send ``at_index``.
    """
    rng = random.Random(seed + 9000)
    trace = []
    for name in names:
        def on_rx(src, payload, me=name):
            trace.append((me, src, payload, loop.now))

        net.element(name).set_handler(on_rx)

    count = len(names)
    edges = []
    for index in range(400):
        src_i = rng.randrange(count)
        dst_i = rng.randrange(count - 1)
        if dst_i >= src_i:
            dst_i += 1
        net.send(names[src_i], names[dst_i], index, 64 + rng.randrange(4) * 700)
        if demote is not None and index == demote[1]:
            net.switches[demote[0]]._demote_lanes()
        draw = rng.random()
        if draw < 0.20:
            # Tight cap: the window edge lands inside pending backlog, so
            # drains stop at the deadline and re-arm past it.
            loop.run_until(loop.now + rng.random() * 3e-5)
            edges.append(_snapshot(net, loop))
        elif draw < 0.30:
            loop.run_until(loop.now + rng.random() * 8e-4)
            edges.append(_snapshot(net, loop))
    loop.run()
    edges.append(_snapshot(net, loop))
    return trace, edges


def _assert_traces_equivalent(lazy_trace, eager_trace):
    """Byte-identical per-host delivery order and identical timestamps.

    Two rx flushes at *different* hosts due at the same instant are
    independent events whose relative order falls to the engine's seq
    counter — which legitimately differs between lazy replay and eager
    scheduling (true on the pre-index code too).  What the contract pins
    is every per-host sequence (payloads, senders, and delivery times —
    any lane-merge misorder shifts the serialization chain and shows up
    in the timestamps) and the time-sorted global trace.
    """
    assert sorted(lazy_trace, key=lambda e: (e[3], e[0])) == sorted(
        eager_trace, key=lambda e: (e[3], e[0])
    )
    hosts = {entry[0] for entry in lazy_trace}
    for host in hosts:
        lazy_seq = [entry for entry in lazy_trace if entry[0] == host]
        eager_seq = [entry for entry in eager_trace if entry[0] == host]
        assert lazy_seq == eager_seq, host


class TestLaneIndexVsEagerDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 5, 9, 23, 51])
    def test_random_topology_and_interleaving_match(self, seed):
        results = []
        for eager in (False, True):
            loop = EventLoop()
            net = Network(loop)
            names = _build_random_tree(net, random.Random(seed))
            if eager:
                _demote_everything(net)
            results.append(_drive(net, loop, names, seed))
        (lazy_trace, lazy_edges), (eager_trace, eager_edges) = results
        _assert_traces_equivalent(lazy_trace, eager_trace)
        assert lazy_edges == eager_edges

    @pytest.mark.parametrize("skewed", [False, True])
    def test_drain_mix_driver_matches_eager(self, skewed, monkeypatch):
        """Skewed/uniform lane loads deliver in the eager merged order."""
        import repro.sim.network as network_module

        _, lazy_trace = _drive_switch_drain_mix(3000, 5, skewed)

        class _EagerNetwork(Network):
            """Every link addition immediately re-demotes all lanes, so the
            driver's topology comes up fully eager."""

            def add_link(self, *args, **kwargs):
                super().add_link(*args, **kwargs)
                _demote_everything(self)

        # The driver resolves Network at call time from the sim module.
        monkeypatch.setattr(network_module, "Network", _EagerNetwork)
        _, eager_trace = _drive_switch_drain_mix(3000, 5, skewed)
        assert lazy_trace == eager_trace


class TestDrainMixDriver:
    @pytest.mark.parametrize("skewed", [False, True])
    def test_every_send_delivered_once_in_time_order(self, skewed):
        """The switch-drain microbench driver loses, duplicates and
        reorders-in-time nothing: each send arrives exactly once, at its
        destination, and the delivery trace never goes back in time."""
        loop, trace = _drive_switch_drain_mix(3000, 5, skewed)
        assert sorted(tag for _, _, tag, _ in trace) == list(range(3000))
        times = [when for _, _, _, when in trace]
        assert times == sorted(times)
        assert all(dst != src for dst, src, _, _ in trace)
        assert times[0] > 0.0
        assert len(loop) == 0


class TestMidRunDemotion:
    @pytest.mark.parametrize("seed", [4, 13, 29])
    def test_demotion_with_backlog_stays_byte_identical(self, seed):
        """Spilling lanes mid-run (backlog in flight) matches the eager
        reference: already-due arrivals replay in merged order at the
        demotion instant, future ones re-queue without per-packet events."""
        results = []
        for demote in (None, ("tor-0", 120), ("spine", 120)):
            loop = EventLoop()
            net = Network(loop)
            names = _build_random_tree(net, random.Random(seed))
            results.append(_drive(net, loop, names, seed, demote=demote))
        baseline = results[0]
        assert results[1] == baseline
        assert results[2] == baseline

    def test_demotion_mid_window_inside_backlog(self):
        """Demote at an instant where the lane head is already in the past
        (the drain grid lags arrivals by up to one period)."""
        seed = 8
        results = []
        for demote in (None, ("spine", 40)):
            loop = EventLoop()
            net = Network(loop)
            names = _build_random_tree(net, random.Random(seed))
            results.append(_drive(net, loop, names, seed, demote=demote))
        assert results[0] == results[1]
