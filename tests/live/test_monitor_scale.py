"""Scaling correctness for the live monitor.

The deadline heap is an optimization, never a semantic change: across
randomized multi-peer chaos scenarios, ``poll_mode="heap"`` must emit an
event stream bitwise-identical (times, order, trust flags) to the
reference ``poll_mode="sweep"`` full walk, with identical timelines — on
a fixed poll grid and on the server timer's schedule (a poll just past
every :meth:`LiveMonitor.next_deadline`) alike — and its per-poll work
must be proportional to expiries, not to the number of monitored peers.  The memory bounds (event ring buffer, transition-log
compaction) and listener hardening ride the same engine and are covered
here too.
"""

import asyncio
import math
import random
import socket

import numpy as np
import pytest

from repro.live.chaos import ChaosSpec, plan_delivery
from repro.live.monitor import LiveMonitor, LiveMonitorServer
from repro.live.wire import Heartbeat
from repro.net.delays import LogNormalDelay
from repro.net.loss import BernoulliLoss

INTERVAL = 0.1


def _hb(sender, seq):
    return Heartbeat(sender=sender, seq=seq, timestamp=0.0).encode()


def _random_scenario(seed):
    """One randomized multi-peer run: (sorted feed steps, end time).

    Steps are ``("hb", time, datagram)`` and ``("poll", time, None)``,
    globally time-sorted, so heartbeats never arrive before an already
    polled instant (the monitor's online contract).
    """
    rng = random.Random(seed)
    steps = []
    n_peers = rng.randint(2, 6)
    for i in range(n_peers):
        spec = ChaosSpec(
            loss=BernoulliLoss(rng.uniform(0.0, 0.4)),
            delay=LogNormalDelay(
                math.log(rng.uniform(0.005, 0.05)), rng.uniform(0.1, 0.8)
            ),
            crash_at=rng.choice([None, rng.uniform(2.0, 10.0)]),
            seed=1000 * seed + i,
        )
        for p in plan_delivery(spec, INTERVAL, 120, sender=f"peer{i}"):
            if p.delivered:
                steps.append(("hb", p.wall_arrival, p.datagram))
    end = 16.0
    for _ in range(rng.randint(5, 40)):
        steps.append(("poll", rng.uniform(0.0, end), None))
    steps.sort(key=lambda s: s[1])
    return steps, end


def _monitor(mode, **kwargs):
    return LiveMonitor(
        INTERVAL, ["2w-fd", "bertier"], {"2w-fd": 0.15}, poll_mode=mode, **kwargs
    )


def _run(mode, steps, end, **kwargs):
    mon = _monitor(mode, **kwargs)
    for kind, t, payload in steps:
        if kind == "hb":
            mon.ingest(payload, t)
        else:
            mon.poll(t)
    mon.poll(end)
    return mon


def _poll_due(schedule, monitors, now, until):
    """Poll ``monitors`` where the server's timer would: just past each
    live deadline of ``schedule`` (a heap-mode monitor) before ``until``,
    and never before ``now``, the last arrival (a late beat can leave a
    deadline behind the clock, which the timer then polls at once).
    Returns the poll instants."""
    instants = []
    while True:
        deadline = schedule.next_deadline()
        if deadline is None or deadline >= until:
            return instants
        now = max(now, math.nextafter(deadline, math.inf))  # expiry is strict
        for mon in monitors:
            mon.poll(now)
        instants.append(now)


def _run_on_deadlines(steps, end):
    """The scenario's heartbeats with the grid polls replaced by the
    timer's schedule, driven by the heap monitor; the sweep reference is
    polled at the same instants.  Returns (heap, sweep, poll instants)."""
    heap, sweep = _monitor("heap"), _monitor("sweep")
    instants = []
    now = 0.0
    for kind, t, payload in steps:
        if kind == "hb":
            instants += _poll_due(heap, (heap, sweep), now, t)
            heap.ingest(payload, t)
            sweep.ingest(payload, t)
            now = t
    instants += _poll_due(heap, (heap, sweep), now, end)
    heap.poll(end)
    sweep.poll(end)
    return heap, sweep, instants


def _event_key(e):
    return (e.time, e.peer, e.detector, e.trusting)


class TestHeapSweepEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_event_streams_bitwise_identical(self, seed):
        """Same times, same order, same trust flags — across random chaos."""
        steps, end = _random_scenario(seed)
        heap = _run("heap", steps, end)
        sweep = _run("sweep", steps, end)
        assert heap.events == sweep.events
        assert heap.n_events_total > 0  # scenarios must actually exercise events

    @pytest.mark.parametrize("seed", range(10))
    def test_timelines_identical(self, seed):
        steps, end = _random_scenario(seed)
        heap = _run("heap", steps, end).timelines(end)
        sweep = _run("sweep", steps, end).timelines(end)
        assert heap.keys() == sweep.keys()
        for peer in heap:
            assert heap[peer].keys() == sweep[peer].keys()
            for det in heap[peer]:
                a, b = heap[peer][det], sweep[peer][det]
                assert a.start == b.start and a.end == b.end
                assert a.initial_trust == b.initial_trust
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("seed", range(10))
    def test_deadline_schedule_matches_sweep_and_grid(self, seed):
        """Polled at every ``next_deadline()`` instant instead of on a
        grid, the heap emits the sweep's stream exactly (same instants,
        same order) and the grid run's events: only the instant each is
        emitted moves, never its time or content."""
        steps, end = _random_scenario(seed)
        heap, sweep, instants = _run_on_deadlines(steps, end)
        assert instants, "scenario produced no deadline expiries"
        assert heap.events == sweep.events
        for peer in heap.peers:
            assert heap.snapshot(end)["peers"][peer] == sweep.snapshot(end)["peers"][peer]
        grid = _run("heap", steps, end)
        assert sorted(map(_event_key, heap.events)) == sorted(
            map(_event_key, grid.events)
        )
        assert heap.snapshot(end)["peers"] == grid.snapshot(end)["peers"]

    def test_deadline_on_poll_instant_not_lost(self):
        """A freshness point landing exactly on a poll tick must survive.

        ``advance_to`` is strict (no expiry at ``now == deadline``), so
        the heap must not discard the entry on that tick: the suspicion
        belongs to the *next* poll, in both modes.
        """
        monitors = {
            mode: LiveMonitor(
                INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5}, poll_mode=mode
            )
            for mode in ("heap", "sweep")
        }
        for mon in monitors.values():
            mon.ingest(_hb("p", 1), 1.0)  # deadline at exactly 1.5
            assert mon.poll(1.5) == []  # not expired yet (strict)
            late = mon.poll(2.0)  # now it has
            assert [e.kind for e in late] == ["suspect"]
            assert late[0].time == 1.5
        assert monitors["heap"].events == monitors["sweep"].events


class TestPollWorkProportionalToExpiries:
    def test_idle_poll_does_no_work(self):
        """With every peer fresh, a 1000-peer heap poll pops nothing."""
        n = 1000
        mon = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3}, poll_mode="heap")
        for k in (1, 2, 3):
            for i in range(n):
                mon.ingest(_hb(f"p{i}", k), k * INTERVAL)
        # One cleanup poll absorbs the superseded (lazy-deleted) entries…
        mon.poll(0.65)
        assert mon.last_poll_stats["n_expired"] == 0
        # …after which an idle poll is free, independent of peer count.
        mon.poll(0.69)
        assert mon.last_poll_stats["n_pops"] == 0
        assert mon.last_poll_stats["n_expired"] == 0
        assert mon.last_poll_stats["n_events"] == 0

    def test_single_expiry_materializes_only_that_peer(self):
        n = 200
        mon = LiveMonitor(
            INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5}, poll_mode="heap"
        )
        for i in range(n):
            mon.ingest(_hb(f"p{i}", 1), INTERVAL)
        # Refresh everyone but p0: their deadlines move to 0.7, p0's stays 0.6.
        for i in range(1, n):
            mon.ingest(_hb(f"p{i}", 2), 2 * INTERVAL)
        events = mon.poll(0.65)
        assert [(e.peer, e.kind) for e in events] == [("p0", "suspect")]
        # Exactly one detector expired; the other pops are the amortized
        # lazy deletions of entries this same batch of heartbeats replaced.
        assert mon.last_poll_stats["n_expired"] == 1
        assert mon.last_poll_stats["n_pops"] <= n

    def test_total_pops_bounded_by_heartbeats(self):
        """Lazy deletion is amortized O(1) per accepted heartbeat."""
        n, beats = 50, 20
        mon = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3}, poll_mode="heap")
        total_pops = 0
        for k in range(1, beats + 1):
            for i in range(n):
                mon.ingest(_hb(f"p{i}", k), k * INTERVAL)
            mon.poll(k * INTERVAL + 0.01)
            total_pops += mon.last_poll_stats["n_pops"]
        mon.poll(beats * INTERVAL + 10.0)  # expire everyone
        total_pops += mon.last_poll_stats["n_pops"]
        assert total_pops <= n * beats  # one push (hence one pop) per heartbeat


class TestEventRingBuffer:
    def _flap(self, mon, cycles):
        """Alternate heartbeat/long-silence so every cycle emits 2 events."""
        for c in range(cycles):
            mon.ingest(_hb("p", c + 1), c * 10.0)
            mon.poll(c * 10.0 + 9.0)

    def test_bounded_history_exact_totals(self):
        mon = LiveMonitor(
            INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5}, max_events=5
        )
        self._flap(mon, 10)  # 20 events total
        assert len(mon.events) == 5
        assert mon.n_events_total == 20
        assert mon.n_events_dropped == 15
        snap = mon.snapshot(100.0)
        assert snap["n_events"] == 20
        assert snap["monitor"]["n_events_dropped"] == 15
        assert snap["monitor"]["max_events"] == 5
        # The retained tail is the newest events, still in order.
        unbounded = LiveMonitor(
            INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5}
        )
        self._flap(unbounded, 10)
        assert mon.events == unbounded.events[-5:]

    def test_unbounded_by_default(self):
        mon = LiveMonitor(INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5})
        self._flap(mon, 10)
        assert len(mon.events) == mon.n_events_total == 20
        assert mon.n_events_dropped == 0

    def test_max_events_validated(self):
        with pytest.raises(ValueError, match="max_events"):
            LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3}, max_events=0)


class TestTransitionCompaction:
    def _flap(self, mon, cycles):
        for c in range(cycles):
            mon.ingest(_hb("p", c + 1), c * 10.0)
            mon.poll(c * 10.0 + 9.0)

    def test_counters_exact_log_bounded(self):
        cycles = 50
        mon = LiveMonitor(
            INTERVAL,
            ["fixed-timeout"],
            {"fixed-timeout": 0.5},
            transition_retention=4,
        )
        self._flap(mon, cycles)
        snap = mon.snapshot(1000.0)["peers"]["p"]["detectors"]["fixed-timeout"]
        assert snap["n_suspicions"] == cycles  # running counter survives compaction
        state = mon._peers["p"]
        det = state.detectors["fixed-timeout"]
        assert len(det.transitions) <= 8  # 2x retention, amortized bound
        # The event stream itself is complete: compaction only ever drops
        # transitions that were already drained.
        assert mon.n_events_total == 2 * cycles

    def test_timeline_exact_over_retained_window(self):
        cycles = 30
        kwargs = dict(detectors=["fixed-timeout"], params={"fixed-timeout": 0.5})
        full = LiveMonitor(INTERVAL, **kwargs)
        compact = LiveMonitor(INTERVAL, transition_retention=4, **kwargs)
        self._flap(full, cycles)
        self._flap(compact, cycles)
        end = cycles * 10.0
        ftl = full.timelines(end)["p"]["fixed-timeout"]
        ctl = compact.timelines(end)["p"]["fixed-timeout"]
        assert ftl.n_transitions == 2 * cycles - 1  # exact, full history
        # The compacted timeline is the exact tail of the full one.
        k = ctl.n_transitions
        assert 0 < k <= 8
        assert np.array_equal(ctl.times, ftl.times[-k:])
        assert np.array_equal(ctl.states, ftl.states[-k:])

    def test_retention_validated(self):
        with pytest.raises(ValueError, match="transition_retention"):
            LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3}, transition_retention=0)


class TestListenerHardening:
    def test_raising_listener_cannot_break_detection(self):
        mon = LiveMonitor(INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5})
        seen = []

        def bad(event):
            raise RuntimeError("subscriber bug")

        mon.subscribe(bad)
        mon.subscribe(seen.append)  # registered after the bad one
        mon.ingest(_hb("p", 1), 0.1)
        events = mon.poll(5.0)
        assert [e.kind for e in events] == ["suspect"]
        # Detection survived, the good listener got every event, and the
        # failures were counted.
        assert [e.kind for e in seen] == ["trust", "suspect"]
        assert mon.n_listener_errors == 2
        assert mon.snapshot(5.0)["monitor"]["n_listener_errors"] == 2

    def test_unsubscribe(self):
        mon = LiveMonitor(INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5})
        seen = []
        mon.subscribe(seen.append)
        mon.ingest(_hb("p", 1), 0.1)
        mon.unsubscribe(seen.append)
        mon.poll(5.0)
        assert [e.kind for e in seen] == ["trust"]  # nothing after unsubscribe
        with pytest.raises(ValueError, match="not subscribed"):
            mon.unsubscribe(seen.append)


class TestObservability:
    def test_monitor_load_block(self):
        mon = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3})
        for i in range(5):
            mon.ingest(_hb(f"p{i}", 1), 0.1)
        mon.poll(0.2)
        load = mon.snapshot(0.2)["monitor"]
        assert load["n_peers"] == 5
        assert load["poll_mode"] == "heap"
        assert load["heap_size"] == 5
        assert load["heartbeat_rate"] > 0
        assert load["n_polls"] == 1
        assert load["last_poll_duration"] >= 0
        assert load["last_poll_expired"] == 0
        assert load["n_events_total"] == 5  # one trust per peer
        assert load["n_events_dropped"] == 0
        assert load["n_listener_errors"] == 0

    def test_summary_is_constant_size(self):
        mon = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3})
        for i in range(50):
            mon.ingest(_hb(f"p{i}", 1), 0.1)
        summary = mon.summary(0.2)
        assert "peers" not in summary
        assert summary["monitor"]["n_peers"] == 50
        full = mon.snapshot(0.2)
        assert len(full["peers"]) == 50

    def test_heartbeat_rate_decays(self):
        mon = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.3})
        for k in range(1, 21):
            mon.ingest(_hb("p", k), k * INTERVAL)
        busy = mon.heartbeat_rate(2.0)
        assert busy > 0
        assert mon.heartbeat_rate(120.0) < busy * 1e-3  # long silence decays


class TestNextDeadline:
    def test_skips_superseded_and_removed_entries(self):
        mon = LiveMonitor(INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5})
        assert mon.next_deadline() is None
        mon.ingest(_hb("a", 1), 0.1)
        mon.ingest(_hb("b", 1), 0.2)
        mon.ingest(_hb("c", 1), 0.3)
        first = mon.next_deadline()
        assert first == mon._peers["a"].sched
        # A fresher beat supersedes a's entry: it is popped, not returned.
        mon.ingest(_hb("a", 2), 0.4)
        assert mon.heap_size == 4
        assert mon.next_deadline() == mon._peers["b"].sched > first
        assert mon.heap_size == 3
        # A removed peer's entry dies the same way.
        mon.remove_peer("b")
        assert mon.next_deadline() == mon._peers["c"].sched
        assert mon.heap_size == 2
        # Idempotent: a live top is peeked, never popped.
        assert mon.next_deadline() == mon._peers["c"].sched
        assert mon.heap_size == 2
        # Past every deadline nothing stays pending.
        mon.poll(10.0)
        assert mon.next_deadline() is None

    def test_sweep_mode_keeps_no_schedule(self):
        mon = LiveMonitor(
            INTERVAL, ["fixed-timeout"], {"fixed-timeout": 0.5}, poll_mode="sweep"
        )
        mon.ingest(_hb("a", 1), 0.1)
        assert mon.next_deadline() is None


async def _wait_for(predicate, *, timeout: float):
    async def loop():
        while not predicate():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(loop(), timeout)


class TestDeadlineTimer:
    """The server polls at the next freshness point, not on its tick."""

    @pytest.mark.parametrize("mode", ["scalar", "batched", "vectorized", "adaptive"])
    def test_suspicion_emitted_well_inside_the_tick(self, mode):
        """With a 0.5 s tick, a tick-paced poll would leave a silenced
        peer's suspicion waiting ~250 ms on average; the timer emits it
        within a few ms of its freshness point on every receive path."""
        waits = []

        async def scenario():
            monitor = LiveMonitor(
                0.05, ["fixed-timeout"], {"fixed-timeout": 0.1}, ingest_mode=mode
            )
            monitor.subscribe(
                lambda e: e.trusting or waits.append(monitor.now() - e.time)
            )
            async with LiveMonitorServer(monitor, tick=0.5, ingest_mode=mode) as server:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    # Two peers, silenced ~30 ms apart.
                    for k in range(1, 6):
                        sock.sendto(_hb("a", k), server.address)
                        await asyncio.sleep(0.03)
                        sock.sendto(_hb("b", k), server.address)
                        await asyncio.sleep(0.02)
                await _wait_for(lambda: len(waits) == 2, timeout=5.0)

        asyncio.run(asyncio.wait_for(scenario(), 30.0))
        assert len(waits) == 2
        assert max(waits) < 0.1, waits

    def test_earlier_deadline_rearms_the_timer(self):
        """Armed at the ``tick`` ceiling on an empty heap, the timer moves
        to the first peer's deadline as soon as its beat is ingested."""
        suspected = []

        async def scenario():
            monitor = LiveMonitor(0.05, ["fixed-timeout"], {"fixed-timeout": 0.1})
            monitor.subscribe(lambda e: e.trusting or suspected.append(e))
            async with LiveMonitorServer(monitor, tick=30.0) as server:
                assert server._armed == pytest.approx(monitor.now() + 30.0, abs=1.0)
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    sock.sendto(_hb("a", 1), server.address)
                await _wait_for(lambda: monitor.n_peers == 1, timeout=5.0)
                assert server._armed == monitor.next_deadline()
                assert server._armed < monitor.now() + 1.0
                await _wait_for(lambda: suspected, timeout=5.0)
                # With nothing pending the timer falls back to the ceiling.
                assert monitor.next_deadline() is None
                assert server._armed > monitor.now() + 20.0

        asyncio.run(asyncio.wait_for(scenario(), 30.0))
        assert [e.peer for e in suspected] == ["a"]

    def test_stop_cancels_the_timer_and_keeps_the_final_poll(self):
        async def scenario():
            monitor = LiveMonitor(0.05, ["fixed-timeout"], {"fixed-timeout": 0.1})
            server = LiveMonitorServer(monitor, tick=30.0)
            await server.start()
            polls = monitor.n_polls
            timer = server._timer
            await server.stop()
            assert timer.cancelled()
            assert server._timer is None
            assert monitor.n_polls == polls + 1
            # A late receive callback cannot re-arm a stopped server.
            monitor.ingest(_hb("a", 1))
            server._ingested()
            assert server._timer is None

        asyncio.run(asyncio.wait_for(scenario(), 30.0))
