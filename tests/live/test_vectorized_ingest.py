"""Vectorized ingest equivalence: the hard bitwise-identity property.

``ingest_mode="vectorized"`` replaces the per-heartbeat scalar pipeline
(wire decode -> SharedArrivalState push -> per-detector freshness update)
with a columnar engine that decodes a whole batch into numpy arrays and
applies the window pushes and deadline formulas vectorized.  The contract
is not "approximately equal": every transition event, every snapshot field,
and every QoS timeline must be **bitwise identical** to the scalar
reference path, across randomized interleavings, message loss, stale
duplicates, and out-of-order arrivals.  These tests are the enforcement.
``ingest_mode="adaptive"`` inherits the same contract for free — any
per-drain interleaving of the batched and vectorized paths must land on
the same surface (its controller/migration mechanics are exercised in
``test_adaptive_ingest.py``).

The only tolerated difference is the ``monitor`` load block (batch
counts): batching strategy is observable there by design.  The heap size
is compared too: these workloads accept at most one beat per peer per
batch, where every mode pushes the same entries.

Each surface is recorded under two poll schedules: the old fixed grid
and the server timer's (a poll just past every
:meth:`LiveMonitor.next_deadline`).
"""

import math
import random

import pytest

import repro.live.ingest as ingest_mod
from repro.core.windows import SlidingWindow
from repro.live.arena import DatagramArena
from repro.live.monitor import LiveMonitor
from repro.live.wire import Heartbeat

# Every registry detector has a vectorized kernel (only detector classes
# outside the registry fail fast — asserted below).
DETECTORS = [
    "2w-fd",
    "mw-fd",
    "chen",
    "chen-sync",
    "adaptive-2w-fd",
    "phi",
    "ed",
    "bertier",
    "histogram",
    "fixed-timeout",
]
PARAMS = {
    "2w-fd": 0.05,
    "mw-fd": 0.05,
    "chen": 0.05,
    "chen-sync": 0.05,
    "phi": 3.0,
    "ed": 0.95,
    "histogram": 0.99,
    "fixed-timeout": 0.3,
}
INTERVAL = 0.1
MODES = ["scalar", "batched", "vectorized", "adaptive"]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _generate_workload(seed, n_peers=6, n_batches=40, stale_only=0.0):
    """(time, [(sender, seq, ts), ...]) batches with loss, stale duplicates
    and out-of-order arrivals, plus the poll instants interleaved.

    ``stale_only`` is the chance that a batch is followed by one holding
    nothing but replays of already-accepted seqs, so that polls fall
    between a peer's last accepted beat and its stale-only arrivals.
    """
    rng = random.Random(seed)
    peers = [f"peer-{i}" for i in range(n_peers)]
    seqs = dict.fromkeys(peers, 0)
    batches = []
    t = 0.0
    for _ in range(n_batches):
        t += rng.uniform(0.01, 0.25)
        batch = []
        for p in peers:
            if rng.random() < 0.7:  # 30% loss
                seqs[p] += 1
                if rng.random() < 0.15 and seqs[p] > 1:
                    # stale duplicate riding in the same batch
                    batch.append((p, seqs[p] - 1, t - 0.01))
                batch.append((p, seqs[p], t))
        rng.shuffle(batch)  # out-of-order within the batch
        if batch:
            batches.append((t, batch))
        if rng.random() < stale_only:
            t += rng.uniform(0.05, 0.2)
            replays = [
                (p, rng.randint(1, seqs[p]), t - 0.5)
                for p in peers
                for _ in range(rng.randint(0, 3))
                if seqs[p]
            ]
            if replays:
                batches.append((t, replays))
    polls = [i * 0.07 for i in range(1, int(t / 0.07) + 3)]
    return batches, polls


def _run(
    mode, batches, polls, detectors=DETECTORS, single=False, schedule="grid"
):
    """Drive one monitor through the workload; return its full observable
    surface: events, snapshot, per-peer trust queries, QoS timelines."""
    clock = _Clock()
    monitor = LiveMonitor(
        INTERVAL,
        detectors,
        {k: v for k, v in PARAMS.items() if k in detectors},
        clock=clock,
        estimation="shared",
        ingest_mode=mode,
    )
    return _drive(monitor, clock, batches, polls, detectors, single, schedule)


def _drive(
    monitor, clock, batches, polls, detectors=DETECTORS, single=False,
    schedule="grid",
):
    """The surface :func:`_run` reports, for a monitor built by the caller
    on ``clock``.

    ``schedule="grid"`` polls at ``polls``; ``"deadline"`` polls where the
    server's timer would, just past each live deadline, and ends with one
    poll at ``polls[-1]``.
    """
    monitor.now()  # pin the epoch at clock 0: explicit arrivals line up
    events = []
    monitor.subscribe(events.append)
    # After every poll: the delta since the previous one — which peers it
    # lists and their counters, the surface a status client sees.
    deltas = []
    heap_sizes = []
    cursor = instance = None

    def poll():
        nonlocal cursor, instance
        monitor.poll()
        doc = monitor.delta_snapshot(cursor, instance, now=clock.t)
        cursor = doc["delta"]["cursor"]
        instance = doc["delta"]["instance"]
        deltas.append(
            (
                {
                    peer: (e["n_datagrams"], e["n_accepted"], e["n_stale"])
                    for peer, e in doc["peers"].items()
                },
                doc["removed"],
            )
        )
        heap_sizes.append(monitor.heap_size)

    pi = 0

    def poll_until(t):
        nonlocal pi
        if schedule == "grid":
            while pi < len(polls) and polls[pi] <= t:
                clock.t = polls[pi]
                poll()
                pi += 1
            return
        while True:
            deadline = monitor.next_deadline()
            if deadline is None or deadline >= t:
                return
            # Strictly past the deadline (expiry is strict), and never
            # before the last arrival: a late beat can leave a deadline
            # behind the clock, which the timer then polls at once.
            clock.t = max(clock.t, math.nextafter(deadline, math.inf))
            poll()

    for t, batch in batches:
        poll_until(t)
        clock.t = t
        payloads = [Heartbeat(s, q, ts).encode() for (s, q, ts) in batch]
        if single:
            for p in payloads:
                monitor.ingest(p, arrival=t)
        else:
            monitor.ingest_many(payloads, [t] * len(payloads))
    poll_until(polls[-1])
    if schedule == "deadline":
        clock.t = polls[-1]
        poll()
    snapshot = monitor.snapshot(now=clock.t)
    trust = {
        peer: {
            det: monitor.is_trusting(peer, det, now=clock.t)
            for det in detectors
        }
        for peer in snapshot["peers"]
    }
    timelines = {
        peer: {
            det: (tl.start, tl.end, tl.initial_trust,
                  tl.times.tolist(), tl.states.tolist())
            for det, tl in per_det.items()
        }
        for peer, per_det in monitor.timelines(clock.t).items()
    }
    return {
        "events": [(e.time, e.peer, e.detector, e.trusting) for e in events],
        "snapshot": {k: v for k, v in snapshot.items() if k != "monitor"},
        "counters": (
            monitor.n_received_total,
            monitor.n_accepted_total,
            monitor.n_stale_total,
            monitor.n_malformed,
        ),
        "trust": trust,
        "timelines": timelines,
        "deltas": deltas,
        "heap_sizes": heap_sizes,
    }


def _assert_same_surface(reference, other, label):
    for key in (
        "events", "counters", "trust", "timelines", "snapshot", "deltas",
        "heap_sizes",
    ):
        assert reference[key] == other[key], (
            f"{label} diverges from scalar reference on {key!r}"
        )


def _assert_modes_agree(batches, polls, schedule="grid"):
    """Every mode's surface equals the scalar reference's; returns it."""
    scalar = _run("scalar", batches, polls, schedule=schedule)
    for mode in MODES[1:]:
        _assert_same_surface(
            scalar, _run(mode, batches, polls, schedule=schedule), mode
        )
    return scalar


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_modes_bitwise_identical(self, seed):
        batches, polls = _generate_workload(seed)
        scalar = _assert_modes_agree(batches, polls)
        assert scalar["events"], "workload produced no transitions"

    @pytest.mark.parametrize("seed", range(6))
    def test_stale_only_batches_between_polls(self, seed):
        """Polls interleaved with batches of nothing but stale replays:
        per-peer counters and the peers each delta lists must match the
        scalar reference in every mode, not only the events."""
        batches, polls = _generate_workload(seed, stale_only=0.4)
        scalar = _assert_modes_agree(batches, polls)
        assert scalar["counters"][2] > 0, "workload sent no stale beats"

    @pytest.mark.parametrize(
        "seed,stale_only", [(s, 0.0) for s in range(8)] + [(s, 0.4) for s in range(6)]
    )
    def test_all_modes_identical_on_the_deadline_schedule(self, seed, stale_only):
        """The two tests above with the polls where the server's timer
        puts them, just past each live deadline."""
        batches, polls = _generate_workload(seed, stale_only=stale_only)
        scalar = _assert_modes_agree(batches, polls, schedule="deadline")
        assert scalar["events"], "workload produced no transitions"

    @pytest.mark.parametrize("seed", range(4))
    def test_deadline_schedule_emits_the_grid_events(self, seed):
        """Moving the polls to the deadlines changes only when an event
        is emitted: the same events (by time and content), counters,
        final snapshot, trust answers and timelines as the grid."""
        batches, polls = _generate_workload(seed, stale_only=0.2)
        grid = _run("scalar", batches, polls)
        timed = _run("scalar", batches, polls, schedule="deadline")
        assert len(timed["deltas"]) > len(polls) / 2, "deadlines never polled"
        assert sorted(timed["events"]) == sorted(grid["events"])
        for key in ("counters", "trust", "timelines", "snapshot"):
            assert timed[key] == grid[key], key

    @pytest.mark.parametrize(
        "name,param",
        [("adaptive-2w-fd", None), ("chen-sync", 0.05), ("histogram", 0.99)],
    )
    def test_new_kernels_solo_bitwise_identical(self, name, param):
        """Each newly-vectorized detector alone, so a kernel bug cannot
        hide behind the transitions of the rest of the suite."""
        batches, polls = _generate_workload(11, n_peers=5, n_batches=60)
        scalar = _run("scalar", batches, polls, detectors=[name])
        assert scalar["events"], "workload produced no transitions"
        _assert_same_surface(
            scalar, _run("vectorized", batches, polls, detectors=[name]),
            f"vectorized[{name}]",
        )

    def test_single_datagram_ingest_matches(self):
        """ingest() (one datagram at a time) through the vectorized engine."""
        batches, polls = _generate_workload(99, n_peers=3, n_batches=25)
        scalar = _run("scalar", batches, polls, single=True)
        vector = _run("vectorized", batches, polls, single=True)
        _assert_same_surface(scalar, vector, "vectorized-single")

    def test_long_run_crosses_window_rebuild_horizon(self):
        """Enough accepted heartbeats per peer to trigger the numpy window
        rebuilds (the compensated-summation refresh) many times over."""
        batches, polls = _generate_workload(7, n_peers=2, n_batches=400)
        scalar = _run("scalar", batches, polls)
        vector = _run("vectorized", batches, polls)
        _assert_same_surface(scalar, vector, "vectorized-long")


class TestArenaIngest:
    def _fill_arena(self, payloads):
        arena = DatagramArena(slots=max(len(payloads), 1))
        for i, p in enumerate(payloads):
            start = i * arena.slot_bytes
            arena.buffer[start : start + len(p)] = p
            arena.lengths[i] = len(p)
        arena.last_fill = len(payloads)
        return arena

    @pytest.mark.parametrize("mode", MODES)
    def test_ingest_arena_matches_ingest_many(self, mode):
        batches, polls = _generate_workload(3, n_peers=4, n_batches=30)
        reference = _run("scalar", batches, polls)

        clock = _Clock()
        monitor = LiveMonitor(
            INTERVAL,
            DETECTORS,
            PARAMS,
            clock=clock,
            ingest_mode=mode,
        )
        monitor.now()
        events = []
        monitor.subscribe(events.append)
        pi = 0
        for t, batch in batches:
            while pi < len(polls) and polls[pi] <= t:
                clock.t = polls[pi]
                monitor.poll()
                pi += 1
            clock.t = t
            arena = self._fill_arena(
                [Heartbeat(s, q, ts).encode() for (s, q, ts) in batch]
            )
            monitor.ingest_arena(arena)
        while pi < len(polls):
            clock.t = polls[pi]
            monitor.poll()
            pi += 1
        got = [(e.time, e.peer, e.detector, e.trusting) for e in events]
        assert got == reference["events"]
        snap = {
            k: v
            for k, v in monitor.snapshot(now=clock.t).items()
            if k != "monitor"
        }
        assert snap == reference["snapshot"]
        assert monitor.n_zero_copy_datagrams == sum(
            len(b) for _, b in batches
        )

    def test_arena_with_garbage_slots(self):
        monitor = LiveMonitor(
            INTERVAL, ["2w-fd"], {"2w-fd": 0.05}, ingest_mode="vectorized"
        )
        good = Heartbeat("p", 1, 0.0).encode()
        arena = self._fill_arena([b"garbage", good, b"", b"2WFDxx"])
        assert monitor.ingest_arena(arena) == 1
        assert monitor.n_malformed == 3
        assert monitor.n_accepted_total == 1


class TestArrayFallback:
    """numpy absent: build_engine degrades to the array-module engine."""

    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(ingest_mod, "_HAVE_NUMPY", False)

    def test_fallback_engine_selected(self, no_numpy):
        monitor = LiveMonitor(
            INTERVAL, DETECTORS, PARAMS, ingest_mode="vectorized"
        )
        assert isinstance(monitor._engine, ingest_mod.ArrayIngestEngine)

    @pytest.mark.parametrize("seed", range(3))
    def test_fallback_matches_scalar(self, no_numpy, seed):
        # Modest workload: under the rebuild horizon the fallback's
        # sequential summation is bit-identical to the scalar path (the
        # documented divergence is pairwise-vs-sequential at rebuild).
        batches, polls = _generate_workload(seed, n_peers=4, n_batches=30)
        scalar = _run("scalar", batches, polls)
        fallback = _run("vectorized", batches, polls)
        _assert_same_surface(scalar, fallback, "array-fallback")


class TestSlotGrowth:
    """Property tests for the peer-slot growth paths: a bank that grows
    mid-stream must keep every existing row bitwise equal to a scalar
    ``SlidingWindow`` mirror, and fresh rows must behave as empty windows.
    The growth plan hits the boundaries: grow-to-same (no-op), grow-by-one,
    and a shrink request (must be refused without touching state)."""

    GROW_PLAN = [1, 1, 2, 3, 3, 5, 8, 13]

    @pytest.mark.parametrize("capacity", [1, 2, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_window_bank_grow_boundaries(self, capacity, seed):
        np = ingest_mod.np
        rng = random.Random(seed)
        bank = ingest_mod._WindowBank(capacity, 1)
        wins = []
        for target in self.GROW_PLAN:
            bank.grow(target)
            while len(wins) < target:
                wins.append(SlidingWindow(capacity))
            assert bank.buf.shape == (len(wins), capacity)
            idx = np.arange(len(wins))
            for _ in range(capacity + 2):  # cross the rebuild horizon
                vals = [rng.uniform(0.0, 1.0) for _ in wins]
                bank.push(idx, np.asarray(vals))
                for w, v in zip(wins, vals):
                    w.push(v)
            for p, w in enumerate(wins):
                self._assert_row_equal(bank, p, w, list_of=np.ndarray)
        # Shrink request: refused, arrays untouched (identity, not copy).
        buf = bank.buf
        bank.grow(len(wins) - 3)
        assert bank.buf is buf

    @pytest.mark.parametrize("capacity", [1, 2, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_array_bank_grow_boundaries(self, capacity, seed):
        # The fallback bank's rebuild reduces left-to-right while the
        # scalar window's uses numpy's reduction — a documented rounding
        # divergence — so running sums get a tight approx; everything
        # else (ring contents, cursors, baselines) stays exact, and the
        # grow operation itself is asserted bit-preserving below.
        rng = random.Random(seed)
        bank = ingest_mod._ArrayBank(capacity)
        wins = []
        for target in self.GROW_PLAN:
            before = [
                (list(bank.buf[p]), bank.count[p], bank.nxt[p],
                 bank.baseline[p], bank.sum[p], bank.sumsq[p], bank.psr[p])
                for p in range(len(bank.count))
            ]
            bank.grow_to(target)
            after = [
                (list(bank.buf[p]), bank.count[p], bank.nxt[p],
                 bank.baseline[p], bank.sum[p], bank.sumsq[p], bank.psr[p])
                for p in range(len(before))
            ]
            assert after == before, "grow_to disturbed an existing row"
            while len(wins) < target:
                wins.append(SlidingWindow(capacity))
            assert len(bank.count) == len(wins)
            assert len(bank.buf) == len(wins)
            for _ in range(capacity + 2):
                for p, w in enumerate(wins):
                    v = rng.uniform(0.0, 1.0)
                    bank.push(p, v)
                    w.push(v)
            for p, w in enumerate(wins):
                self._assert_row_equal(bank, p, w, exact_sums=False)
        # grow_to is idempotent at the current size.
        n = len(bank.count)
        bank.grow_to(n)
        assert len(bank.count) == n

    @staticmethod
    def _assert_row_equal(bank, p, w, list_of=None, exact_sums=True):
        assert list(bank.buf[p]) == w._buffer, f"row {p} ring buffer"
        assert int(bank.count[p]) == w._count
        assert int(bank.nxt[p]) == w._next
        assert float(bank.baseline[p]) == w._baseline
        if exact_sums:
            assert float(bank.sum[p]) == w._sum
            assert float(bank.sumsq[p]) == w._sumsq
        else:
            assert float(bank.sum[p]) == pytest.approx(w._sum, rel=1e-12)
            assert float(bank.sumsq[p]) == pytest.approx(w._sumsq, rel=1e-12)
        assert int(bank.psr[p]) == w._pushes_since_rebuild
        if list_of is not None:
            assert isinstance(bank.buf[p], list_of)

    def test_window_bank_new_rows_start_empty(self):
        np = ingest_mod.np
        bank = ingest_mod._WindowBank(4, 2)
        bank.push(np.array([0, 1]), np.array([5.0, 7.0]))
        bank.grow(5)
        for p in range(2, 5):
            assert int(bank.count[p]) == 0
            assert bank.pre_mean(np.array([p]))[0] != bank.pre_mean(
                np.array([p])
            )[0]  # NaN encodes the scalar None
        # And the pre-existing rows survived the reallocation.
        assert float(bank.mean(np.array([0]))[0]) == 5.0
        assert float(bank.mean(np.array([1]))[0]) == 7.0


class TestConstructionErrors:
    def test_vectorized_requires_shared_estimation(self):
        with pytest.raises(ValueError, match="shared"):
            LiveMonitor(
                INTERVAL,
                ["2w-fd"],
                {"2w-fd": 0.05},
                estimation="private",
                ingest_mode="vectorized",
            )

    @pytest.mark.parametrize("name", ["adaptive-2w-fd", "chen-sync", "histogram"])
    def test_every_registry_detector_constructs_vectorized(self, name):
        """The former unvectorizable trio now has columnar kernels."""
        LiveMonitor(
            INTERVAL,
            [name],
            {name: 0.05} if name == "chen-sync" else (
                {name: 0.99} if name == "histogram" else None
            ),
            ingest_mode="vectorized",
        )

    def test_custom_detector_class_fails_fast(self):
        """Only detector classes outside the registry lack a kernel; the
        message must name the offender and the modes that do accept it."""

        class HomeGrownDetector:
            pass

        with pytest.raises(ValueError) as exc:
            ingest_mod._build_specs({"homegrown": HomeGrownDetector()})
        msg = str(exc.value)
        assert "homegrown" in msg
        assert "HomeGrownDetector" in msg
        assert "batched" in msg and "scalar" in msg

    def test_other_modes_accept_all_detectors(self):
        LiveMonitor(INTERVAL, ["adaptive-2w-fd"])
