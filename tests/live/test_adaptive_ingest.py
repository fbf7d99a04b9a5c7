"""Adaptive ingest: controller policy, live-path switching, migration.

``ingest_mode="adaptive"`` picks batched vs vectorized per drain from the
observed fan-in and per-mode drain cost.  The bitwise contract is the
same as every other mode (events/snapshots/trust/timelines identical to
the scalar reference) — but here it must hold across *representation
switches*: the monitor migrates live window state into the columnar
banks on a batched→vectorized switch (``VectorizedIngestEngine.adopt``)
and back out on the reverse (``export``).  These tests force switches at
adversarial points and assert the surface never moves.
"""

import itertools
import random

import pytest

import repro.live.ingest as ingest_mod
from repro.live.adaptive import AdaptiveIngestController
from repro.live.monitor import LiveMonitor
from repro.live.wire import Heartbeat
from repro.obs import Observability, parse_exposition

from tests.live.test_vectorized_ingest import (
    DETECTORS,
    INTERVAL,
    PARAMS,
    _Clock,
    _assert_same_surface,
    _drive,
    _generate_workload,
    _run,
)


# ======================================================================
# Controller policy (pure, no monitor involved)
# ======================================================================


class TestControllerPolicy:
    def test_starts_batched_and_holds_without_signal(self):
        ctl = AdaptiveIngestController()
        assert ctl.mode == "batched"
        assert ctl.decide() == "batched"  # no fan-in EWMA yet

    def test_switches_up_past_fanin_high(self):
        ctl = AdaptiveIngestController(min_dwell=2)
        for _ in range(4):
            ctl.observe("batched", 512, 100, 0.001)
        assert ctl.decide() == "vectorized"
        assert ctl.n_switches == 1

    def test_switches_down_past_fanin_low(self):
        ctl = AdaptiveIngestController(min_dwell=2)
        for _ in range(4):
            ctl.observe("batched", 512, 100, 0.001)
        ctl.decide()
        for _ in range(12):
            ctl.observe("vectorized", 512, 4, 0.001)
        assert ctl.decide() == "batched"
        assert ctl.n_switches == 2

    def test_hysteresis_band_holds_mode(self):
        """Fan-in between the thresholds: no cost signal, no switch —
        in either direction."""
        ctl = AdaptiveIngestController(fanin_high=32, fanin_low=16, min_dwell=1)
        for _ in range(8):
            ctl.observe("batched", 512, 24, 0.001)
        assert ctl.decide() == "batched"
        ctl.mode = "vectorized"
        assert ctl.decide() == "vectorized"

    def test_cost_override_inside_band(self):
        """Mid-band fan-in, but the other path measured clearly cheaper:
        the cost signal breaks the tie."""
        ctl = AdaptiveIngestController(
            fanin_high=32, fanin_low=16, min_dwell=1, cost_margin=1.2
        )
        ctl.observe("batched", 512, 24, 0.512)  # 1 ms/datagram
        ctl.observe("vectorized", 512, 24, 0.0512)  # 0.1 ms/datagram
        ctl.mode = "batched"
        assert ctl.decide() == "vectorized"

    def test_cost_override_respects_margin(self):
        """A marginally-cheaper other path (< cost_margin) does not churn."""
        ctl = AdaptiveIngestController(
            fanin_high=32, fanin_low=16, min_dwell=1, cost_margin=2.0
        )
        ctl.observe("batched", 512, 24, 0.512)
        ctl.observe("vectorized", 512, 24, 0.400)  # only ~1.3x cheaper
        ctl.mode = "batched"
        assert ctl.decide() == "batched"

    def test_cost_switches_down_even_above_fanin_high(self):
        """The measured cost overrides fan-in in either regime: a host
        where batched wins at fan-in 50 must not stay pinned vectorized
        just because 50 sits above the up-threshold."""
        ctl = AdaptiveIngestController(
            fanin_high=32, fanin_low=16, min_dwell=1, cost_margin=1.2
        )
        ctl.observe("vectorized", 512, 50, 0.512)
        ctl.observe("batched", 512, 50, 0.0512)
        ctl.mode = "vectorized"
        assert ctl.decide() == "batched"

    def test_measured_cost_vetoes_fanin_up_switch(self):
        """After that down-switch the fan-in trigger must not bounce the
        mode back up: the veto holds while vectorized measures worse."""
        ctl = AdaptiveIngestController(
            fanin_high=32, fanin_low=16, min_dwell=1, cost_margin=1.2
        )
        ctl.observe("vectorized", 512, 50, 0.512)
        ctl.observe("batched", 512, 50, 0.0512)
        ctl.mode = "batched"
        assert ctl.decide() == "batched"  # f=50 >= 32, but veto holds
        assert ctl.n_switches == 0

    def test_veto_yields_deep_past_the_band(self):
        """Fan-in doubled past the band: the stale measurement came from
        another regime, so the fan-in trigger wins a re-trial."""
        ctl = AdaptiveIngestController(
            fanin_high=32, fanin_low=16, min_dwell=1, cost_margin=1.2
        )
        ctl.observe("vectorized", 512, 50, 0.512)
        for _ in range(30):
            ctl.observe("batched", 512, 200, 0.0512)
        assert ctl.fanin_ewma > 64.0
        ctl.mode = "batched"
        assert ctl.decide() == "vectorized"

    def test_min_dwell_bounds_switch_frequency(self):
        ctl = AdaptiveIngestController(min_dwell=10)
        for _ in range(5):
            ctl.observe("batched", 512, 100, 0.001)
        assert ctl.decide() == "batched"  # only 5 drains since "switch"
        for _ in range(5):
            ctl.observe("batched", 512, 100, 0.001)
        assert ctl.decide() == "vectorized"

    def test_pinned_without_columnar_engine(self):
        ctl = AdaptiveIngestController(columnar_available=False)
        for _ in range(50):
            ctl.observe("batched", 512, 500, 0.001)
        assert ctl.decide() == "batched"
        assert ctl.n_switches == 0

    def test_singles_barely_move_the_ewma(self):
        """EWMA weights are datagram-count weighted: one stray single
        cannot drag the fan-in average of a steady 512-datagram stream."""
        ctl = AdaptiveIngestController()
        for _ in range(20):
            ctl.observe("batched", 512, 200, 0.001)
        before = ctl.fanin_ewma
        ctl.observe("batched", 1, 1, 0.0001)
        assert ctl.fanin_ewma == pytest.approx(before, rel=0.001)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="fanin_low"):
            AdaptiveIngestController(fanin_high=10, fanin_low=10)
        with pytest.raises(ValueError, match="cost_margin"):
            AdaptiveIngestController(cost_margin=0.9)

    def test_as_dict_round_trip(self):
        ctl = AdaptiveIngestController()
        ctl.observe("batched", 512, 40, 0.001)
        d = ctl.as_dict()
        assert d["mode"] == "batched"
        assert d["drains_batched"] == 1
        assert d["fanin_ewma"] == pytest.approx(40.0)
        assert d["cost_vectorized"] is None


# ======================================================================
# Live-path switching: forced migrations must be invisible on the surface
# ======================================================================


class _ScriptedController:
    """Drop-in controller whose decisions follow a fixed script — lets the
    tests force adopt/export migrations at chosen drain boundaries."""

    def __init__(self, sequence):
        self._it = itertools.cycle(sequence)
        self.mode = "batched"
        self.columnar_available = True

    def decide(self):
        self.mode = next(self._it)
        return self.mode

    def observe(self, mode, n, fanin, seconds):
        pass

    def as_dict(self):
        return {"mode": self.mode, "scripted": True}


def _run_scripted(script, batches, polls, detectors=DETECTORS):
    """Adaptive-mode run whose per-drain path follows ``script``."""
    clock = _Clock()
    monitor = LiveMonitor(
        INTERVAL,
        detectors,
        {k: v for k, v in PARAMS.items() if k in detectors},
        clock=clock,
        ingest_mode="adaptive",
        adaptive_controller=_ScriptedController(script),
    )
    return monitor, _drive(monitor, clock, batches, polls, detectors)


class TestForcedMigration:
    @pytest.mark.parametrize(
        "script",
        [
            ["batched", "vectorized"],  # flip every drain: worst case
            ["batched", "batched", "vectorized", "vectorized", "vectorized"],
            ["vectorized", "batched", "batched"],
        ],
        ids=["every-drain", "2-3-cadence", "starts-columnar"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_switch_cadences_bitwise_identical(self, script, seed):
        batches, polls = _generate_workload(seed)
        scalar = _run("scalar", batches, polls)
        assert scalar["events"], "workload produced no transitions"
        monitor, surface = _run_scripted(script, batches, polls)
        _assert_same_surface(scalar, surface, f"adaptive[{script}]")
        if len(set(script)) > 1:
            assert monitor.n_mode_switches > 0
            assert monitor.ingest_drains["batched"] > 0
            assert monitor.ingest_drains["vectorized"] > 0

    def test_switch_after_long_columnar_run_crosses_rebuild(self):
        """Export after enough pushes to trigger the columnar rebuilds,
        then keep going batched: the migrated windows must carry the
        rebuilt sums bit-for-bit."""
        batches, polls = _generate_workload(7, n_peers=2, n_batches=400)
        half = ["vectorized"] * 200 + ["batched"] * 10_000
        scalar = _run("scalar", batches, polls)
        _, surface = _run_scripted(half, batches, polls)
        _assert_same_surface(scalar, surface, "adaptive-long-export")

    def test_direct_set_columnar_round_trip(self):
        """adopt → export with no columnar drain in between is a no-op on
        the observable surface (migration is lossless even when nothing
        happens while columnar)."""
        batches, polls = _generate_workload(5, n_peers=4, n_batches=20)
        scalar = _run("scalar", batches, polls)
        clock = _Clock()
        monitor = LiveMonitor(
            INTERVAL, DETECTORS, PARAMS, clock=clock, ingest_mode="adaptive",
            adaptive_controller=_ScriptedController(["batched"]),
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
            payloads = [Heartbeat(s, q, ts).encode() for (s, q, ts) in batch]
            monitor.ingest_many(payloads, [t] * len(payloads))
            monitor._set_columnar(True)
            monitor._set_columnar(False)
        while pi < len(polls):
            clock.t = polls[pi]
            monitor.poll()
            pi += 1
        got = [(e.time, e.peer, e.detector, e.trusting) for e in events]
        assert got == scalar["events"]
        assert monitor.n_mode_switches == 2 * len(batches)


# ======================================================================
# The real controller driving a real fan-in ramp
# ======================================================================


def _ramp_workload(phases, seed=13):
    """Batches across (n_peers, n_rounds) phases; one batch per round."""
    rng = random.Random(seed)
    seqs = {}
    out = []
    t = 0.0
    for n_peers, n_rounds in phases:
        for _ in range(n_rounds):
            t += INTERVAL
            batch = []
            for p in range(n_peers):
                seqs[p] = seqs.get(p, 0) + 1
                send = t + rng.gauss(0, 0.003)
                batch.append((f"peer-{p:04d}", seqs[p], send))
            out.append((t, batch))
    return out


class TestLiveAdaptation:
    def _drive(self, monitor, clock, workload):
        events = []
        monitor.now()
        monitor.subscribe(events.append)
        for t, batch in workload:
            clock.t = t
            payloads = [Heartbeat(s, q, ts).encode() for (s, q, ts) in batch]
            monitor.ingest_many(payloads, [t] * len(payloads))
            clock.t = t + 0.001
            monitor.poll()
        return events

    def test_ramp_switches_up_and_surfaces_match(self):
        workload = _ramp_workload([(4, 20), (120, 30)])
        clock_a, clock_b = _Clock(), _Clock()
        # React fast enough for a short test workload; the huge
        # cost_margin disables the measured-cost arbitration so the
        # decision sequence is pure fan-in hysteresis — deterministic,
        # not host-timing dependent.
        adaptive = LiveMonitor(
            INTERVAL, ["2w-fd", "phi"], {"2w-fd": 0.05, "phi": 3.0},
            clock=clock_a, ingest_mode="adaptive",
            adaptive_controller=AdaptiveIngestController(
                min_dwell=2, smoothing=16.0, cost_margin=1e9
            ),
        )
        batched = LiveMonitor(
            INTERVAL, ["2w-fd", "phi"], {"2w-fd": 0.05, "phi": 3.0},
            clock=clock_b, ingest_mode="batched",
        )
        ea = self._drive(adaptive, clock_a, workload)
        eb = self._drive(batched, clock_b, workload)
        assert [(e.time, e.peer, e.detector, e.trusting) for e in ea] == [
            (e.time, e.peer, e.detector, e.trusting) for e in eb
        ]
        ctl = adaptive.adaptive_controller
        assert ctl.mode == "vectorized"
        assert adaptive.n_mode_switches >= 1
        assert adaptive.ingest_drains["batched"] > 0
        assert adaptive.ingest_drains["vectorized"] > 0
        assert adaptive.columnar_active

    def test_fanin_counting_per_drain(self):
        clock = _Clock()
        monitor = LiveMonitor(
            INTERVAL, ["2w-fd"], {"2w-fd": 0.05},
            clock=clock, ingest_mode="adaptive",
        )
        monitor.now()
        clock.t = 0.1
        # 3 distinct peers, 5 datagrams: fan-in counts peers, not rows.
        batch = [
            Heartbeat("a", 1, 0.1), Heartbeat("b", 1, 0.1),
            Heartbeat("a", 2, 0.1), Heartbeat("c", 1, 0.1),
            Heartbeat("b", 2, 0.1),
        ]
        payloads = [h.encode() for h in batch]
        monitor.ingest_many(payloads, [0.1] * 5)
        assert monitor.last_drain_fanin == 3
        assert monitor.adaptive_controller.fanin_ewma == pytest.approx(3.0)

    def test_monitor_load_reports_controller(self):
        monitor = LiveMonitor(
            INTERVAL, ["2w-fd"], {"2w-fd": 0.05}, ingest_mode="adaptive"
        )
        monitor.ingest_many([Heartbeat("p", 1, 0.0).encode()], [0.0])
        load = monitor.snapshot()["monitor"]
        assert load["ingest_mode"] == "adaptive"
        assert load["columnar_active"] is False
        assert load["n_mode_switches"] == 0
        assert load["ingest_drains"]["batched"] == 1
        assert load["last_drain_fanin"] == 1
        ctl = load["ingest_controller"]
        assert ctl["mode"] == "batched"
        assert ctl["drains_batched"] == 1

    def test_supplied_controller_requires_adaptive_mode(self):
        with pytest.raises(ValueError, match="adaptive_controller"):
            LiveMonitor(
                INTERVAL, ["2w-fd"], {"2w-fd": 0.05},
                ingest_mode="batched",
                adaptive_controller=AdaptiveIngestController(),
            )

    def test_obs_exports_mode_drain_counters(self):
        clock = [0.0]
        monitor = LiveMonitor(
            INTERVAL, ["2w-fd"], {"2w-fd": 0.05},
            clock=lambda: clock[0],
            ingest_mode="adaptive",
            obs=Observability(),
        )
        monitor.now()
        clock[0] = 0.1
        monitor.ingest_many(
            [Heartbeat("p", 1, 0.1).encode(), Heartbeat("q", 1, 0.1).encode()],
            [0.1, 0.1],
        )
        fams = parse_exposition(monitor.render_metrics())
        drains = fams["repro_ingest_mode_drains_total"]
        assert drains["type"] == "counter"
        key = ("repro_ingest_mode_drains_total", (("mode", "batched"),))
        assert drains["samples"][key] == 1.0
        hist = fams["repro_ingest_drain_seconds"]
        assert hist["type"] == "histogram"
        key = ("repro_ingest_drain_seconds_count", (("mode", "batched"),))
        assert hist["samples"][key] == 1.0


# ======================================================================
# numpy-free degradation
# ======================================================================


class TestNoNumpyFallback:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(ingest_mod, "_HAVE_NUMPY", False)

    def test_pinned_to_batched(self, no_numpy):
        monitor = LiveMonitor(
            INTERVAL, DETECTORS, PARAMS, ingest_mode="adaptive"
        )
        assert monitor._engine is None
        assert monitor.adaptive_controller.columnar_available is False

    def test_supplied_controller_is_pinned_too(self, no_numpy):
        """A caller-tuned controller cannot re-enable the columnar path
        the monitor could not build."""
        ctl = AdaptiveIngestController(min_dwell=1)
        monitor = LiveMonitor(
            INTERVAL, DETECTORS, PARAMS, ingest_mode="adaptive",
            adaptive_controller=ctl,
        )
        assert monitor.adaptive_controller is ctl
        assert ctl.columnar_available is False

    @pytest.mark.parametrize("seed", range(2))
    def test_still_bitwise_identical(self, no_numpy, seed):
        batches, polls = _generate_workload(seed, n_peers=4, n_batches=30)
        scalar = _run("scalar", batches, polls)
        _assert_same_surface(
            scalar, _run("adaptive", batches, polls), "adaptive-no-numpy"
        )

    def test_still_validates_detector_set(self, no_numpy):
        """No engine to build, but the kernel-coverage check still runs so
        behavior cannot silently differ from the numpy install."""
        LiveMonitor(INTERVAL, DETECTORS, PARAMS, ingest_mode="adaptive")
