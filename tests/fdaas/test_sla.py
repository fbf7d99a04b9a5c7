"""SLA enforcement: edge-triggered breaches against rolling QoS estimates."""

import pytest

from repro.fdaas.sla import SLAEvent, SLATracker
from repro.fdaas.tenants import SLATargets, Tenant, TenantRegistry
from repro.live.monitor import LiveEvent, LiveMonitor
from repro.live.wire import Heartbeat
from repro.obs import Observability

INTERVAL = 0.1


def _stack(*tenants):
    obs = Observability(trace=False)
    monitor = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.5}, obs=obs)
    registry = TenantRegistry()
    for tenant in tenants:
        registry.register(tenant)
    tracker = SLATracker(registry, monitor, observability=obs)
    return monitor, registry, tracker, obs


def _beat(monitor, sender, seq, arrival):
    payload = Heartbeat(sender=sender, seq=seq, timestamp=arrival).encode()
    assert monitor.ingest(payload, arrival=arrival) is not None


def _suspect(obs, peer, t):
    obs.qos.on_event(LiveEvent(time=t, peer=peer, detector="2w-fd", trusting=False))


def _trust(obs, peer, t):
    obs.qos.on_event(LiveEvent(time=t, peer=peer, detector="2w-fd", trusting=True))


class TestConstruction:
    def test_requires_qos_health(self):
        monitor = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.5})  # obs off
        with pytest.raises(ValueError, match="QoS health"):
            SLATracker(TenantRegistry(), monitor)


class TestAccuracyFloor:
    def test_p_a_breach_and_recovery(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(p_a=0.9))
        )
        _beat(monitor, "acme/web", 1, 0.0)  # observe_start at t=0
        _suspect(obs, "acme/web", 0.0)
        _trust(obs, "acme/web", 1.0)  # suspected [0,1), trusting after
        events = tracker.evaluate(now=2.0)  # p_a = 1/2 < 0.9
        assert [e.kind for e in events] == ["breach"]
        breach = events[0]
        assert (breach.tenant, breach.peer, breach.metric) == ("acme", "web", "p_a")
        assert breach.value == pytest.approx(0.5)
        assert breach.limit == 0.9

        # Sustained breach: no second event (edge-triggered).
        assert tracker.evaluate(now=3.0) == []

        # Trust accumulates; the floor is met again -> one recovery.
        events = tracker.evaluate(now=100.0)  # p_a = 99/100
        assert [e.kind for e in events] == ["recovery"]
        assert tracker.status()["tenants"]["acme"]["breached"] is False


class TestMistakeBounds:
    def test_t_mr_breach(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(t_mr=0.05))
        )
        _beat(monitor, "acme/web", 1, 0.0)
        for k in range(3):  # three mistakes in ten seconds = 0.3/s
            _suspect(obs, "acme/web", 1.0 + k)
            _trust(obs, "acme/web", 1.2 + k)
        events = tracker.evaluate(now=10.0)
        assert [(e.metric, e.kind) for e in events] == [("t_mr", "breach")]
        assert events[0].value == pytest.approx(0.3)

    def test_t_m_breach(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(t_m=0.1))
        )
        _beat(monitor, "acme/web", 1, 0.0)
        _suspect(obs, "acme/web", 1.0)
        _trust(obs, "acme/web", 3.0)  # one two-second mistake
        events = tracker.evaluate(now=4.0)
        assert [(e.metric, e.kind) for e in events] == [("t_m", "breach")]
        assert events[0].value == pytest.approx(2.0)


class TestDetectionBound:
    def test_projected_t_d_breach(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(t_d=1e-6))
        )
        for k in range(1, 6):
            _beat(monitor, "acme/web", k, k * INTERVAL)
        _trust(obs, "acme/web", 5 * INTERVAL)  # make the key observable
        events = tracker.evaluate(now=1.0)
        t_d = [e for e in events if e.metric == "t_d"]
        assert len(t_d) == 1 and t_d[0].kind == "breach"
        assert t_d[0].value > 0

    def test_loose_t_d_does_not_breach(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(t_d=1e6))
        )
        for k in range(1, 6):
            _beat(monitor, "acme/web", k, k * INTERVAL)
        _trust(obs, "acme/web", 5 * INTERVAL)
        assert tracker.evaluate(now=1.0) == []


class TestTenantIsolation:
    def test_breach_fires_only_against_own_targets(self):
        monitor, _, tracker, obs = _stack(
            Tenant("strict", sla=SLATargets(p_a=0.99)),
            Tenant("loose", sla=SLATargets(p_a=0.01)),
        )
        for sender in ("strict/web", "loose/web"):
            _beat(monitor, sender, 1, 0.0)
            _suspect(obs, sender, 0.0)
            _trust(obs, sender, 1.0)  # identical QoS: p_a = 0.5 at now=2
        events = tracker.evaluate(now=2.0)
        assert [(e.tenant, e.kind) for e in events] == [("strict", "breach")]
        status = tracker.status()
        assert status["tenants"]["strict"]["breached"] is True
        assert status["tenants"]["loose"]["breached"] is False

    def test_unnamespaced_and_unregistered_peers_ignored(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(p_a=0.99))
        )
        _beat(monitor, "bare-peer", 1, 0.0)
        _beat(monitor, "ghost/web", 2, 0.0)
        for sender in ("bare-peer", "ghost/web"):
            _suspect(obs, sender, 0.0)
            _trust(obs, sender, 1.0)  # p_a = 0.5: would breach if enforced
        assert tracker.evaluate(now=2.0) == []


class TestLifecycle:
    def test_vanished_series_recovers(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(p_a=0.9))
        )
        _beat(monitor, "acme/web", 1, 0.0)
        _suspect(obs, "acme/web", 0.0)
        _trust(obs, "acme/web", 1.0)
        assert [e.kind for e in tracker.evaluate(now=2.0)] == ["breach"]
        obs.qos.forget("acme/web")  # departed peer
        events = tracker.evaluate(now=3.0)
        assert [e.kind for e in events] == ["recovery"]
        assert tracker.status()["tenants"]["acme"]["breached"] is False

    def test_event_dict_shape(self):
        event = SLAEvent(
            time=1.0,
            tenant="acme",
            peer="web",
            detector="2w-fd",
            metric="p_a",
            kind="breach",
            value=0.5,
            limit=0.9,
        )
        doc = event.as_dict()
        assert doc["tenant"] == "acme" and doc["kind"] == "breach"
        import json

        json.dumps(doc)  # must be JSON-able as-is

    def test_breach_metrics_exported(self):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(p_a=0.9))
        )
        _beat(monitor, "acme/web", 1, 0.0)
        _suspect(obs, "acme/web", 0.0)
        _trust(obs, "acme/web", 1.0)
        tracker.evaluate(now=2.0)
        text = obs.render_metrics()
        assert "repro_fdaas_sla_breaches_total" in text
        assert 'repro_fdaas_sla_breached{tenant="acme"} 1' in text


class TestEvaluationScope:
    """Rolling metrics are computed only for enforced tenants' series."""

    def _spy(self, obs, monkeypatch):
        calls = []
        metrics = obs.qos.metrics

        def spy(peer, detector, now):
            calls.append(peer)
            return metrics(peer, detector, now)

        monkeypatch.setattr(obs.qos, "metrics", spy)
        return calls

    def test_tenants_without_targets_are_skipped(self, monkeypatch):
        monitor, _, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(p_a=0.9)),
            Tenant("free"),
            Tenant("empty", sla=SLATargets()),
        )
        for sender in ("acme/web", "free/web", "empty/web", "bare-peer"):
            _beat(monitor, sender, 1, 0.0)
            _suspect(obs, sender, 0.0)
            _trust(obs, sender, 1.0)
        calls = self._spy(obs, monkeypatch)
        events = tracker.evaluate(now=2.0)
        assert [(e.tenant, e.kind) for e in events] == [("acme", "breach")]
        assert calls == ["acme/web"]

    def test_no_enforced_tenant_walks_nothing(self, monkeypatch):
        monitor, _, tracker, obs = _stack(Tenant("free"))
        _beat(monitor, "free/web", 1, 0.0)
        _suspect(obs, "free/web", 0.0)
        calls = self._spy(obs, monkeypatch)
        monkeypatch.setattr(
            type(obs.qos), "keys", property(lambda self: pytest.fail("keys walked"))
        )
        assert tracker.evaluate(now=2.0) == []
        assert calls == []
        assert tracker.n_evaluations == 1

    def test_dropping_the_last_targets_still_recovers(self):
        """With no tenant enforcing any more, a series that was breached
        still gets its recovery (then the pass has nothing left to do)."""
        monitor, registry, tracker, obs = _stack(
            Tenant("acme", sla=SLATargets(p_a=0.9))
        )
        _beat(monitor, "acme/web", 1, 0.0)
        _suspect(obs, "acme/web", 0.0)
        _trust(obs, "acme/web", 1.0)
        assert [e.kind for e in tracker.evaluate(now=2.0)] == ["breach"]
        registry.register(Tenant("acme"))  # targets withdrawn
        events = tracker.evaluate(now=3.0)
        assert [(e.peer, e.metric, e.kind) for e in events] == [
            ("web", "p_a", "recovery")
        ]
        assert tracker.evaluate(now=4.0) == []
        assert tracker.status()["tenants"] == {}
