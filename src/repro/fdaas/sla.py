"""Live SLA enforcement: tenant QoS targets vs. rolling QoS estimates.

The paper's QoS contract (§II) is specified *a priori* — T_D^U, T_MR^U,
T_M^U bounds fed to the configurator.  A service must also enforce it *a
posteriori*: is each tenant actually getting the QoS it registered for?
:class:`SLATracker` closes that loop by walking the monitor's rolling
:class:`repro.obs.qos.QoSHealth` estimates on every evaluation tick,
attributing each ``tenant/peer`` stream to its tenant, and comparing:

- ``t_mr`` — rolling mistake rate vs. the T_MR^U upper bound;
- ``t_m`` — rolling mean mistake duration vs. the T_M^U upper bound;
- ``p_a`` — rolling query accuracy vs. the registered *lower* bound
  (P_A is "probability the detector is correct when queried": higher is
  better, so the enforceable target is a floor);
- ``t_d`` — the *projected* detection time, ``suspicion_deadline −
  last_arrival`` from live monitor state, vs. the T_D^U upper bound.
  T_D is unobservable without ground truth about real crashes, but the
  current deadline margin is exactly the worst-case detection time if
  the peer crashed immediately after its last heartbeat — the same
  projection the monitor's ``repro_detector_t_d_seconds`` gauge exports.

Breaches are *edge-triggered*: a metric crossing its bound emits one
``breach`` :class:`SLAEvent`, and coming back within bound emits one
``recovery`` — the tracker keeps per-(tenant, peer, detector, metric)
state so a sustained breach does not spam an event per tick.  Events go
to the returned list (and thence the :class:`repro.fdaas.subscribe`
broker); current breach state is queryable per tenant via
:meth:`status` and exported as ``repro_fdaas_sla_breaches_total`` /
``repro_fdaas_sla_breached`` metrics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.fdaas.tenants import TenantRegistry, split_peer

__all__ = ["SLAEvent", "SLATracker"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SLAEvent:
    """One SLA boundary crossing for one (tenant, peer, detector, metric)."""

    time: float
    tenant: str
    peer: str
    detector: str
    metric: str  # "t_d" | "t_mr" | "t_m" | "p_a"
    kind: str  # "breach" | "recovery"
    value: float
    limit: float

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "tenant": self.tenant,
            "peer": self.peer,
            "detector": self.detector,
            "metric": self.metric,
            "kind": self.kind,
            "value": self.value,
            "limit": self.limit,
        }


class SLATracker:
    """Evaluates every tenant's targets against live QoS estimates.

    Parameters
    ----------
    registry:
        Tenant policy source; only tenants with registered
        :class:`~repro.fdaas.tenants.SLATargets` are evaluated.
    monitor:
        The :class:`~repro.live.monitor.LiveMonitor` being served.  Must
        have been constructed with observability including QoS health —
        the tracker has nothing to enforce against otherwise.
    observability:
        Optional; when given, breach totals are exported as
        ``repro_fdaas_sla_breaches_total{tenant,metric}`` and the count
        of currently-breached series as
        ``repro_fdaas_sla_breached{tenant}``.
    """

    def __init__(self, registry: TenantRegistry, monitor, *, observability=None):
        obs = monitor.observability
        if obs is None or obs.qos is None:
            raise ValueError(
                "SLA enforcement needs a monitor with QoS health enabled "
                "(LiveMonitor(..., obs=Observability(qos_health=True)))"
            )
        self._registry = registry
        self._monitor = monitor
        self._qos = obs.qos
        # (tenant, peer, detector, metric) -> (value, limit) while breached.
        self._breached: Dict[Tuple[str, str, str, str], Tuple[float, float]] = {}
        self.n_evaluations = 0
        self.n_breaches = 0
        self.n_recoveries = 0
        self.breach_totals: Dict[Tuple[str, str], int] = {}
        self._m_breaches = None
        self._g_breached = None
        if observability is not None:
            self._bind_obs(observability)

    def evaluate(self, now: float | None = None) -> List[SLAEvent]:
        """One enforcement tick; returns the boundary crossings it found."""
        if now is None:
            now = self._monitor.now()
        self.n_evaluations += 1
        events: List[SLAEvent] = []
        enforced = {
            tenant.tenant_id: tenant.sla
            for tenant in self._registry
            if tenant.sla is not None and tenant.sla.enforced
        }
        if not enforced and not self._breached:
            return events  # nothing to evaluate and nothing to recover
        # Rolling metrics are computed only for the series of enforced
        # tenants: the others would be walked for nothing.
        qos = self._qos
        seen: set = set()
        for sender, detector in qos.keys:
            tenant_id, peer = split_peer(sender)
            sla = enforced.get(tenant_id)
            if sla is None:
                continue
            metrics = qos.metrics(sender, detector, now)
            if metrics is None:
                continue
            for metric, value, limit, breached in (
                ("t_mr", metrics["t_mr"], sla.t_mr, _above(metrics["t_mr"], sla.t_mr)),
                ("t_m", metrics["t_m"], sla.t_m, _above(metrics["t_m"], sla.t_m)),
                ("p_a", metrics["p_a"], sla.p_a, _below(metrics["p_a"], sla.p_a)),
                self._t_d_check(sender, detector, sla),
            ):
                if limit is None or value is None:
                    continue
                key = (tenant_id, peer, detector, metric)
                seen.add(key)
                self._transition(events, now, key, value, limit, breached)
        # Series that vanished from QoS (peer forgotten) while breached:
        # emit the recovery so subscribers are never left with a stale alert.
        for key in [k for k in self._breached if k not in seen]:
            value, limit = self._breached.pop(key)
            self.n_recoveries += 1
            events.append(
                SLAEvent(
                    time=now,
                    tenant=key[0],
                    peer=key[1],
                    detector=key[2],
                    metric=key[3],
                    kind="recovery",
                    value=value,
                    limit=limit,
                )
            )
        return events

    def _t_d_check(self, sender: str, detector: str, sla):
        """The projected-T_D row for the metric table (may be unmeasurable)."""
        if sla.t_d is None:
            return ("t_d", None, None, False)
        state = self._monitor._peers.get(sender)
        if state is None or state.last_arrival is None:
            return ("t_d", None, sla.t_d, False)
        det = state.detectors.get(detector)
        deadline = det.suspicion_deadline if det is not None else None
        if deadline is None:
            return ("t_d", None, sla.t_d, False)
        projected = deadline - state.last_arrival
        return ("t_d", projected, sla.t_d, projected > sla.t_d)

    def _transition(self, events, now, key, value, limit, breached: bool) -> None:
        was = key in self._breached
        if breached and not was:
            self._breached[key] = (value, limit)
            self.n_breaches += 1
            tkey = (key[0], key[3])
            self.breach_totals[tkey] = self.breach_totals.get(tkey, 0) + 1
            kind = "breach"
        elif not breached and was:
            del self._breached[key]
            self.n_recoveries += 1
            kind = "recovery"
        else:
            if was:
                self._breached[key] = (value, limit)  # refresh observed value
            return
        tenant, peer, detector, metric = key
        logger.warning(
            "SLA %s: tenant=%s peer=%s detector=%s %s=%.6g (limit %.6g)",
            kind, tenant, peer, detector, metric, value, limit,
        )
        events.append(
            SLAEvent(
                time=now,
                tenant=tenant,
                peer=peer,
                detector=detector,
                metric=metric,
                kind=kind,
                value=value,
                limit=limit,
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Per-tenant SLA standing for snapshots (`"sla"` key)."""
        tenants: Dict[str, dict] = {}
        for tenant in self._registry:
            if tenant.sla is None or not tenant.sla.enforced:
                continue
            tenants[tenant.tenant_id] = {
                "targets": tenant.sla.as_dict(),
                "breached": False,
                "breaches": [],
            }
        for (tenant_id, peer, detector, metric), (value, limit) in sorted(
            self._breached.items()
        ):
            doc = tenants.get(tenant_id)
            if doc is None:  # tenant deregistered mid-breach
                continue
            doc["breached"] = True
            doc["breaches"].append(
                {
                    "peer": peer,
                    "detector": detector,
                    "metric": metric,
                    "value": value,
                    "limit": limit,
                }
            )
        return {
            "n_evaluations": self.n_evaluations,
            "n_breaches": self.n_breaches,
            "n_recoveries": self.n_recoveries,
            "tenants": tenants,
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _bind_obs(self, observability) -> None:
        reg = observability.registry
        self._m_breaches = reg.counter(
            "repro_fdaas_sla_breaches_total",
            "SLA breach events, by tenant and metric.",
            ("tenant", "metric"),
        )
        self._g_breached = reg.gauge(
            "repro_fdaas_sla_breached",
            "Currently-breached SLA series, by tenant.",
            ("tenant",),
        )
        reg.add_collect_hook(self._obs_collect)

    def _obs_collect(self) -> None:
        for (tenant, metric), count in self.breach_totals.items():
            self._m_breaches.labels(tenant, metric).set_total(count)
        live: Dict[str, int] = {}
        for key in self._breached:
            live[key[0]] = live.get(key[0], 0) + 1
        for tenant in self._registry:
            if tenant.sla is not None and tenant.sla.enforced:
                self._g_breached.labels(tenant.tenant_id).set(
                    live.get(tenant.tenant_id, 0)
                )


def _above(value, limit) -> bool:
    return limit is not None and value is not None and value > limit


def _below(value, limit) -> bool:
    return limit is not None and value is not None and value < limit
