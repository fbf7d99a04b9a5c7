"""repro.fdaas — failure detection as a service (the paper's §V, grown up).

A multi-tenant control plane layered over :mod:`repro.live`:

- :mod:`repro.fdaas.tenants` — tenant registration: per-tenant HMAC keys,
  peer-id namespacing (``tenant/peer``), token-bucket rate limits, and
  declared QoS targets (:class:`SLATargets`).
- :mod:`repro.fdaas.admission` — the datagram screen in front of the
  monitor: constant-time signature verification of wire-v2 heartbeats,
  replay rejection, tenancy checks, rate limiting; every drop is counted
  per tenant and reason.
- :mod:`repro.fdaas.sla` — live SLA enforcement: each tenant's targets
  (T_D^U, T_MR^U, T_M^U, P_A lower bound) tracked against the rolling
  :class:`repro.obs.qos.QoSHealth` estimates, with breach/recovery events.
- :mod:`repro.fdaas.subscribe` — push delivery: a cursor-based event
  broker feeding local callbacks and long-lived status-endpoint streams,
  replacing poll-only status.
- :mod:`repro.fdaas.service` — :class:`FdaasServer`, the composition:
  UDP ingest → admission → monitor, an SLA evaluation loop, and a status
  endpoint extended with ``events``/``subscribe`` commands.
"""

from repro.fdaas.admission import ADMIT_REJECT_REASONS, AdmissionController
from repro.fdaas.sla import SLAEvent, SLATracker
from repro.fdaas.subscribe import EventBroker, asubscribe_events
from repro.fdaas.tenants import (
    SLATargets,
    Tenant,
    TenantRegistry,
    TokenBucket,
    namespaced,
    split_peer,
)
from repro.fdaas.service import FdaasServer
from repro.live.status import arequest, request

__all__ = [
    "ADMIT_REJECT_REASONS",
    "AdmissionController",
    "EventBroker",
    "FdaasServer",
    "SLAEvent",
    "SLATargets",
    "SLATracker",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "arequest",
    "asubscribe_events",
    "namespaced",
    "request",
    "split_peer",
]
