""":class:`FdaasServer` — the assembled failure-detection service.

One object composes the whole control plane around a single
:class:`~repro.live.monitor.LiveMonitor`:

- UDP ingest through an :class:`~repro.fdaas.admission.AdmissionController`
  (authentication, replay, tenancy, rate limits — all three ingest modes);
- the monitor's liveness poll, timed at each freshness point (via the
  wrapped :class:`~repro.live.monitor.LiveMonitorServer`);
- a periodic :class:`~repro.fdaas.sla.SLATracker` evaluation loop;
- an :class:`~repro.fdaas.subscribe.EventBroker` fed by both the
  monitor's transition stream and the SLA loop;
- a status endpoint whose command table extends the monitor server's
  with ``events``/``subscribe``, and whose snapshots carry ``admission``,
  ``sla`` and ``events`` blocks (``summary``: ``admission`` and ``sla``).

The monitor must have been constructed with observability *including QoS
health* — SLA enforcement is meaningless without the rolling estimates —
and the server fails fast at construction otherwise.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Tuple

from repro.fdaas.admission import AdmissionController
from repro.fdaas.sla import SLATracker
from repro.fdaas.subscribe import DEFAULT_CAPACITY, EventBroker
from repro.fdaas.tenants import TenantRegistry, split_peer
from repro.live.monitor import LiveMonitor, LiveMonitorServer
from repro.live.status import StatusServer, cursor_argument, structured

__all__ = ["FdaasServer"]

logger = logging.getLogger("repro.fdaas.service")

#: Default SLA evaluation period (seconds) — an enforcement scrape, not a
#: hot path; breach latency is bounded by it.
DEFAULT_SLA_TICK = 0.25


class FdaasServer:
    """Multi-tenant failure detection as a service over one monitor.

    Parameters mirror :class:`~repro.live.monitor.LiveMonitorServer`
    (``host``/``port`` for UDP ingest, ``tick`` for the longest gap
    between liveness polls, which otherwise run at each freshness point,
    ``status_port`` for the TCP status endpoint, ``ingest_mode`` for
    scalar/batched/vectorized) plus the fdaas pieces: the tenant
    ``registry``, the SLA evaluation period ``sla_tick``, and the event
    ring ``broker_capacity``.
    """

    def __init__(
        self,
        monitor: LiveMonitor,
        registry: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tick: float = 0.02,
        status_port: int | None = None,
        status_host: str = "127.0.0.1",
        ingest_mode: str = "batched",
        sla_tick: float = DEFAULT_SLA_TICK,
        broker_capacity: int = DEFAULT_CAPACITY,
    ):
        obs = monitor.observability
        if obs is None or obs.qos is None:
            raise ValueError(
                "FdaasServer needs a monitor with QoS health enabled: "
                "LiveMonitor(..., obs=Observability(qos_health=True)) — "
                "SLA enforcement has nothing to evaluate otherwise"
            )
        if sla_tick <= 0:
            raise ValueError(f"sla_tick must be positive, got {sla_tick}")
        self.monitor = monitor
        self.registry = registry
        self.admission = AdmissionController(registry, observability=obs)
        self.broker = EventBroker(broker_capacity)
        self.sla = SLATracker(registry, monitor, observability=obs)
        self._sla_tick = float(sla_tick)
        self._status_port = status_port
        self._status_host = status_host
        # The inner server runs ingest + admission + the liveness poll;
        # its status endpoint stays off — ours serves the enriched one.
        self._server = LiveMonitorServer(
            monitor,
            host,
            port,
            tick=tick,
            ingest_mode=ingest_mode,
            admission=self.admission,
        )
        self._sla_task: asyncio.Task | None = None
        self.status: StatusServer | None = None
        self.address: Tuple[str, int] | None = None

    async def __aenter__(self) -> "FdaasServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Event production
    # ------------------------------------------------------------------
    def _on_transition(self, event) -> None:
        """Monitor listener: every detector transition becomes a broker
        event, attributed to its tenant (None for unnamespaced peers)."""
        tenant_id, peer = split_peer(event.peer)
        self.broker.publish(
            {
                "type": "transition",
                "time": event.time,
                "tenant": tenant_id,
                "peer": peer,
                "sender": event.peer,
                "detector": event.detector,
                "kind": event.kind,
                "trusting": event.trusting,
            }
        )

    async def _sla_loop(self) -> None:
        while True:
            await asyncio.sleep(self._sla_tick)
            for event in self.sla.evaluate():
                self.broker.publish({"type": "sla", **event.as_dict()})

    # ------------------------------------------------------------------
    # Status blocks
    # ------------------------------------------------------------------
    def _blocks(self, doc: dict, is_summary: bool) -> None:
        """Add the ``sla`` block to every snapshot-shaped reply and the
        ``events`` block to all but ``summary`` (both are O(tenants), not
        O(peers), so deltas stay cheap)."""
        doc["sla"] = self.sla.status()
        if not is_summary:
            doc["events"] = {
                "published": self.broker.n_published,
                "cursor": self.broker.cursor,
                "dropped": self.broker.dropped,
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Start ingest, the SLA loop, and the status endpoint."""
        self.monitor.subscribe(self._on_transition)
        # Attach the stall watchdog to the tenant event broker *before*
        # the server starts it: runtime-degradation events then land on
        # the same subscribe stream as SLA breaches.
        obs = self.monitor.observability
        diag = obs.diag if obs is not None else None
        if diag is not None:
            diag.watchdog.broker = self.broker
        self.address = await self._server.start()
        if self._status_port is not None:
            # The monitor server's table (snapshots with the admission
            # block, metrics/trace/diag) plus the event commands.
            commands = self._server.status_commands(self._blocks)
            commands["events"] = (self.broker.document, cursor_argument)
            commands["subscribe"] = (self.broker.stream, cursor_argument)
            self.status = StatusServer(
                commands, host=self._status_host, port=self._status_port
            )
            await self.status.start()
        self._sla_task = asyncio.create_task(self._sla_loop())
        logger.info(
            structured(
                "fdaas-started",
                host=self.address[0],
                port=self.address[1],
                tenants=len(self.registry),
                sla_tick=self._sla_tick,
            )
        )
        return self.address

    async def stop(self) -> None:
        """Stop everything; one final SLA evaluation flushes pending events."""
        if self._sla_task is not None:
            self._sla_task.cancel()
            try:
                await self._sla_task
            except asyncio.CancelledError:
                pass
            self._sla_task = None
        await self._server.stop()
        for event in self.sla.evaluate():
            self.broker.publish({"type": "sla", **event.as_dict()})
        if self.status is not None:
            await self.status.stop()
            self.status = None
        try:
            self.monitor.unsubscribe(self._on_transition)
        except ValueError:
            pass
        logger.info(structured("fdaas-stopped", n_events=self.broker.n_published))

    @property
    def status_address(self) -> Tuple[str, int] | None:
        return self.status.address if self.status is not None else None
