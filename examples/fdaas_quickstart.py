#!/usr/bin/env python3
"""fdaas quickstart: multi-tenant failure detection as a service.

Boots one loopback :class:`repro.fdaas.FdaasServer` hosting two tenants —
``acme`` (HMAC-authenticated, with an unmeetable detection-time SLA so a
breach is guaranteed) and ``globex`` (authenticated too, but with a loose
SLA that never fires) — then walks the whole control plane:

- each tenant's :class:`~repro.live.heartbeater.Heartbeater` streams
  wire-v2 signed heartbeats under its own key, namespaced ``tenant/peer``;
- an attacker injects spoofed (wrong key), replayed (stale seq), unsigned
  and unknown-tenant datagrams over raw UDP; the admission layer rejects
  and counts every one without perturbing the monitor;
- the SLA loop evaluates each tenant against its *own* QoS targets and
  publishes breach events to the broker;
- a push subscriber (``subscribe`` status command) receives transitions
  and the breach the moment they happen — no polling.

Run:  python examples/fdaas_quickstart.py

Exits non-zero if any attack is not rejected, the wrong tenant breaches,
or the subscriber misses the breach — CI runs this script as its
``fdaas-smoke`` gate.
"""

import asyncio
import sys

from repro.fdaas import FdaasServer, SLATargets, Tenant, TenantRegistry, arequest
from repro.fdaas.subscribe import asubscribe_events
from repro.live import Heartbeater, LiveMonitor
from repro.live.wire import Heartbeat
from repro.obs import Observability

INTERVAL = 0.05  # Δi: each tenant's peer heartbeats every 50 ms
BEATS = 50

KEY_ACME = b"acme-quickstart-hmac-key-0123456"
KEY_GLOBEX = b"globex-quickstart-hmac-key-01234"

ATTACK_REASONS = ("bad_tag", "replayed", "missing_auth", "unknown_tenant")


async def _wait_for(predicate, *, timeout: float, tick: float = 0.02):
    async def loop():
        while not predicate():
            await asyncio.sleep(tick)

    await asyncio.wait_for(loop(), timeout)


async def run() -> int:
    obs = Observability(trace=False)
    monitor = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.5}, obs=obs)

    registry = TenantRegistry()
    registry.register(
        Tenant("acme", key=KEY_ACME, rate=500.0, sla=SLATargets(t_d=1e-6))
    )
    registry.register(
        Tenant("globex", key=KEY_GLOBEX, rate=500.0, sla=SLATargets(t_d=60.0))
    )
    print("tenants: acme (t_d ≤ 1 µs — will breach), globex (t_d ≤ 60 s)")

    server = FdaasServer(
        monitor, registry, tick=0.01, status_port=0, sla_tick=0.05
    )
    received = []
    async with server:
        shost, sport = server.status_address
        print(f"fdaas up: udp {server.address}, status {shost}:{sport}")

        async def consume():
            async for event in asubscribe_events(shost, sport):
                received.append(event)

        consumer = asyncio.ensure_future(consume())

        senders = asyncio.gather(
            Heartbeater(
                server.address,
                sender_id="web",
                interval=INTERVAL,
                count=BEATS,
                tenant="acme",
                auth_key=KEY_ACME,
            ).run(),
            Heartbeater(
                server.address,
                sender_id="web",
                interval=INTERVAL,
                count=BEATS,
                tenant="globex",
                auth_key=KEY_GLOBEX,
            ).run(),
        )
        await _wait_for(
            lambda: {"acme/web", "globex/web"}
            <= set(monitor.snapshot()["peers"]),
            timeout=10.0,
        )
        print("both tenants' signed heartbeat streams admitted")

        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=server.address
        )
        attacks = [
            Heartbeat("acme/web", 9_000, 9.9).encode_signed(KEY_GLOBEX),
            Heartbeat("acme/web", 1, 0.0).encode_signed(KEY_ACME),
            Heartbeat("acme/web", 9_001, 9.9).encode(),
            Heartbeat("mallory/x", 1, 0.0).encode(),
        ]
        for payload in attacks:
            transport.sendto(payload)
        await _wait_for(
            lambda: all(
                server.admission.reject_reasons.get(r, 0) >= 1
                for r in ATTACK_REASONS
            ),
            timeout=10.0,
        )
        transport.close()
        rejected = dict(server.admission.reject_reasons)
        print(f"attacks rejected pre-monitor: {rejected}")

        await _wait_for(
            lambda: any(
                e.get("type") == "sla" and e.get("kind") == "breach"
                for e in received
            ),
            timeout=10.0,
        )
        await senders
        consumer.cancel()
        try:
            await consumer
        except asyncio.CancelledError:
            pass
        snap = await arequest(*server.status_address, "")

    breaches = [
        e for e in received if e.get("type") == "sla" and e["kind"] == "breach"
    ]
    print(
        f"subscriber pushed {len(received)} events "
        f"({len(breaches)} SLA breach(es), first: tenant={breaches[0]['tenant']} "
        f"metric={breaches[0]['metric']})"
    )

    failures = []
    for reason in ATTACK_REASONS:
        if rejected.get(reason, 0) < 1:
            failures.append(f"attack not rejected: {reason}")
    if "mallory/x" in snap["peers"]:
        failures.append("unknown tenant's peer leaked into the monitor")
    if not snap["sla"]["tenants"]["acme"]["breached"]:
        failures.append("acme's unmeetable SLA did not breach")
    if snap["sla"]["tenants"]["globex"]["breached"]:
        failures.append("globex breached someone else's SLA targets")
    if any(e["tenant"] == "globex" for e in breaches):
        failures.append("subscriber saw a globex breach event")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            "OK: auth + replay + tenancy enforced, SLA breach isolated to "
            "acme and delivered by push"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(asyncio.run(run()))
