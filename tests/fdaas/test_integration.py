"""Loopback fdaas acceptance: two tenants, auth, SLA isolation, push events.

This is the PR's acceptance test.  One FdaasServer on 127.0.0.1 hosts two
authenticated tenants with different keys and different QoS targets; real
Heartbeaters stream signed beats while an attacker injects spoofed,
replayed, unsigned and unknown-tenant datagrams over raw UDP.  The
spoofed traffic must be rejected and counted without perturbing the
monitor, each tenant's SLA must be enforced against its *own* targets
only, and a push subscriber must receive the breach without polling.
"""

import asyncio

from repro.fdaas.admission import AdmissionController
from repro.fdaas.service import FdaasServer
from repro.fdaas.subscribe import asubscribe_events
from repro.fdaas.tenants import SLATargets, Tenant, TenantRegistry
from repro.live.heartbeater import Heartbeater
from repro.live.monitor import LiveMonitor
from repro.live.status import arequest
from repro.live.wire import Heartbeat
from repro.obs import Observability

INTERVAL = 0.05
OVERALL_DEADLINE = 60.0

KEY_ACME = b"acme-secret-key-" * 2
KEY_GLOBEX = b"globex-hmac-key-" * 2


async def _wait_for(predicate, *, timeout: float, tick: float = 0.02):
    async def loop():
        while not predicate():
            await asyncio.sleep(tick)

    await asyncio.wait_for(loop(), timeout)


def test_two_tenants_auth_sla_and_push():
    async def scenario():
        obs = Observability(trace=False)
        monitor = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.5}, obs=obs)
        registry = TenantRegistry()
        # acme's detection-time target is unmeetable: it must breach.
        # globex's is absurdly loose: it must never breach, even though
        # its detector state is identical.
        registry.register(
            Tenant("acme", key=KEY_ACME, sla=SLATargets(t_d=1e-6))
        )
        registry.register(
            Tenant("globex", key=KEY_GLOBEX, sla=SLATargets(t_d=1e6))
        )
        server = FdaasServer(
            monitor, registry, tick=0.01, status_port=0, sla_tick=0.05
        )
        received = []
        async with server:
            shost, sport = server.status_address

            async def consume():
                async for event in asubscribe_events(shost, sport):
                    received.append(event)

            consumer = asyncio.ensure_future(consume())

            hb_acme = Heartbeater(
                server.address,
                sender_id="web",
                interval=INTERVAL,
                count=60,
                tenant="acme",
                auth_key=KEY_ACME,
            )
            hb_globex = Heartbeater(
                server.address,
                sender_id="web",
                interval=INTERVAL,
                count=60,
                tenant="globex",
                auth_key=KEY_GLOBEX,
            )
            senders = asyncio.gather(hb_acme.run(), hb_globex.run())

            await _wait_for(
                lambda: {"acme/web", "globex/web"}
                <= set(monitor.snapshot()["peers"]),
                timeout=10.0,
            )

            # --- the attacker -------------------------------------------
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=server.address
            )
            attacks = [
                # signed with the WRONG tenant's key
                Heartbeat("acme/web", 10_000, 9.9).encode_signed(KEY_GLOBEX),
                # validly signed but stale seq: a captured replay
                Heartbeat("acme/web", 1, 0.0).encode_signed(KEY_ACME),
                # unregistered tenant
                Heartbeat("evil/x", 1, 0.0).encode(),
                # unsigned v1 aimed at a keyed tenant
                Heartbeat("acme/web", 10_001, 9.9).encode(),
            ]
            for payload in attacks:
                transport.sendto(payload)
            admission = server.admission
            await _wait_for(
                lambda: all(
                    admission.reject_reasons.get(reason, 0) >= 1
                    for reason in (
                        "bad_tag",
                        "replayed",
                        "unknown_tenant",
                        "missing_auth",
                    )
                ),
                timeout=10.0,
            )
            transport.close()

            # The push subscriber gets acme's breach without polling.
            await _wait_for(
                lambda: any(
                    e.get("type") == "sla"
                    and e.get("tenant") == "acme"
                    and e.get("kind") == "breach"
                    for e in received
                ),
                timeout=10.0,
            )

            sent = await senders
            assert sent == [60, 60]
            # Real traffic kept flowing after the attack burst: the forged
            # seq=10_000 must not have wedged acme/web's replay high-water.
            admitted_before = admission.n_admitted
            await _wait_for(
                lambda: admission.n_admitted > admitted_before, timeout=10.0
            )

            snap = await arequest(*server.status_address, "")
            consumer.cancel()
            try:
                await consumer
            except asyncio.CancelledError:
                pass

        # --- spoofing was contained --------------------------------------
        assert "evil/x" not in snap["peers"]
        stats = snap["admission"]
        for reason in ("bad_tag", "replayed", "unknown_tenant", "missing_auth"):
            assert stats["reject_reasons"].get(reason, 0) >= 1, reason
        assert stats["tenants"]["acme"]["rejected"]["bad_tag"] >= 1
        # The monitor never saw the rejected datagrams as malformed noise.
        assert snap["peers"]["acme/web"]["n_accepted"] >= 50
        assert snap["peers"]["globex/web"]["n_accepted"] >= 50

        # --- SLA isolation ------------------------------------------------
        sla = snap["sla"]
        assert sla["tenants"]["acme"]["breached"] is True
        assert sla["tenants"]["globex"]["breached"] is False
        assert not any(e.get("tenant") == "globex" for e in received
                       if e.get("type") == "sla")

        # --- push stream carried both event kinds ------------------------
        transitions = [e for e in received if e.get("type") == "transition"]
        assert {e["tenant"] for e in transitions} >= {"acme", "globex"}
        assert all("id" in e for e in received)

    asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))


# ---------------------------------------------------------------------------
# Bitwise equivalence of the three ingest modes behind admission
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _equivalence_registry() -> TenantRegistry:
    registry = TenantRegistry()
    registry.register(Tenant("acme", key=KEY_ACME))
    registry.register(Tenant("free"))
    return registry


def _equivalence_workload():
    """(arrival, [datagram, ...]) batches mixing every admission outcome."""
    batches = []
    t = 0.0
    seq = 0
    for round_no in range(12):
        t += 0.04
        seq += 1
        batch = [
            Heartbeat("acme/web", seq, t).encode_signed(KEY_ACME),
            Heartbeat("free/web", seq, t).encode(),
        ]
        if round_no % 3 == 0:
            batch.append(  # wrong key: bad_tag
                Heartbeat("acme/web", seq + 100, t).encode_signed(KEY_GLOBEX)
            )
        if round_no % 4 == 1 and seq > 1:
            batch.append(  # captured replay
                Heartbeat("acme/web", seq - 1, t).encode_signed(KEY_ACME)
            )
        if round_no % 5 == 2:
            batch.append(Heartbeat("bare-peer", seq, t).encode())
            batch.append(b"\x00garbage-datagram")
        batches.append((t, batch))
    return batches


def _run_mode(mode):
    clock = _Clock()
    monitor = LiveMonitor(
        INTERVAL,
        ["2w-fd"],
        {"2w-fd": 0.5},
        clock=clock,
        ingest_mode=mode,
    )
    monitor.now()  # pin the epoch at clock 0 so explicit arrivals line up
    ctl = AdmissionController(_equivalence_registry(), clock=clock)
    events = []
    monitor.subscribe(events.append)
    for t, batch in _equivalence_workload():
        clock.t = t
        if mode == "scalar":
            for data in batch:
                if ctl.admit(data):
                    monitor.ingest(data, arrival=t)
        else:
            admitted = [data for data in batch if ctl.admit(data)]
            monitor.ingest_many(admitted, [t] * len(admitted))
        monitor.poll()
    snap = monitor.snapshot(now=clock.t)
    return {
        "events": [(e.time, e.peer, e.detector, e.trusting) for e in events],
        "snapshot": {k: v for k, v in snap.items() if k != "monitor"},
        "admission": ctl.stats(),
    }


def test_three_ingest_modes_identical_behind_admission():
    """Scalar / batched / vectorized see the same admitted stream and must
    produce identical monitor state, events, and admission stats."""
    reference = _run_mode("scalar")
    assert reference["admission"]["n_rejected"] > 0  # workload has teeth
    assert reference["admission"]["n_malformed_passthrough"] > 0
    for mode in ("batched", "vectorized"):
        other = _run_mode(mode)
        for key in ("events", "snapshot", "admission"):
            assert other[key] == reference[key], (
                f"{mode} diverges from scalar on {key!r}"
            )
