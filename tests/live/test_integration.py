"""Loopback integration: real UDP sockets, real asyncio, injected faults.

These are the PR's acceptance tests.  Everything runs on 127.0.0.1 inside
one event loop per test (plain ``asyncio.run``; no external processes), and
every wait is deadline-bounded so a regression hangs for seconds, not
forever.
"""

import asyncio

import pytest

from repro.detectors.registry import available_detectors
from repro.live.chaos import ChaosSpec
from repro.live.heartbeater import Heartbeater
from repro.live.monitor import LiveMonitor, LiveMonitorServer
from repro.live.status import arequest
from repro.qos.metrics import compute_metrics

INTERVAL = 0.02

# One instance of every registry detector, sharing the single heartbeat
# stream.  Generous tuning values: these runs assert *detection behaviour*
# (clean stream => trust, crash => suspect), not tight QoS, so the margins
# absorb event-loop scheduling jitter.
ALL_PARAMS = {
    "2w-fd": 0.5,
    "chen": 0.5,
    "mw-fd": 0.5,
    "chen-sync": 0.5,
    "phi": 4.0,
    "ed": 0.98,
    "histogram": 0.98,
    "fixed-timeout": 0.5,
    "bertier": None,
    "adaptive-2w-fd": None,
}

OVERALL_DEADLINE = 60.0  # hard cap on any single integration scenario


async def _wait_for(predicate, *, timeout: float, tick: float = 0.02):
    """Poll ``predicate`` until truthy; fail loudly on timeout."""
    async def loop():
        while not predicate():
            await asyncio.sleep(tick)

    await asyncio.wait_for(loop(), timeout)


def test_clean_run_is_never_suspected():
    """Chaos loss=0: a monitored sender survives 100 heartbeats untouched."""

    async def scenario():
        monitor = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.5})
        async with LiveMonitorServer(monitor, tick=0.01) as server:
            hb = Heartbeater(
                server.address, interval=INTERVAL, count=100, chaos=ChaosSpec()
            )
            sent = await hb.run()
            assert sent == 100
            # Let the last datagrams land before closing the socket.
            await _wait_for(
                lambda: monitor.snapshot()["peers"]
                .get("p", {})
                .get("n_accepted", 0)
                >= 95,
                timeout=5.0,
            )
        snap = server.monitor.snapshot()
        peer = snap["peers"]["p"]
        # Loopback UDP is lossless in practice; tolerate nothing here —
        # the acceptance criterion is "never suspected".
        assert peer["detectors"]["2w-fd"]["n_suspicions"] == 0
        assert all(e.trusting for e in monitor.events)
        assert peer["n_accepted"] >= 95
        assert monitor.n_malformed == 0

    asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))


def test_crash_is_detected_by_every_registry_detector():
    """A scheduled crash drives *all* detectors to suspicion, visible via
    the event stream AND the JSON status endpoint, and the recorded run is
    scoreable by repro.qos.metrics."""

    names = available_detectors()
    assert set(names) == set(ALL_PARAMS)  # keep this test exhaustive

    async def scenario():
        monitor = LiveMonitor(INTERVAL, names, ALL_PARAMS)
        suspected = set()
        monitor.subscribe(
            lambda e: suspected.add(e.detector) if not e.trusting else None
        )
        async with LiveMonitorServer(monitor, tick=0.01, status_port=0) as server:
            hb = Heartbeater(
                server.address,
                interval=INTERVAL,
                chaos=ChaosSpec(crash_at=0.6),  # ~30 heartbeats, then silence
            )
            runner = asyncio.create_task(hb.run())
            await asyncio.wait_for(runner, 30.0)
            assert hb.crashed
            assert hb.n_sent >= 25

            # 1. Observable via the subscribe-able event stream.
            await _wait_for(lambda: suspected == set(names), timeout=30.0)

            # 2. Observable via the JSON status endpoint.
            host, port = server.status.address
            status = await arequest(host, port, "")
            dets = status["peers"]["p"]["detectors"]
            for name in names:
                assert dets[name]["trusting"] is False, name
                assert dets[name]["n_suspicions"] >= 1, name
            assert status["n_events"] == len(monitor.events)

            # 2b. The summary protocol serves the constant-size document.
            summary = await arequest(host, port, "summary")
            assert "peers" not in summary
            assert summary["monitor"]["n_peers"] == 1
            assert summary["monitor"]["poll_mode"] == "heap"

        # 3. The live timelines score like any replayed run.
        end = monitor.now()
        for name, tl in monitor.timelines(end)["p"].items():
            m = compute_metrics(tl)
            assert m.n_mistakes >= 1, name  # the (real) crash-driven suspicion
            assert 0.0 < m.query_accuracy < 1.0, name
            assert m.duration > 0.0, name

    asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))


def test_shared_service_detects_crash_live():
    """§V-C mode over sockets: one stream, every application suspects."""
    from repro.live.service import LiveSharedMonitor
    from repro.qos.estimators import NetworkBehavior
    from repro.qos.spec import QoSSpec
    from repro.service.application import Application

    apps = [
        Application("web", QoSSpec(detection_time=1.0, mistake_rate=0.1, mistake_duration=0.5)),
        Application("db", QoSSpec(detection_time=2.0, mistake_rate=0.01, mistake_duration=0.5)),
    ]
    live = LiveSharedMonitor.from_applications(
        apps, NetworkBehavior(loss_probability=0.0, delay_variance=1e-6)
    )
    dt = live.heartbeat_interval
    assert dt > 0

    async def scenario():
        loop = asyncio.get_running_loop()

        class _Proto(asyncio.DatagramProtocol):
            def datagram_received(self, data, addr):
                live.ingest(data)

        transport, _ = await loop.create_datagram_endpoint(
            lambda: _Proto(), local_addr=("127.0.0.1", 0)
        )
        try:
            addr = transport.get_extra_info("sockname")[:2]
            hb = Heartbeater(
                addr, interval=dt, chaos=ChaosSpec(crash_at=max(10 * dt, 0.2))
            )
            await asyncio.wait_for(hb.run(), 30.0)
            assert hb.crashed

            def all_suspected():
                live.poll()
                return {
                    e.detector for e in live.events if not e.trusting
                } == {"web", "db"}

            await _wait_for(all_suspected, timeout=30.0)
        finally:
            transport.close()
        snap = live.snapshot()
        assert all(not a["trusting"] for a in snap["applications"].values())
        for name, tl in live.timelines().items():
            assert compute_metrics(tl).n_mistakes >= 1, name

    asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))


def test_status_endpoint_while_stream_is_live():
    """The endpoint answers mid-run and reflects the live arrival counts."""

    async def scenario():
        monitor = LiveMonitor(INTERVAL, ["2w-fd"], {"2w-fd": 0.5})
        async with LiveMonitorServer(monitor, tick=0.01, status_port=0) as server:
            hb = Heartbeater(server.address, interval=INTERVAL)
            runner = asyncio.create_task(hb.run())
            try:
                await _wait_for(
                    lambda: "p" in monitor.snapshot()["peers"], timeout=10.0
                )
                host, port = server.status.address
                first = await arequest(host, port, "")
                await asyncio.sleep(10 * INTERVAL)
                second = await arequest(host, port, "")
            finally:
                hb.stop()
                await runner
            assert first["interval"] == INTERVAL
            assert second["peers"]["p"]["n_accepted"] > first["peers"]["p"]["n_accepted"]
            assert second["peers"]["p"]["detectors"]["2w-fd"]["trusting"] is True

    asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))
