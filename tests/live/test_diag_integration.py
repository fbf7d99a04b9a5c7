"""End-to-end runtime diagnostics: the ``diag`` request line on a live
server, the stall watchdog surfacing an injected 250 ms loop block on the
fdaas subscribe stream, and the sharded parent merging per-shard diag
documents and exposing per-shard exposition staleness."""

import asyncio
import socket
import time

import pytest

from repro.live.monitor import LiveMonitor, LiveMonitorServer
from repro.live.shard import ShardedMonitor, reuseport_supported
from repro.live.status import arequest, request
from repro.live.wire import Heartbeat
from repro.obs import Observability

INTERVAL = 0.05
PARAMS = {"2w-fd": 0.5}
OVERALL_DEADLINE = 60.0


async def _wait_for(predicate, *, timeout: float, tick: float = 0.02):
    async def loop():
        while not predicate():
            await asyncio.sleep(tick)

    await asyncio.wait_for(loop(), timeout)


def _diag_obs(**kwargs) -> Observability:
    kwargs.setdefault("diag_sample_every", 1)  # deterministic stage counts
    return Observability(diagnostics=True, **kwargs)


class TestLiveServerDiag:
    def test_diag_request_line_serves_the_full_document(self):
        async def scenario():
            obs = _diag_obs()
            monitor = LiveMonitor(
                INTERVAL, ["2w-fd"], PARAMS, obs=obs, ingest_mode="batched"
            )
            server = LiveMonitorServer(monitor, tick=0.01, status_port=0)
            async with server:
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sock.connect(server.address)
                try:
                    for seq in range(1, 20):
                        sock.send(Heartbeat("p", seq, time.time()).encode())
                        await asyncio.sleep(0.01)
                    await _wait_for(
                        lambda: len(obs.diag.recorder) > 0, timeout=10.0
                    )
                    doc = await arequest(
                        *server.status.address, "diag", retries=2
                    )
                finally:
                    sock.close()
            return doc

        doc = asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))
        assert doc["diagnostics"] is True
        # The watchdog heartbeat ran on the server's loop.
        assert doc["watchdog"]["running"] is True
        assert doc["watchdog"]["lag"]["count"] > 0
        # Every drain left a flight record carrying its mode and depths.
        records = doc["recorder"]["records"]
        assert records
        assert all(r["mode"] == "batched" for r in records)
        assert all(r["n"] >= 1 and r["duration"] >= 0.0 for r in records)
        assert records[-1]["heap"] >= 1  # one peer, one detector armed
        # With 1-in-1 sampling every drain booked decode/estimate stages.
        stages = doc["stages"]["stages"]
        assert stages["decode"]["count"] > 0
        assert stages["estimate"]["count"] > 0

    def test_diag_off_serves_an_explanatory_stub(self):
        """Without diagnostics the table has no ``diag`` command: the
        reply is a small envelope naming the commands that are served."""

        async def scenario():
            monitor = LiveMonitor(
                INTERVAL, ["2w-fd"], PARAMS, obs=Observability()
            )
            server = LiveMonitorServer(monitor, tick=0.01, status_port=0)
            async with server:
                return await arequest(
                    *server.status.address, "diag", retries=2
                )

        doc = asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))
        assert "unknown request 'diag'" in doc["error"]
        assert doc["commands"] == ["delta", "metrics", "summary", "trace"]

    def test_fetch_diag_sync_wrapper_and_cursor_resume(self):
        async def scenario():
            obs = _diag_obs()
            monitor = LiveMonitor(INTERVAL, ["2w-fd"], PARAMS, obs=obs)
            server = LiveMonitorServer(monitor, tick=0.01, status_port=0)
            async with server:
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sock.connect(server.address)
                try:
                    for seq in range(1, 10):
                        sock.send(Heartbeat("p", seq, time.time()).encode())
                        await asyncio.sleep(0.01)
                    await _wait_for(
                        lambda: len(obs.diag.recorder) >= 2, timeout=10.0
                    )
                    first = await arequest(
                        *server.status.address, "diag", retries=2
                    )
                    resumed = await arequest(
                        *server.status.address,
                        f"diag {first['recorder']['cursor']}",
                        retries=2,
                    )
                finally:
                    sock.close()
            return first, resumed

        first, resumed = asyncio.run(
            asyncio.wait_for(scenario(), OVERALL_DEADLINE)
        )
        assert first["recorder"]["records"]
        # Nothing new between the two fetches: the cursor excludes
        # everything already delivered.
        first_ids = {r["id"] for r in first["recorder"]["records"]}
        resumed_ids = {r["id"] for r in resumed["recorder"]["records"]}
        assert not (first_ids & resumed_ids)
        # The sync wrapper refuses to run inside a live loop.
        async def misuse():
            request("127.0.0.1", 1, "diag")

        with pytest.raises(RuntimeError):
            asyncio.run(misuse())


class TestFdaasStallEvents:
    def test_injected_loop_block_reaches_subscribers_edge_triggered(self):
        """A 250 ms synchronous block on the event loop must surface as
        one ``repro_runtime_stalled`` event on the fdaas subscribe stream
        (not one per watchdog tick) and in the ``diag`` document."""
        from repro.fdaas.service import FdaasServer
        from repro.fdaas.subscribe import asubscribe_events
        from repro.fdaas.tenants import Tenant, TenantRegistry

        async def scenario():
            obs = _diag_obs(trace=False, stall_threshold=0.1)
            monitor = LiveMonitor(INTERVAL, ["2w-fd"], PARAMS, obs=obs)
            registry = TenantRegistry()
            registry.register(Tenant("acme"))
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
                await asyncio.sleep(0.15)  # clean heartbeats first
                time.sleep(0.25)  # hold the loop hostage
                await _wait_for(
                    lambda: any(
                        e.get("type") == "repro_runtime_stalled"
                        for e in received
                    ),
                    timeout=10.0,
                )
                diag_doc = await arequest(shost, sport, "diag", retries=2)
                consumer.cancel()
                try:
                    await consumer
                except asyncio.CancelledError:
                    pass
            return received, diag_doc, obs

        received, diag_doc, obs = asyncio.run(
            asyncio.wait_for(scenario(), OVERALL_DEADLINE)
        )
        stalls = [
            e for e in received if e.get("type") == "repro_runtime_stalled"
        ]
        assert len(stalls) == 1  # edge-triggered: one event per excursion
        assert stalls[0]["lag"] > 0.1
        assert stalls[0]["threshold"] == 0.1
        assert "id" in stalls[0]  # stamped by the broker like SLA events
        assert diag_doc["watchdog"]["n_stalls"] == 1
        assert diag_doc["watchdog"]["lag"]["max"] > 0.1
        # The stall also landed in the metrics registry.
        assert "repro_runtime_stalls_total 1" in obs.render_metrics()


@pytest.mark.skipif(
    not reuseport_supported(), reason="SO_REUSEPORT not available"
)
class TestShardedDiag:
    def test_parent_merges_diag_across_shards(self):
        async def scenario():
            mon = ShardedMonitor(
                INTERVAL, ["2w-fd"], PARAMS, n_shards=2, status_port=0,
                obs=True, diagnostics=True, diag_sample_every=1,
                status_retries=2,
            )
            async with mon:
                socks = [
                    socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    for _ in range(6)
                ]
                for sock in socks:
                    sock.connect(mon.address)
                try:
                    for seq in range(1, 25):
                        for i, sock in enumerate(socks):
                            sock.send(
                                Heartbeat(f"w{i}", seq, time.time()).encode()
                            )
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.3)
                    doc = await arequest(*mon.status.address, "diag", retries=2)
                finally:
                    for sock in socks:
                        sock.close()
            return doc

        doc = asyncio.run(asyncio.wait_for(scenario(), OVERALL_DEADLINE))
        assert doc["diagnostics"] is True
        assert doc["merged"] is True
        assert doc["n_shards"] == 2
        assert doc.get("shard_errors") is None
        # Both workers answered with live per-shard cursors.
        assert sorted(doc["shards"]) == ["0", "1"]
        # Stage timing merged: summed counts over both workers' drains.
        stages = doc["stages"]["stages"]
        assert stages["decode"]["count"] > 0
        # Flight records from the workers, shard-tagged and time-sorted.
        records = doc["recorder"]["records"]
        assert records
        assert {r["shard"] for r in records} <= {0, 1}
        times = [r["time"] for r in records]
        assert times == sorted(times)
        # Both workers' watchdogs heartbeat on their own loops.
        assert doc["watchdog"]["running"] is True
        assert doc["watchdog"]["lag"]["count"] > 0

    def test_merged_exposition_carries_staleness_and_identity(self):
        async def scenario():
            mon = ShardedMonitor(
                INTERVAL, ["2w-fd"], PARAMS, n_shards=2, status_port=0,
                obs=True, status_retries=2,
            )
            async with mon:
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sock.connect(mon.address)
                try:
                    for seq in range(1, 10):
                        sock.send(Heartbeat("p", seq, time.time()).encode())
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.2)
                    first = await arequest(
                        *mon.status.address, "metrics", retries=2
                    )
                    await asyncio.sleep(0.1)
                    second = await arequest(
                        *mon.status.address, "metrics", retries=2
                    )
                finally:
                    sock.close()
            return first, second

        first, second = asyncio.run(
            asyncio.wait_for(scenario(), OVERALL_DEADLINE)
        )
        for text in (first, second):
            # Satellite: per-shard exposition age rides every merged
            # exposition, one labeled sample per worker.
            assert "# TYPE repro_shard_exposition_age_seconds gauge" in text
            assert 'repro_shard_exposition_age_seconds{shard="0"}' in text
            assert 'repro_shard_exposition_age_seconds{shard="1"}' in text
            # Identity gauges survive the merge exactly once (last-writer
            # policy), not summed into a meaningless 2.
            build_lines = [
                line
                for line in text.splitlines()
                if line.startswith("repro_build_info{")
            ]
            assert len(build_lines) == 1
            assert build_lines[0].endswith(" 1")
            start_lines = [
                line
                for line in text.splitlines()
                if line.startswith("repro_process_start_time_seconds ")
            ]
            assert len(start_lines) == 1
            assert float(start_lines[0].split()[-1]) > 1e9  # a unix time
