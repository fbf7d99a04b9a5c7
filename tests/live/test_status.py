"""StatusServer protocol tests: the command table, its error envelopes,
silent clients, and the one client's retries."""

import asyncio

import pytest

from repro.live.status import (
    REQUEST_TIMEOUT,
    RETRY_BACKOFF,
    StatusServer,
    arequest,
    cursor_argument,
    request,
)

FULL = {"kind": "full", "peers": {"p": {}}}
SUMMARY = {"kind": "summary"}


def _serve(**commands):
    return StatusServer({"": lambda: FULL, **commands})


def _ask(server, *lines):
    """Start ``server``, send each request line, return the replies."""

    async def scenario():
        host, port = await server.start()
        try:
            return [await arequest(host, port, line) for line in lines]
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestSummaryProtocol:
    def test_default_fetch_gets_full_document(self):
        assert _ask(_serve(summary=lambda: SUMMARY), "") == [FULL]

    def test_summary_request_gets_summary(self):
        assert _ask(_serve(summary=lambda: SUMMARY), "summary") == [SUMMARY]

    def test_summary_request_without_summary_support_gets_error(self):
        """A command the table lacks is refused, not answered with the
        (possibly megabytes-large) full snapshot."""
        (doc,) = _ask(_serve(), "summary")
        assert "unknown request 'summary'" in doc["error"]
        assert doc["commands"] == []

    def test_silent_client_gets_full_document(self):
        """A bare connection that sends nothing (nc-style) still works."""

        async def scenario():
            server = _serve(summary=lambda: SUMMARY)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    raw = await asyncio.wait_for(
                        reader.read(), REQUEST_TIMEOUT + 5.0
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return raw
            finally:
                await server.stop()

        raw = asyncio.run(scenario())
        assert b'"kind": "full"' in raw

    def test_snapshot_error_served_not_raised(self):
        def boom():
            raise RuntimeError("snapshot bug")

        (doc,) = _ask(StatusServer({"": boom}), "")
        assert "snapshot bug" in doc["error"]


class TestCommandTable:
    def _server(self):
        return _serve(
            summary=lambda: SUMMARY,
            delta=(lambda since: {"since": since}, cursor_argument),
            metrics=lambda: "# exposition\n",
        )

    def test_unknown_word_gets_error_envelope_naming_commands(self):
        (doc,) = _ask(self._server(), "bogus")
        assert set(doc) == {"error", "commands"}
        assert "unknown request 'bogus'" in doc["error"]
        assert doc["commands"] == ["delta", "metrics", "summary"]
        for word in doc["commands"]:
            assert word in doc["error"]

    def test_prefix_collisions_get_error_envelopes(self):
        """Only the whole first word selects a command: ``deltax`` is not
        ``delta``, ``summaryfoo`` is not ``summary``."""
        for line in ("deltax", "summaryfoo", "subscribed", "metricsx 1"):
            (doc,) = _ask(self._server(), line)
            word = line.split()[0]
            assert f"unknown request {word!r}" in doc["error"], line

    def test_unparsable_argument_gets_error_envelope(self):
        for line in ("delta abc", "summary now", "metrics 1"):
            (doc,) = _ask(self._server(), line)
            assert "bad argument to" in doc["error"], line
            assert doc["commands"] == ["delta", "metrics", "summary"]

    def test_arguments_reach_the_handler(self):
        assert _ask(self._server(), "delta", "delta 7") == [
            {"since": 0},
            {"since": 7},
        ]

    def test_text_reply_is_returned_as_text(self):
        assert _ask(self._server(), "metrics") == ["# exposition\n"]

    def test_sync_client_matches_async(self):
        server = self._server()

        async def serve():
            return await server.start()

        import threading

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            host, port = asyncio.run_coroutine_threadsafe(
                serve(), loop
            ).result(10.0)
            assert request(host, port, "summary") == SUMMARY
            assert "error" in request(host, port, "bogus")
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10.0)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10.0)
            loop.close()

        async def misuse():
            request(host, port, "")

        with pytest.raises(RuntimeError, match="arequest"):
            asyncio.run(misuse())


class TestAsyncProducer:
    def test_coroutine_snapshot_is_awaited(self):
        """The shard aggregator's merged-snapshot producer is async."""

        async def snapshot():
            await asyncio.sleep(0)
            return {"kind": "merged"}

        assert _ask(StatusServer({"": snapshot}), "") == [{"kind": "merged"}]

    def test_async_producer_error_served_not_raised(self):
        async def boom():
            raise RuntimeError("merge bug")

        (doc,) = _ask(StatusServer({"": boom}), "")
        assert "merge bug" in doc["error"]


class TestRetries:
    def _free_port(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def test_no_retries_fails_immediately(self):
        port = self._free_port()
        with pytest.raises(OSError):
            request("127.0.0.1", port, "", timeout=1.0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            request("127.0.0.1", 1, "", retries=-1)

    def test_retries_exhausted_raises_within_backoff_budget(self):
        """N retries = N+1 attempts; full-jitter sleeps are bounded above
        by the exponential schedule (0.1s + 0.2s here), never unbounded."""
        port = self._free_port()
        loop = asyncio.new_event_loop()
        try:
            start = loop.time()
            with pytest.raises(OSError):
                loop.run_until_complete(
                    arequest("127.0.0.1", port, "", timeout=1.0, retries=2)
                )
            elapsed = loop.time() - start
        finally:
            loop.close()
        # Connection refusal is ~instant on loopback, so the elapsed time
        # is essentially the two jittered sleeps: uniform in [0, 0.1] and
        # [0, 0.2], with scheduler slack on top.
        assert elapsed <= RETRY_BACKOFF + 2 * RETRY_BACKOFF + 1.0

    def test_backoff_delays_are_bounded_and_jittered(self):
        """Full jitter: each delay is uniform in [0, base·2^attempt], so
        concurrent pollers of a dead endpoint do not retry in lockstep."""
        from repro.live.status import _backoff_delay

        for attempt in range(6):
            ceiling = RETRY_BACKOFF * (2**attempt)
            samples = [_backoff_delay(attempt) for _ in range(200)]
            assert all(0.0 <= s <= ceiling for s in samples)
            # Randomized, not the old fixed schedule: 200 draws from a
            # continuous uniform collide with probability ~0.
            assert len(set(samples)) > 1

    def test_retry_succeeds_once_server_appears(self):
        """The headline use: polling a status port that isn't up yet."""

        async def scenario():
            port = self._free_port()
            server = StatusServer({"": lambda: FULL}, port=port)

            async def fetch():
                return await arequest(
                    "127.0.0.1", port, "", timeout=1.0, retries=5
                )

            task = asyncio.ensure_future(fetch())
            await asyncio.sleep(RETRY_BACKOFF * 1.5)  # let attempts fail
            await server.start()
            try:
                return await task
            finally:
                await server.stop()

        assert asyncio.run(scenario()) == FULL


class TestRuntimeTables:
    """The tables the live servers build, driven over real sockets."""

    def _ask_server(self, server, *lines, peers=0):
        from repro.live.wire import Heartbeat

        async def scenario():
            async with server:
                mon = server.monitor
                mon.ingest_many(
                    [Heartbeat(f"p{i}", 1, 0.0).encode() for i in range(peers)]
                )
                host, port = server.status.address
                return [await arequest(host, port, line) for line in lines]

        return asyncio.run(scenario())

    def _monitor(self, obs=None):
        from repro.live.monitor import LiveMonitor

        return LiveMonitor(0.1, ["2w-fd"], {"2w-fd": 0.05}, obs=obs)

    def test_refusals_stay_small_at_a_thousand_peers(self):
        """Before the table, ``metrics`` with observability off and any
        unrecognised line got the full snapshot (~300 KB at 1000 peers)."""
        from repro.live.monitor import LiveMonitorServer

        server = LiveMonitorServer(self._monitor(), status_port=0)
        lines = ["metrics", "trace", "diag", "bogus", "summaryx", "deltax",
                 "delta x", "subscribe"]
        full, *refusals = self._ask_server(server, "", *lines, peers=1000)
        assert len(full["peers"]) == 1000
        for line, doc in zip(lines, refusals):
            assert set(doc) == {"error", "commands"}, line
            assert doc["commands"] == ["delta", "summary"], line
            assert len(str(doc)) < 1000, line

    def test_observability_commands_follow_the_bundle(self):
        from repro.live.monitor import LiveMonitorServer
        from repro.obs import Observability

        server = LiveMonitorServer(
            self._monitor(Observability()), status_port=0
        )
        text, trace, diag = self._ask_server(
            server, "metrics", "trace 0", "diag", peers=3
        )
        assert text.startswith("#")
        assert "events" in trace
        assert diag["commands"] == ["delta", "metrics", "summary", "trace"]

    def test_fdaas_table_extends_the_monitor_table(self):
        from repro.fdaas.service import FdaasServer
        from repro.fdaas.tenants import TenantRegistry
        from repro.obs import Observability

        server = FdaasServer(
            self._monitor(Observability()), TenantRegistry(), status_port=0
        )
        full, summary, delta, events, *refusals = self._ask_server(
            server, "", "summary", "delta", "events 0", "subscribed",
            "events x", peers=2,
        )
        assert {"admission", "sla", "events"} <= set(full)
        assert {"admission", "sla"} <= set(summary)
        assert "events" not in summary and "peers" not in summary
        assert {"admission", "sla", "events", "delta"} <= set(delta)
        assert events["cursor"] == len(events["events"])
        for doc in refusals:
            assert doc["commands"] == [
                "delta", "events", "metrics", "subscribe", "summary", "trace",
            ]
