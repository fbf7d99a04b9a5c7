"""Event broker ring semantics and push/poll clients over a StatusServer."""

import asyncio

import pytest

from repro.fdaas.subscribe import EventBroker, asubscribe_events
from repro.live.status import StatusServer, arequest, cursor_argument, request

OVERALL_DEADLINE = 60.0


class TestBroker:
    def test_ids_start_at_one_and_increase(self):
        broker = EventBroker()
        assert broker.cursor == 0
        assert broker.publish({"type": "a"}) == 1
        assert broker.publish({"type": "b"}) == 2
        assert broker.cursor == 2

    def test_publish_does_not_mutate_the_input(self):
        broker = EventBroker()
        event = {"type": "a"}
        broker.publish(event)
        assert event == {"type": "a"}

    def test_document_resumes_from_cursor(self):
        broker = EventBroker()
        for k in range(5):
            broker.publish({"k": k})
        doc = broker.document(since=3)
        assert [e["id"] for e in doc["events"]] == [4, 5]
        assert doc["cursor"] == 5
        assert doc["dropped"] == 0

    def test_ring_overflow_reports_dropped(self):
        broker = EventBroker(capacity=3)
        for k in range(10):
            broker.publish({"k": k})
        doc = broker.document(since=0)
        assert [e["id"] for e in doc["events"]] == [8, 9, 10]
        assert doc["dropped"] == 7  # ids 1..7 aged out before the read
        assert broker.dropped == 7
        # A cursor inside the retained window misses nothing.
        assert broker.document(since=8)["dropped"] == 0

    def test_listener_fanout_and_error_isolation(self):
        broker = EventBroker()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        broker.subscribe(bad)
        broker.subscribe(seen.append)
        broker.publish({"type": "a"})
        assert [e["type"] for e in seen] == ["a"]
        assert broker.n_listener_errors == 1
        broker.unsubscribe(bad)
        broker.publish({"type": "b"})
        assert broker.n_listener_errors == 1
        with pytest.raises(ValueError):
            broker.unsubscribe(bad)

    def test_wait_wakes_on_publish(self):
        async def scenario():
            broker = EventBroker()
            waiter = asyncio.ensure_future(broker.wait(0))
            await asyncio.sleep(0)  # let the waiter block
            assert not waiter.done()
            broker.publish({"type": "a"})
            await asyncio.wait_for(waiter, OVERALL_DEADLINE)

        asyncio.run(scenario())

    def test_wait_returns_immediately_when_behind(self):
        async def scenario():
            broker = EventBroker()
            broker.publish({"type": "a"})
            await asyncio.wait_for(broker.wait(0), OVERALL_DEADLINE)

        asyncio.run(scenario())

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventBroker(capacity=0)


class TestClients:
    """The ``events`` / ``subscribe`` commands over a real status server."""

    def _server(self, broker):
        return StatusServer(
            {
                "": lambda: {"peers": {}},
                "events": (broker.document, cursor_argument),
                "subscribe": (broker.stream, cursor_argument),
            },
            port=0,
        )

    def test_afetch_events_one_shot(self):
        async def scenario():
            broker = EventBroker()
            broker.publish({"type": "a"})
            broker.publish({"type": "b"})
            server = self._server(broker)
            host, port = await server.start()
            try:
                doc = await arequest(host, port, "events")
                assert [e["type"] for e in doc["events"]] == ["a", "b"]
                doc = await arequest(host, port, "events 1")
                assert [e["type"] for e in doc["events"]] == ["b"]
                assert doc["cursor"] == 2
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_subscribe_receives_pushed_events_without_polling(self):
        async def scenario():
            broker = EventBroker()
            server = self._server(broker)
            host, port = await server.start()
            received = []
            got_two = asyncio.Event()

            async def consume():
                async for event in asubscribe_events(host, port):
                    received.append(event)
                    if len(received) == 2:
                        got_two.set()
                        break

            consumer = asyncio.ensure_future(consume())
            try:
                await asyncio.sleep(0.05)  # consumer connected, stream idle
                broker.publish({"type": "a"})
                broker.publish({"type": "b"})
                await asyncio.wait_for(got_two.wait(), OVERALL_DEADLINE)
                assert [e["type"] for e in received] == ["a", "b"]
                assert [e["id"] for e in received] == [1, 2]
            finally:
                consumer.cancel()
                try:
                    await consumer
                except asyncio.CancelledError:
                    pass
                await server.stop()

        asyncio.run(scenario())

    def test_subscribe_resumes_from_cursor(self):
        async def scenario():
            broker = EventBroker()
            broker.publish({"type": "old"})
            broker.publish({"type": "new"})
            server = self._server(broker)
            host, port = await server.start()

            async def first_after(cursor):
                async for event in asubscribe_events(host, port, cursor=cursor):
                    return event

            try:
                event = await asyncio.wait_for(first_after(1), OVERALL_DEADLINE)
                assert event["type"] == "new" and event["id"] == 2
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_server_stop_closes_live_streams(self):
        async def scenario():
            broker = EventBroker()
            server = self._server(broker)
            host, port = await server.start()
            stream_ended = asyncio.Event()

            async def consume():
                async for _ in asubscribe_events(host, port):
                    pass  # pragma: no cover - nothing is ever pushed
                stream_ended.set()

            consumer = asyncio.ensure_future(consume())
            await asyncio.sleep(0.05)  # the stream is up and blocked
            await asyncio.wait_for(server.stop(), OVERALL_DEADLINE)
            await asyncio.wait_for(stream_ended.wait(), OVERALL_DEADLINE)
            await consumer

        asyncio.run(scenario())

    def test_fetch_events_sync_wrapper(self):
        async def scenario():
            broker = EventBroker()
            broker.publish({"type": "a"})
            server = self._server(broker)
            await server.start()
            return broker, server.address

        # Run server in a background loop thread so the sync client has
        # no running loop of its own.
        import threading

        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            broker, (host, port) = asyncio.run_coroutine_threadsafe(
                scenario(), loop
            ).result(OVERALL_DEADLINE)
            doc = request(host, port, "events")
            assert [e["type"] for e in doc["events"]] == ["a"]
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(OVERALL_DEADLINE)
            loop.close()

    def test_fetch_events_refuses_inside_a_loop(self):
        async def scenario():
            with pytest.raises(RuntimeError, match="arequest"):
                request("127.0.0.1", 1, "events")

        asyncio.run(scenario())
