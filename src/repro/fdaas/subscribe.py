"""Push delivery of fdaas events: broker, local callbacks, stream clients.

The live status endpoint is poll-only by design — one document per
connection.  An SLA, though, is about *reaction time*: a tenant waiting
for a breach alert should not have to guess a polling interval.  This
module adds push on both sides of the wire:

- :class:`EventBroker` — the server-side hub.  Events (monitor
  transitions, SLA breaches/recoveries) are published as plain dicts and
  get a monotonically increasing ``id``; the broker retains the last
  ``capacity`` of them in a ring, fans each one out to registered local
  callbacks, and wakes any coroutine blocked in :meth:`wait`.  The
  ``id`` is the *cursor*: a client that reconnects resumes from the last
  id it saw and misses nothing still retained (``dropped`` in the
  document tells it when the ring outran it).
- the ``events <cursor>`` status command (poll with resume) is read with
  the status plane's one client, :func:`repro.live.status.arequest`;
- :meth:`EventBroker.stream` — the server side of ``subscribe <cursor>``;
- :func:`asubscribe_events` — the push client: a long-lived connection
  to the ``subscribe <cursor>`` status command, yielding each event dict
  the moment the server writes it.

The broker is loop-affine in the same way the rest of the live runtime
is: :meth:`publish` must be called from the event-loop thread (the
monitor's ingest callbacks and the SLA loop both are), so no locks are
needed anywhere.
"""

from __future__ import annotations

import asyncio
import json
import logging
from collections import deque
from typing import AsyncIterator, Callable, Dict, List

__all__ = [
    "DEFAULT_CAPACITY",
    "EventBroker",
    "asubscribe_events",
]

logger = logging.getLogger(__name__)

#: Default event-ring retention.
DEFAULT_CAPACITY = 1024


class EventBroker:
    """Cursor-addressed event ring with callback and coroutine fan-out."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._next_id = 1
        self.n_published = 0
        self.n_listener_errors = 0
        self._listeners: List[Callable[[dict], None]] = []
        self._wakeup: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Publishing (event-loop thread)
    # ------------------------------------------------------------------
    def publish(self, event: Dict) -> int:
        """Stamp, retain, and fan out one event; returns its id.

        The input dict is not mutated; listeners and the ring see a copy
        carrying the assigned ``"id"``.  Listener exceptions are caught
        and counted — one bad subscriber must not lose the event for the
        others (the same contract as the monitor's listener set).
        """
        stamped = {**event, "id": self._next_id}
        self._next_id += 1
        self.n_published += 1
        self._ring.append(stamped)
        for listener in tuple(self._listeners):
            try:
                listener(stamped)
            except Exception:
                self.n_listener_errors += 1
                logger.exception(
                    "event listener %r raised; event %d dropped by it",
                    listener,
                    stamped["id"],
                )
        if self._wakeup is not None:
            self._wakeup.set()
        return stamped["id"]

    # ------------------------------------------------------------------
    # Local callbacks
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[dict], None]) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[dict], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            raise ValueError("listener is not subscribed") from None

    # ------------------------------------------------------------------
    # Cursor reads (status endpoint)
    # ------------------------------------------------------------------
    @property
    def cursor(self) -> int:
        """Id of the most recently published event (0 = none yet)."""
        return self._next_id - 1

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring."""
        return self.n_published - len(self._ring)

    def document(self, since: int = 0) -> dict:
        """Retained events with id > ``since``, as a JSON-able document."""
        events = [e for e in self._ring if e["id"] > since]
        # How much of (since, now] the ring no longer covers: everything
        # the client asked for below the oldest retained id is gone.
        oldest = self._ring[0]["id"] if self._ring else self._next_id
        missed = max(0, min(oldest - 1, self.cursor) - since)
        return {
            "events": events,
            "cursor": self.cursor,
            "dropped": missed,
            "capacity": self.capacity,
        }

    async def wait(self, since: int) -> None:
        """Block until an event with id > ``since`` exists."""
        while self.cursor <= since:
            if self._wakeup is None or self._wakeup.is_set():
                self._wakeup = asyncio.Event()
            await self._wakeup.wait()

    async def stream(self, since: int = 0) -> AsyncIterator[str]:
        """The ``subscribe`` reply: every event past ``since`` as JSON
        lines, one chunk per wake-up, for as long as the reader keeps
        iterating."""
        cursor = since
        while True:
            doc = self.document(cursor)
            if doc["events"]:
                yield "".join(
                    json.dumps(event, sort_keys=True) + "\n"
                    for event in doc["events"]
                )
            cursor = doc["cursor"]
            await self.wait(cursor)


async def asubscribe_events(
    host: str,
    port: int,
    cursor: int = 0,
    *,
    connect_timeout: float = 5.0,
) -> AsyncIterator[dict]:
    """Yield events pushed by a ``subscribe <cursor>`` stream, as they land.

    The generator runs until the server closes the connection (or the
    consumer breaks out / is cancelled, which closes it from this side).
    Each yielded dict carries the broker-assigned ``"id"``; resuming
    after a disconnect is ``asubscribe_events(..., cursor=last_id)``.
    """
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), connect_timeout
    )
    try:
        writer.write(f"subscribe {cursor}\n".encode("ascii"))
        await writer.drain()
        while True:
            line = await reader.readline()
            if not line:
                return  # server closed the stream
            yield json.loads(line.decode("utf-8"))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass
