"""Observability for the live runtime: a JSON status endpoint + structured logs.

:class:`StatusServer` answers one request line per TCP connection on a
local port.  Each server hands it a *command table*: the first word of
the request line picks a handler, the rest of the line is its argument.
The tables the runtime builds (``LiveMonitorServer``, ``FdaasServer``,
``ShardedMonitor``) serve these words:

- the empty line — the full snapshot (per-peer detector state, arrival
  counts, freshness points, monitor-load counters).  A client that sends
  nothing gets it too, so bare ``nc 127.0.0.1 <port>`` keeps working;
- ``summary`` — the constant-size head of the snapshot, without ``peers``;
- ``delta [<cursor> [<instance>]]`` — the incremental snapshot: the
  summary head plus only the peer entries changed after generation
  ``cursor`` and the peers removed since, with a ``delta`` block carrying
  the next cursor and this monitor's instance id (line format and
  fallbacks: :mod:`repro.live.delta`);
- ``metrics`` — the Prometheus text exposition (plain text, not JSON);
- ``trace [<cursor>]`` — retained heartbeat trace events past ``cursor``;
- ``diag [<cursor>]`` — the runtime diagnostics document;
- ``events [<cursor>]`` — retained fdaas events past ``cursor``;
- ``subscribe [<cursor>]`` — the only *long-lived* command: the
  connection stays open and every event past ``cursor`` is pushed as one
  JSON line the moment it is published.

A word the table does not hold — including ``metrics``/``trace``/``diag``
on a server whose observability or diagnostics are off, and prefix
collisions such as ``deltax`` — and an argument that does not parse both
get an ``{"error": ...}`` envelope naming the commands this endpoint
serves.  :func:`request`/:func:`arequest` are the one client.

:func:`structured` formats JSON-lines log records: every noteworthy runtime
event (peer discovered, suspicion raised, monitor started/stopped) is
logged as a single JSON object on the ``repro.live.*`` loggers, so a log
collector can consume the live runtime without scraping prose.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
from typing import Callable, Mapping, Tuple

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "StatusServer",
    "arequest",
    "cursor_argument",
    "no_argument",
    "request",
    "structured",
]

logger = logging.getLogger("repro.live.status")

#: Version of the snapshot JSON documents served by the status endpoint
#: (the top-level ``"schema"`` field).  Version 1 is the implicit,
#: unversioned pre-sharding shape; version 2 added the field itself plus
#: the shard-merge additions (``mode``/``n_shards``/``shards``), so
#: clients can tell a single-monitor document from a shard-merged one.
SNAPSHOT_SCHEMA_VERSION = 2

#: How long the server waits for an optional request line before falling
#: back to the full snapshot (keeps bare ``nc`` connections working).
REQUEST_TIMEOUT = 0.25


def structured(event: str, **fields: object) -> str:
    """One JSON-lines log record: ``{"event": ..., **fields}``.

    Values must be JSON-serializable; non-serializable ones are stringified
    rather than raised on (logging must never take the runtime down).
    """
    record = {"event": event, **fields}
    try:
        return json.dumps(record, sort_keys=True)
    except (TypeError, ValueError):
        return json.dumps(
            {k: repr(v) if _unserializable(v) else v for k, v in record.items()},
            sort_keys=True,
        )


def _unserializable(value: object) -> bool:
    try:
        json.dumps(value)
        return False
    except (TypeError, ValueError):
        return True


def no_argument(text: str) -> tuple:
    """Argument parser of a command that takes none."""
    if text:
        raise ValueError(f"takes no argument, got {text!r}")
    return ()


def cursor_argument(text: str) -> tuple:
    """Argument parser of ``<word> [<cursor>]``: one integer, default 0."""
    return (int(text) if text else 0,)


class StatusServer:
    """Serve a command table over local TCP, one reply per connection.

    ``commands`` maps the first word of the request line to a handler, or
    to ``(handler, parse)`` for a command that takes an argument: ``parse``
    turns the rest of the line into the handler's positional arguments and
    raises :class:`ValueError` when it does not parse (a bare handler
    takes no argument).  A handler, plain or async, returns a dict (served
    as one JSON document), a str (served as text) or an async iterator of
    str (a long-lived stream, written chunk by chunk until the client
    hangs up or the server stops).
    """

    def __init__(
        self,
        commands: Mapping[str, Callable | Tuple[Callable, Callable]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._commands = {
            word: entry if isinstance(entry, tuple) else (entry, no_argument)
            for word, entry in commands.items()
        }
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._streams: set = set()  # live stream handler tasks
        self.address: Tuple[str, int] | None = None

    async def start(self) -> Tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        sock = self._server.sockets[0].getsockname()
        self.address = (sock[0], sock[1])
        logger.info(structured("status-started", host=sock[0], port=sock[1]))
        return self.address

    async def _read_request(self, reader: asyncio.StreamReader) -> bytes:
        """The optional one-line request; empty on timeout / silent client."""
        try:
            return await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT)
        except asyncio.TimeoutError:
            return b""

    def _refusal(self, reason: str) -> str:
        """The error envelope for a request this table cannot answer."""
        known = sorted(word for word in self._commands if word)
        return json.dumps(
            {
                "error": f"{reason}; this endpoint serves: "
                f"{', '.join(known)} (an empty line is the full snapshot)",
                "commands": known,
            },
            sort_keys=True,
        ) + "\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await self._read_request(reader)
            parts = line.decode("utf-8", "replace").split(None, 1)
            word = parts[0] if parts else ""
            entry = self._commands.get(word)
            if entry is None:
                body = self._refusal(f"unknown request {word!r}")
            else:
                handler, parse = entry
                try:
                    args = parse(parts[1].strip() if len(parts) > 1 else "")
                except ValueError as exc:
                    body = self._refusal(f"bad argument to {word!r}: {exc}")
                else:
                    reply = handler(*args)
                    if asyncio.iscoroutine(reply):
                        reply = await reply
                    if isinstance(reply, str):
                        body = reply
                    elif hasattr(reply, "__aiter__"):
                        await self._stream(writer, reply)
                        return
                    else:
                        body = json.dumps(reply, sort_keys=True) + "\n"
        except Exception as exc:  # handler bugs must not kill the server
            logger.exception("status request failed")
            body = json.dumps({"error": str(exc)}) + "\n"
        try:
            writer.write(body.encode("utf-8"))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _stream(self, writer: asyncio.StreamWriter, chunks) -> None:
        """A long-lived reply: write each chunk as it comes until the
        client hangs up (or the server stops and cancels the handler)."""
        task = asyncio.current_task()
        self._streams.add(task)
        try:
            async for chunk in chunks:
                writer.write(chunk.encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._streams.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # A stop()-issued cancel is re-delivered on this await;
                # swallowing it lets the handler task finish cleanly
                # instead of ending cancelled (which the stream protocol's
                # completion callback would log as an error).
                pass

    async def stop(self) -> None:
        if self._server is not None:
            # Long-lived stream handlers would otherwise keep
            # wait_closed() hanging on Pythons that await live handlers.
            for task in tuple(self._streams):
                task.cancel()
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            logger.info(structured("status-stopped"))


#: Cap (seconds) of the first retry delay; the client uses *full jitter*
#: — each attempt sleeps uniform(0, RETRY_BACKOFF * 2**attempt) — so a
#: fleet of clients hammering a just-restarted endpoint spreads out
#: instead of retrying in synchronized waves.
RETRY_BACKOFF = 0.1


def _backoff_delay(attempt: int) -> float:
    """Full-jitter exponential backoff: uniform in [0, cap · 2^attempt]."""
    return random.uniform(0.0, RETRY_BACKOFF * (2**attempt))


async def _exchange(
    host: str, port: int, timeout: float, line: bytes
) -> bytes:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        writer.write(line)
        if writer.can_write_eof():
            writer.write_eof()  # tell the server no more request is coming
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return raw


async def arequest(
    host: str,
    port: int,
    line: str,
    *,
    timeout: float = 5.0,
    retries: int = 0,
) -> dict | str:
    """Send one request line to a status endpoint; return its reply.

    ``line`` is a command word and its argument (``""`` for the full
    snapshot, ``"summary"``, ``"delta 42 <instance>"``, ``"metrics"``,
    ...).  A reply starting with ``{`` is decoded to a dict — error
    envelopes included, which are returned rather than raised; anything
    else (the ``metrics`` exposition) is returned as text.  ``retries``
    re-attempts failed connections/reads that many additional times with
    full-jitter exponential backoff (uniform in [0, 0.1 s], [0, 0.2 s],
    [0, 0.4 s], ...) before raising — useful right after launching a
    monitor, whose status port may not be listening yet.
    """
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    data = (line + "\n").encode("utf-8")
    attempt = 0
    while True:
        try:
            raw = await _exchange(host, port, timeout, data)
            break
        except (OSError, asyncio.TimeoutError) as exc:
            if attempt >= retries:
                raise
            delay = _backoff_delay(attempt)
            attempt += 1
            logger.debug(
                "status request to %s:%d failed (%s); retry %d/%d in %.2fs",
                host,
                port,
                exc,
                attempt,
                retries,
                delay,
            )
            await asyncio.sleep(delay)
    text = raw.decode("utf-8")
    return json.loads(text) if text.startswith("{") else text


def request(
    host: str,
    port: int,
    line: str,
    *,
    timeout: float = 5.0,
    retries: int = 0,
) -> dict | str:
    """Synchronous twin of :func:`arequest` (refuses inside an event loop)."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(
            arequest(host, port, line, timeout=timeout, retries=retries)
        )
    raise RuntimeError(
        "request() is synchronous; inside an event loop await "
        "status.arequest(...) instead"
    )
