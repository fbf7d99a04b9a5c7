"""The monitor process of the socket-to-subscriber benchmark.

Builds the service exactly as a user of the library would:
``LiveMonitor`` + ``Observability()`` + ``FdaasServer``, passing only the
workload parameters (heartbeat interval, the ``2w-fd`` detector and its
safety margin, the tenant) and the deployment settings (ephemeral UDP and
status ports).  Every other choice, the ingest path among them, is the
library default, so the benchmark follows the default wherever it moves.

Run by ``perfbench/run.py``; not meant to be started by hand::

    python3 perfbench/monitor.py '<config json>'

The config carries ``interval``, ``margin``, ``tenant`` (``id``, ``key``
as hex or null, ``rate`` or null, ``sla`` dict or null), ``cpu`` (the
CPU to pin the process to, or null), ``trace`` (bool) and ``out`` (where
a traced run writes its records).

The process prints one JSON line when it is serving (ports, pid, the
bracket around the monitor's first ``now()`` call, the chosen ingest
mode, the socket's effective receive buffer) and runs until its standard
input closes.

With ``trace`` set, the public entry points of the monitor, the admission
controller, the SLA tracker and the event broker are wrapped on their
instances before ``start()``; each call becomes a span (name, start, end,
parent, items) kept in memory.  A monitor listener records the
deadline-to-emission wait of every suspicion, a broker listener the
publish instant of every event, ``gc.callbacks`` every collection's
pause, and a probe task the event-loop lag.  At exit the process times
the tracer's own cost: a wrapped no-op call against a bare one, and the
lag probe on an idle loop.  Everything is written to ``out`` as one JSON
document.
"""

from __future__ import annotations

import asyncio
import gc
import inspect
import json
import os
import socket
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.fdaas import FdaasServer, SLATargets, Tenant, TenantRegistry  # noqa: E402
from repro.live import LiveMonitor  # noqa: E402
from repro.obs import Observability  # noqa: E402

#: Public entry points wrapped in a traced run, per component; the item
#: count of a call (datagrams handed over) is read from its arguments.
TRACED = {
    "monitor": {
        "ingest_many": lambda a: len(a[0]),
        "ingest_arena": lambda a: a[0].last_fill,
        "ingest": lambda a: 1,
        "poll": None,
        "delta_snapshot": None,
        "render_metrics": None,
    },
    "admission": {
        "admit": lambda a: 1,
        "filter_arena": lambda a: a[0].last_fill,
    },
    "sla": {"evaluate": None},
    "broker": {"publish": lambda a: 1},
}

#: Period of the event-loop lag probe (seconds): the poll tick, so that a
#: window of 20 s holds 1000 lag samples while the probe's own cost, which
#: lies outside every span, stays a few per cent of the monitor's CPU.
LAG_PROBE_PERIOD = 0.02
#: Wrapper calibration: calls per pass, and passes (the cheapest is kept).
CALIBRATION_CALLS = 100_000
CALIBRATION_PASSES = 5
#: Length of each half of the lag-probe calibration (seconds).
PROBE_CALIBRATION_S = 1.0


class SpanRecorder:
    """Spans of wrapped calls, kept in flat lists until exit.

    A span's start and end are the thread's CPU time, so that time the
    process spent preempted inside a call is not counted as the call's;
    ``wall`` is the CLOCK_MONOTONIC instant the call began, which places
    it in the measured window.  The monitor is single-threaded, so the
    innermost open span is the parent of the next one.
    """

    def __init__(self):
        self.names: list = []
        self.name = []
        self.wall = []
        self.start = []
        self.end = []
        self.parent = []
        self.items = []
        self._stack: list = []

    def wrap(self, obj, attr: str, count) -> None:
        original = getattr(obj, attr)
        if attr in self.names:
            name_id = self.names.index(attr)
        else:
            name_id = len(self.names)
            self.names.append(attr)
        clock = time.thread_time
        wall = time.monotonic
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.wall.append(wall())
            self.start.append(clock())
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.items.append(count(args) if count is not None else 0)
            stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = clock()

        setattr(obj, attr, traced)

    def document(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "wall": self.wall,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "items": self.items,
        }


class _Noop:
    def call(self, arg):
        return None


def calibrate_wrapper() -> dict:
    """Time a wrapped no-op call against a bare one.

    Returns the wrapper's cost per call in seconds: ``outside`` is spent
    before the span opens or after it closes, so in the caller's time;
    ``inside`` is spent within the span, on top of the wrapped call.
    """
    clock = time.thread_time  # the spans' clock
    calls = range(CALIBRATION_CALLS)
    best = None
    for _ in range(CALIBRATION_PASSES):
        recorder = SpanRecorder()
        target = _Noop()
        bare = target.call
        recorder.wrap(target, "call", lambda a: 1)
        wrapped = target.call
        t = clock()
        for _ in calls:
            pass
        t_loop = clock() - t
        t = clock()
        for _ in calls:
            bare(calls)
        t_bare = clock() - t
        t = clock()
        for _ in calls:
            wrapped(calls)
        t_wrapped = clock() - t
        spans = sum(e - s for s, e in zip(recorder.start, recorder.end))
        call = t_bare - t_loop  # the bare calls, which the spans hold
        outside = (t_wrapped - spans - t_bare + call) / len(calls)
        inside = (spans - call) / len(calls)
        if best is None or outside + inside < best["outside"] + best["inside"]:
            best = {"outside": max(outside, 0.0), "inside": max(inside, 0.0)}
    return best


async def calibrate_probe() -> float:
    """CPU seconds one lag-probe iteration costs, on an otherwise idle
    loop: an upper estimate, as a busy loop is awake anyway."""
    cpu = time.process_time
    c = cpu()
    await asyncio.sleep(PROBE_CALIBRATION_S)
    idle = cpu() - c
    lags: list = []
    task = asyncio.create_task(probe_loop_lag(lags))
    c = cpu()
    await asyncio.sleep(PROBE_CALIBRATION_S)
    probed = cpu() - c
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    return max(probed - idle, 0.0) / max(len(lags), 1)


def udp_rcvbuf(port: int) -> int | None:
    """SO_RCVBUF of this process's UDP socket bound to ``port``."""
    for entry in os.listdir("/proc/self/fd"):
        fd = int(entry)
        try:
            sock = socket.socket(fileno=os.dup(fd))
        except OSError:
            continue
        with sock:
            try:
                bound = sock.getsockname()
            except OSError:
                continue
            if sock.type == socket.SOCK_DGRAM and bound[1] == port:
                return sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    return None


async def probe_loop_lag(lags: list) -> None:
    loop = asyncio.get_running_loop()
    while True:
        target = loop.time() + LAG_PROBE_PERIOD
        await asyncio.sleep(LAG_PROBE_PERIOD)
        now = loop.time()
        lags.append((time.monotonic(), now - target))


def instrument(monitor, server) -> dict:
    """Wrap the entry points and attach the listeners of a traced run.

    Returns the records they fill; ``spans`` is the :class:`SpanRecorder`.
    """
    recorder = SpanRecorder()
    components = {
        "monitor": monitor,
        "admission": server.admission,
        "sla": server.sla,
        "broker": server.broker,
    }
    for component, methods in TRACED.items():
        obj = components[component]
        for attr, count in methods.items():
            if hasattr(obj, attr):
                recorder.wrap(obj, attr, count)
    records = {"spans": recorder, "waits": [], "published": {}, "lags": [], "gc": []}

    def on_event(event) -> None:
        if not event.trusting:
            records["waits"].append((time.monotonic(), monitor.now() - event.time))

    def on_publish(event) -> None:
        records["published"][event["id"]] = time.monotonic()

    gc_start = [0.0]

    def on_gc(phase, info) -> None:
        now = time.monotonic()
        if phase == "start":
            gc_start[0] = now
        else:
            records["gc"].append((gc_start[0], now - gc_start[0], info["generation"]))

    monitor.subscribe(on_event)
    server.broker.subscribe(on_publish)
    gc.callbacks.append(on_gc)
    return records


async def main(config: dict) -> None:
    if config["cpu"] is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    obs = Observability()
    monitor = LiveMonitor(
        config["interval"], ["2w-fd"], {"2w-fd": config["margin"]}, obs=obs
    )
    spec = config["tenant"]
    registry = TenantRegistry()
    registry.register(
        Tenant(
            spec["id"],
            key=bytes.fromhex(spec["key"]) if spec["key"] else None,
            rate=spec["rate"],
            sla=SLATargets(**spec["sla"]) if spec["sla"] else None,
        )
    )
    server = FdaasServer(monitor, registry, status_port=0)
    records = instrument(monitor, server) if config["trace"] else None

    # The monitor clock starts at its first now() call; the bracket maps
    # event times onto CLOCK_MONOTONIC, which every process shares.
    epoch_lo = time.monotonic()
    monitor.now()
    epoch_hi = time.monotonic()

    loop = asyncio.get_running_loop()
    stdin_closed = loop.create_future()

    class _StdinWatch(asyncio.Protocol):
        def connection_lost(self, exc):
            if not stdin_closed.done():
                stdin_closed.set_result(None)

    await loop.connect_read_pipe(_StdinWatch, sys.stdin)

    udp_host, udp_port = await server.start()
    probe = None
    if records is not None:
        probe = asyncio.create_task(probe_loop_lag(records["lags"]))
    try:
        status_host, status_port = server.status_address
        ready = {
            "pid": os.getpid(),
            "udp": [udp_host, udp_port],
            "status": [status_host, status_port],
            "epoch": (epoch_lo + epoch_hi) / 2,
            "epoch_bracket_s": epoch_hi - epoch_lo,
            "ingest_mode": monitor.ingest_mode,
            "tick": inspect.signature(FdaasServer).parameters["tick"].default,
            "rcvbuf": udp_rcvbuf(udp_port),
            "cpus": sorted(os.sched_getaffinity(0)),
        }
        sys.stdout.write(json.dumps(ready) + "\n")
        sys.stdout.flush()
        await stdin_closed
    finally:
        if probe is not None:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass
        await server.stop()
    if records is not None:
        records["spans"] = records["spans"].document()
        records["calibration"] = {
            "wrapper": calibrate_wrapper(),
            "probe": await calibrate_probe(),
        }
        with open(config["out"], "w", encoding="utf-8") as fh:
            json.dump(records, fh)


if __name__ == "__main__":
    asyncio.run(main(json.loads(sys.argv[1])))
