"""The generator side of the benchmark: one single-threaded asyncio process.

It starts the monitor process, then talks to it only through the wire
format and the status request lines:

- :class:`Sender` holds one UDP socket and sends the pre-encoded
  datagrams open loop, each at its due instant, however the monitor fares;
- :class:`Subscriber` holds the ``subscribe`` stream and stamps each
  event's receipt;
- :class:`Operator` sends ``delta <cursor> <instance>`` and ``metrics``
  request lines, at most one at a time;
- :class:`KernelSampler` reads the monitor socket's ``rx_queue`` and
  ``drops`` from ``/proc/net/udp``.

:func:`measure` runs one workload end to end and returns raw records;
``analyze.py`` turns them into metrics and checks.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import random
import socket
import sys
import time
from array import array

from workloads import SCRAPE_KEY, Schedule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MONITOR = os.path.join(ROOT, "perfbench", "monitor.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Monitor processes started per run; the last one is measured, and
#: ``setup_s`` is the median over all of them.
SETUP_REPS = 3
#: Bound on any single status request (s).
REQUEST_TIMEOUT = 10.0
#: Period of the kernel socket sampler (s).
KERNEL_PERIOD = 0.1
#: Bound on the monitor start and stop (s).
PROCESS_TIMEOUT = 60.0

clock = time.monotonic


async def request(addr, line: bytes) -> bytes:
    """One status request line; the reply is read to EOF."""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        writer.write(line)
        writer.write_eof()
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def request_json(addr, line: bytes) -> dict:
    raw = await asyncio.wait_for(request(addr, line), REQUEST_TIMEOUT)
    return json.loads(raw)


class Sender:
    """Open-loop beats: each datagram leaves at (or just after) its due
    instant ``t0 + due``; lateness is recorded per datagram, from its due
    instant to the return of its own ``sendto``."""

    def __init__(self, schedule: Schedule, addr):
        self.schedule = schedule
        self.addr = tuple(addr)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        self.t0 = 0.0
        self.n_sent = 0
        self.late = array("d")
        self.send_errors = 0

    async def run(self, t0: float) -> None:
        self.t0 = t0
        due = self.schedule.due
        data = self.schedule.datagrams
        n = len(due)
        sendto = self.sock.sendto
        addr = self.addr
        late = self.late
        i = 0
        try:
            while i < n:
                now = clock() - t0
                while i < n and due[i] <= now:
                    try:
                        sendto(data[i], addr)
                    except OSError:
                        self.send_errors += 1
                    now = clock() - t0
                    late.append(now - due[i])
                    i += 1
                if i < n:
                    await asyncio.sleep(due[i] - (clock() - t0))
        finally:
            self.n_sent = i

    def close(self) -> None:
        self.sock.close()


class Subscriber:
    """The ``subscribe 0`` stream; every event with its receipt instant."""

    def __init__(self, addr):
        self.addr = tuple(addr)
        self.events: list = []
        self.errors = 0
        self._task: asyncio.Task | None = None
        self._writer = None

    async def start(self) -> None:
        reader, self._writer = await asyncio.open_connection(*self.addr)
        self._writer.write(b"subscribe 0\n")
        await self._writer.drain()
        self._task = asyncio.create_task(self._read(reader))

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = clock()
            try:
                self.events.append((received, json.loads(line)))
            except ValueError:
                self.errors += 1

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass


class Operator:
    """Status reader, at most one request at a time: ``delta`` with the
    cursor of the previous reply, and ``metrics`` scrapes.

    Gaps between requests of a kind are drawn from the seed, uniform in
    [0.5, 1.5] times its period, so that reads never lock onto the phase of
    the monitor's periodic poll and SLA loops.
    """

    def __init__(self, addr, delta_period: float, metrics_period: float, seed):
        self.addr = tuple(addr)
        self.period = {b"delta": delta_period, b"metrics": metrics_period}
        self.rng = random.Random(f"operator:{seed}")
        self.delta = []  # (start, round trip s, reply bytes)
        self.metrics = []
        self.errors = []
        self.cursor = b""

    async def prime(self) -> None:
        """One untimed full ``delta``: the cursor the timed reads resume."""
        doc = await request_json(self.addr, b"delta\n")
        d = doc["delta"]
        self.cursor = f" {d['cursor']} {d['instance']}".encode("ascii")

    def _gap(self, kind: bytes) -> float:
        return self.period[kind] * self.rng.uniform(0.5, 1.5)

    async def run(self, duration: float, kinds=(b"delta", b"metrics")) -> None:
        end = clock() + duration
        due = {kind: clock() + self._gap(kind) for kind in kinds}
        while True:
            kind = min(due, key=due.get)
            if due[kind] >= end:
                return
            await asyncio.sleep(max(0.0, due[kind] - clock()))
            await self._request(kind)
            due[kind] = max(due[kind] + self._gap(kind), clock())

    async def _request(self, kind: bytes) -> None:
        line = kind + self.cursor + b"\n" if kind == b"delta" else kind + b"\n"
        t = clock()
        try:
            raw = await asyncio.wait_for(request(self.addr, line), REQUEST_TIMEOUT)
            rtt = clock() - t
            if kind == b"metrics":
                if not raw.startswith(b"#"):
                    raise ValueError(raw[:200].decode("utf-8", "replace"))
            else:
                doc = json.loads(raw)
                if "error" in doc:
                    raise ValueError(doc["error"])
                d = doc["delta"]
                self.cursor = f" {d['cursor']} {d['instance']}".encode("ascii")
        except (OSError, ValueError, KeyError, asyncio.TimeoutError) as exc:
            self.errors.append(f"{line.strip().decode()}: {exc!r}")
        else:
            target = self.metrics if kind == b"metrics" else self.delta
            target.append((t, rtt, len(raw)))


def _socket_inodes(pid: int) -> set:
    inodes = set()
    fd_dir = f"/proc/{pid}/fd"
    for entry in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, entry))
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    return inodes


class KernelSampler:
    """``rx_queue`` and ``drops`` of the monitor's UDP socket, matched in
    ``/proc/net/udp`` by local port and inode."""

    def __init__(self, pid: int, port: int):
        self.port_hex = f":{port:04X}"
        self.inodes = _socket_inodes(pid)
        self.samples = []  # (t, rx_queue bytes, drops)

    def read(self):
        with open("/proc/net/udp", encoding="ascii") as fh:
            next(fh)
            for line in fh:
                f = line.split()
                if f[1].endswith(self.port_hex) and f[9] in self.inodes:
                    rx = int(f[4].split(":")[1], 16)
                    return rx, int(f[12])
        raise RuntimeError("monitor UDP socket not found in /proc/net/udp")

    def sample(self) -> tuple:
        rx, drops = self.read()
        s = (clock(), rx, drops)
        self.samples.append(s)
        return s

    async def run(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(KERNEL_PERIOD)


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class MonitorProcess:
    """One monitor process; stopped by closing its standard input."""

    def __init__(self, config: dict):
        self.config = config
        self.proc = None

    async def start(self) -> dict:
        env = dict(os.environ)
        # A fixed hash seed keeps the monitor's dict and set layouts, and
        # so its memory access pattern, the same from run to run.
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            MONITOR,
            json.dumps(self.config),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), PROCESS_TIMEOUT)
        if not line:
            await self.proc.wait()
            raise RuntimeError(
                f"monitor process exited with code {self.proc.returncode} "
                "before serving"
            )
        return json.loads(line)

    async def stop(self) -> int:
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return proc.returncode if proc is not None else 0
        proc.stdin.close()
        try:
            await asyncio.wait_for(proc.wait(), PROCESS_TIMEOUT)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()
        return proc.returncode


async def _cancel(task) -> None:
    if task is None:
        return
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


async def _await_peers(status, n_peers: int, deadline: float) -> None:
    while True:
        doc = await request_json(status, b"summary\n")
        if doc["monitor"]["n_peers"] >= n_peers:
            return
        if clock() > deadline:
            raise RuntimeError(
                f"monitor saw {doc['monitor']['n_peers']} of {n_peers} peers"
            )
        await asyncio.sleep(0.01)


async def _boundary(status, pid: int, sampler: KernelSampler) -> dict:
    """Counters read at a window boundary."""
    doc = await request_json(status, b"summary\n")
    return {
        "t": clock(),
        "cpu": proc_cpu_seconds(pid),
        "gen_cpu": time.process_time(),
        "accepted": doc["monitor"]["counters"]["accepted"],
        "kernel": sampler.sample(),
    }


def pin_cpus():
    """Pin this process to one CPU and return another for the monitor.

    Left to the scheduler, the two busy processes of a run at times share
    one CPU of a two-CPU host, which swings every latency and the CPU
    cost per beat from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


async def measure(schedule: Schedule, trace: bool) -> dict:
    """Run one workload: set up ``SETUP_REPS`` monitors, measure the last."""
    w = schedule.workload
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"trace-{os.getpid()}.json")
    config = {
        "interval": w.interval,
        "margin": w.margin,
        "tenant": {
            "id": w.tenant,
            "key": SCRAPE_KEY.hex() if w.signed else None,
            "rate": w.rate_limit,
            "sla": w.sla,
        },
        "cpu": pin_cpus(),
        "trace": trace,
        "out": out,
    }
    # Set-up is the monitor's start-up (spawn, imports, bind, the
    # subscribe stream) plus the discovery tail (the schedule's last first
    # beat due until a status reply counts every peer).  The wait for the
    # peers' join instants and first slots is the generator's schedule,
    # not the monitor's, and is left out.
    setup_s = []
    setup_parts = []
    for rep in range(SETUP_REPS):
        monitor = MonitorProcess(config)
        sender = subscriber = send_task = None
        try:
            t_spawn = clock()
            ready = await monitor.start()
            status = tuple(ready["status"])
            subscriber = Subscriber(status)
            await subscriber.start()
            sender = Sender(schedule, ready["udp"])
            t0 = clock()
            send_task = asyncio.create_task(sender.run(t0))
            await _await_peers(status, w.n_peers, t0 + w.warmup)
            startup = t0 - t_spawn
            tail = clock() - (t0 + schedule.last_first_due)
            setup_parts.append((startup, tail))
            setup_s.append(startup + tail)
            if rep < SETUP_REPS - 1:
                continue
            records = await _measure_window(
                schedule, ready, status, sender, send_task, subscriber
            )
        finally:
            await _cancel(send_task)
            if subscriber is not None:
                await subscriber.stop()
            if sender is not None:
                sender.close()
            code = await monitor.stop()
        if code != 0:
            raise RuntimeError(f"monitor process exited with code {code}")
    records["setup_s"] = setup_s
    records["setup_parts"] = setup_parts
    records["ready"] = ready
    if trace:
        with open(out, encoding="utf-8") as fh:
            records["trace"] = json.load(fh)
        os.remove(out)
    return records


async def _measure_window(schedule, ready, status, sender, send_task, subscriber):
    w = schedule.workload
    pid = ready["pid"]
    t0 = sender.t0
    win_start, win_end = schedule.window
    sampler = KernelSampler(pid, ready["udp"][1])
    sampler_task = asyncio.create_task(sampler.run())
    operator = Operator(status, w.delta_period, w.metrics_period, schedule.seed)
    try:
        if w.reads_in_window:
            await operator.prime()
        await asyncio.sleep(max(0.0, t0 + win_start - clock()))
        begin = await _boundary(status, pid, sampler)
        if w.reads_in_window:
            await operator.run(t0 + win_end - clock())
        await asyncio.sleep(max(0.0, t0 + win_end - clock()))
        end = await _boundary(status, pid, sampler)
        t_stop = clock()
        await _cancel(send_task)
        sent = sender.n_sent
        # Let the monitor take in what is already queued, then read every
        # per-peer counter from one full snapshot.
        accepted = -1
        for _ in range(200):
            doc = await request_json(status, b"summary\n")
            _, _, drops = sampler.sample()
            counters = doc["monitor"]["counters"]
            if counters["accepted"] + counters["stale"] + drops >= sent:
                break
            if counters["accepted"] == accepted:
                break
            accepted = counters["accepted"]
            await asyncio.sleep(0.05)
        snapshot = await request_json(status, b"\n")
        final_kernel = sampler.sample()
        # The stream may still carry events published before the snapshot.
        cursor = snapshot["events"]["cursor"]
        for _ in range(100):
            if subscriber.events and subscriber.events[-1][1]["id"] >= cursor:
                break
            await asyncio.sleep(0.02)
        if not w.reads_in_window:
            # Reads at rest: once every peer has been suspected, the
            # monitor holds the workload's state and no beat can be lost.
            await asyncio.sleep(w.interval + w.margin + 0.2)
            await operator.prime()
            await operator.run(w.rest_reads)
    finally:
        await _cancel(sampler_task)
    late = sender.late
    lo = bisect.bisect_left(schedule.due, win_start)
    hi = bisect.bisect_left(schedule.due, win_end)
    return {
        "t0": t0,
        "t_stop": t_stop,
        "begin": begin,
        "end": end,
        "sent": sent,
        "send_errors": sender.send_errors,
        "late_window": list(late[lo:hi]),
        "events": subscriber.events,
        "subscriber_errors": subscriber.errors,
        "operator": {
            "delta": operator.delta,
            "metrics": operator.metrics,
            "errors": operator.errors,
        },
        "kernel": sampler.samples,
        "final_kernel": final_kernel,
        "snapshot": snapshot,
    }
