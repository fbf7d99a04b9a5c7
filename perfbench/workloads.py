"""Workloads of the socket-to-subscriber benchmark and their seeded inputs.

A workload fixes the traffic: how many peers, each peer's heartbeat
interval Δi, the ``2w-fd`` safety margin, the tenant the peers belong to,
how peers fall silent, and when the operator client reads status.  From a
seed, :func:`make_schedule` draws each peer's send phase and the silences,
and pre-encodes every datagram through the library's wire encoder.  The
same seed always gives the same datagrams and the same silences.

Times in a schedule are seconds after sending starts (``t0``).  Beat
``k`` of peer ``p`` is due at ``phase[p] + k·Δi`` and carries sequence
number ``k + 1``.  Peers are grouped in units of ``group`` (a rack); the
units' phases are spread evenly over Δi, from one seeded offset and in a
seeded order, so that every run offers the same smooth rate, without
chance clumps of units on nearly the same phase.  The peers of a rack
share its phase plus a jitter of under ``RACK_JITTER``, as machines on
one clock do.  A peer joins at a seeded instant within the ramp, so the
monitor discovers peers at a bounded rate, and sends from its first slot
after that.  A silence starts just
before a slot of its rack and skips the slots that fall inside it, so
every peer of the rack loses the same number of beats and its sequence
continues after the pause as if those beats had been lost.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

#: HMAC key of the signed tenant (wire v2); the benchmark's own secret.
SCRAPE_KEY = bytes(range(32))


@dataclass(frozen=True)
class Workload:
    name: str
    n_peers: int
    interval: float  # Δi of every peer (s)
    # Peers join at seeded instants spread over this span (s).  Discovery
    # costs the monitor more than a beat: over a 1 s ramp, `scrape`'s 2000
    # signed peers left it up to 110 ms behind (near a full socket
    # buffer), and one `wide` run in 50 dropped beats.
    ramp: float
    margin: float  # 2W-FD safety margin α (s)
    warmup: float  # from t0 to the start of the measured window (s)
    pause: float  # length of one silence (s)
    group: int  # peers silenced together (a rack); 1 = one peer at a time
    n_silences: int  # silenced peers per measured window of 10 s
    signed: bool  # wire v2 with an HMAC trailer from a keyed tenant
    sla: dict | None  # SLA targets of the tenant (None = not enforced)
    rate_limit: float | None  # tenant token-bucket rate (beats/s)
    reads_in_window: bool  # operator reads compete with the window's beats
    delta_period: float  # operator: one `delta` request per period (s)
    metrics_period: float  # operator: one `metrics` scrape per period (s)
    rest_reads: float  # otherwise: read phase after the beats stop (s)

    @property
    def tenant(self) -> str:
        return self.name[0]

    def peer_name(self, index: int) -> str:
        return f"{self.tenant}/p{index:05d}"


WORKLOADS = {
    w.name: w
    for w in (
        # wide: 1000 peers in racks of 20 that share a phase, silenced a
        # rack at a time for three slots (2200 beats/s sent): a per-peer
        # state set far beyond the CPU caches, and a rack's 20 deadlines
        # expire within a poll or two, a burst through the heap and the
        # broker.
        Workload(
            name="wide",
            n_peers=1000,
            interval=0.4,
            ramp=2.0,
            margin=0.2,
            warmup=4.0,
            pause=1.2,
            group=20,
            n_silences=1000,
            signed=False,
            sla=None,
            rate_limit=None,
            reads_in_window=False,
            delta_period=0.0,
            metrics_period=0.05,
            rest_reads=5.0,
        ),
        # narrow: 10 peers at the same 2200 beats/s sent (the same slot
        # rate and the same share of skipped slots), silenced one peer
        # at a time for 25 slots: fixed per-beat costs dominate, each
        # drain sees few peers and the heap stays tiny.
        Workload(
            name="narrow",
            n_peers=10,
            interval=0.004,
            ramp=0.01,
            margin=0.06,
            warmup=1.5,
            pause=0.1,
            group=1,
            n_silences=120,
            signed=False,
            sla=None,
            rate_limit=None,
            reads_in_window=False,
            delta_period=0.0,
            metrics_period=0.05,
            rest_reads=5.0,
        ),
        # scrape: 2000 HMAC-signed peers at 500 slots/s with SLA
        # targets, while an operator polls delta and scrapes metrics:
        # reads compete with writes on one event loop.
        Workload(
            name="scrape",
            n_peers=2000,
            interval=4.0,
            ramp=2.0,
            margin=1.0,
            warmup=10.5,
            pause=4.0,
            group=1,
            n_silences=200,
            signed=True,
            sla={"t_d": 10.0, "t_mr": 1.0, "t_m": 10.0, "p_a": 0.2},
            rate_limit=1000.0,
            reads_in_window=True,
            delta_period=0.05,
            metrics_period=1.0,
            rest_reads=0.0,
        ),
    )
}

#: Silences end this long before the window does, so that their trust
#: events are received inside it (s).
SILENCE_GUARD = 0.3
#: The phases of a rack's peers lie within this span of the rack's phase
#: (s): one poll tick of the monitor, so that a silenced rack's deadlines
#: fall within one or two polls, while each peer's lag behind the poll
#: that finds it expired is its own.
RACK_JITTER = 0.02
#: A silence starts this long before its rack's slot (s), so that float
#: rounding never decides whether a slot is skipped.
SLOT_EPS = 1e-6


@dataclass
class Silence:
    peer: int
    start: float  # first slot not sent is the first one due at or after this
    resume: float  # first slot sent again is the first one due at or after this
    last_due: float  # due instant of the last beat before the pause
    resume_due: float  # due instant of the first beat after the pause


@dataclass
class Schedule:
    workload: Workload
    seed: int
    seconds: float
    silences: List[Silence]
    due: List[float]  # every datagram's due instant, sorted
    peer: List[int]  # the peer of each datagram
    datagrams: List[bytes]
    last_first_due: float  # the latest first beat of any peer

    @property
    def window(self) -> Tuple[float, float]:
        w = self.workload
        return w.warmup, w.warmup + self.seconds

    @property
    def sent_rate(self) -> float:
        """Beats per second the schedule sends over the measured window,
        net of the slots its silences skip."""
        lo, hi = self.window
        n = bisect.bisect_left(self.due, hi) - bisect.bisect_left(self.due, lo)
        return n / self.seconds


def _first_slot_at(phase: float, interval: float, t: float) -> int:
    return max(0, math.ceil((t - phase) / interval - 1e-9))


def _silences(
    w: Workload, rng: random.Random, seconds: float, unit_phases, phases
) -> List[Silence]:
    win_start, win_end = w.warmup, w.warmup + seconds
    # A silence starts up to one Δi after its drawn instant and skips
    # ``slots`` slots, so its first beat after the pause is due at most
    # ``slots + 1`` slots after the draw.
    slots = math.ceil(w.pause / w.interval - 1e-6)
    first = win_start + 0.1
    last = win_end - (slots + 1) * w.interval - SILENCE_GUARD
    if last <= first:
        raise ValueError(f"a window of {seconds} s is too short for {w.name}")
    n = max(1, round(w.n_silences * seconds / 10.0))
    # Silence starts are spread evenly over the window, one unit at a
    # time: a rack of consecutive peers that goes quiet at once, as under
    # a partition, or a single peer when the group is 1.  A unit is
    # silenced again only after it has been trusted again.
    n_units = w.n_peers // w.group
    n_starts = max(1, n // w.group)
    step = (last - first) / n_starts
    busy_until = [0.0] * n_units
    plan: List[Tuple[int, float]] = []
    for i in range(n_starts):
        drawn = first + (i + rng.random()) * step
        unit = rng.choice([u for u in range(n_units) if busy_until[u] < drawn])
        # Just before the unit's next slot: every peer of a rack sends its
        # last beat in the same slot and skips the same slots.
        phase = unit_phases[unit]
        start = phase + _first_slot_at(phase, w.interval, drawn) * w.interval
        start -= SLOT_EPS
        busy_until[unit] = start + w.pause + 3 * w.interval
        plan.extend((unit * w.group + j, start) for j in range(w.group))
    out = []
    for peer, start in plan:
        phase = phases[peer]
        k_last = _first_slot_at(phase, w.interval, start) - 1
        k_res = _first_slot_at(phase, w.interval, start + w.pause)
        out.append(
            Silence(
                peer=peer,
                start=start,
                resume=start + w.pause,
                last_due=phase + k_last * w.interval,
                resume_due=phase + k_res * w.interval,
            )
        )
    out.sort(key=lambda s: s.start)
    return out


def make_schedule(w: Workload, seed: int, seconds: float) -> Schedule:
    """Draw the phases and silences from ``seed``; encode every datagram."""
    from repro.live.wire import Heartbeat

    rng = random.Random(f"{w.name}:{seed}")
    jitter = RACK_JITTER if w.group > 1 else 0.0
    n_units = w.n_peers // w.group
    offset = rng.random()
    order = list(range(n_units))
    rng.shuffle(order)
    unit_phases = [(k + offset) * (w.interval - jitter) / n_units for k in order]
    phases = [
        unit_phases[p // w.group] + rng.uniform(0.0, jitter)
        for p in range(w.n_peers)
    ]
    joins = [rng.uniform(0.0, w.ramp) for _ in range(w.n_peers)]
    silences = _silences(w, rng, seconds, unit_phases, phases)
    skipped: dict = {}
    for s in silences:
        skipped.setdefault(s.peer, []).append((s.start, s.resume))
    # Beats stop on the generator's side after the window; the schedule
    # runs on past it so that they never run out first.
    horizon = w.warmup + seconds + 5.0
    beats = []
    last_first_due = 0.0
    for p in range(w.n_peers):
        gaps = skipped.get(p, ())
        name = w.peer_name(p)
        phase = phases[p]
        first = _first_slot_at(phase, w.interval, joins[p])
        last_first_due = max(last_first_due, phase + first * w.interval)
        for k in range(first, _first_slot_at(phase, w.interval, horizon)):
            due = phase + k * w.interval
            if any(a <= due < b for a, b in gaps):
                continue
            hb = Heartbeat(name, k + 1, due)
            data = hb.encode_signed(SCRAPE_KEY) if w.signed else hb.encode()
            beats.append((due, p, data))
    beats.sort(key=lambda b: b[0])
    return Schedule(
        workload=w,
        seed=seed,
        seconds=seconds,
        silences=silences,
        due=[b[0] for b in beats],
        peer=[b[1] for b in beats],
        datagrams=[b[2] for b in beats],
        last_first_due=last_first_due,
    )
