"""The live monitor daemon (process q) over real UDP sockets.

:class:`LiveMonitor` is the transport-free engine: it decodes heartbeat
datagrams (:mod:`repro.live.wire`), maintains one set of online detectors
per peer (any names from :mod:`repro.detectors.registry`), polls liveness,
and emits a subscribe-able stream of :class:`LiveEvent` suspicion/trust
transitions — the live analogue of :class:`repro.qos.timeline.OutputTimeline`.
:meth:`LiveMonitor.timelines` converts a finished run into real
``OutputTimeline`` objects, so :func:`repro.qos.metrics.compute_metrics`
scores a live run exactly as it scores a replayed one.

The liveness poll is scheduled by a lazy-deletion min-heap of suspicion
deadlines with **one entry per peer** — the minimum over that peer's
detectors' freshness points.  Every accepted heartbeat pushes the new
minimum (the old entry is superseded in place via the peer's ``sched``
field and discarded on pop); :meth:`LiveMonitor.poll` pops only entries
whose deadline has passed, advances *all* of the popped peer's detectors,
and re-schedules the earliest still-pending deadline.  Because the
per-peer minimum is ≤ every detector deadline, no expiry can be missed,
and a poll costs O(expired peers · log n) with exactly one heap push per
accepted heartbeat however many detectors are configured.  The pre-heap
full sweep survives as ``poll_mode="sweep"``, the reference the
equivalence property tests and the live benchmark compare against.

:class:`LiveMonitorServer` binds the engine to an asyncio UDP endpoint and
one poll timer, armed at the heap's earliest live deadline (at most
``tick`` away), so an expiry is materialized at its freshness point
rather than on the next tick; optionally alongside the JSON status
endpoint (:mod:`repro.live.status`).

All detector inputs are ``(seq, arrival)`` with arrivals on the *monitor's*
monotonic clock, relative to the monitor's start — sender clocks (and any
chaos-injected skew) never enter the detection path, only the
observability fields of the status snapshot.
"""

from __future__ import annotations

import asyncio
import heapq
import logging
import math
import socket
import time
import uuid
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro._validation import ensure_positive
from repro.core.arrivalstats import SharedArrivalState
from repro.core.base import HeartbeatFailureDetector
from repro.detectors.registry import make_tuned
from repro.live.delta import delta_argument
from repro.live.status import (
    SNAPSHOT_SCHEMA_VERSION,
    StatusServer,
    cursor_argument,
    structured,
)
from repro.live.wire import (
    Heartbeat,
    WireError,
    decode_fields,
    decode_fields_from,
)
from repro.obs.diag import install_sigusr1, restore_sigusr1
from repro.obs.metrics import log_buckets
from repro.obs.runtime import Observability
from repro.qos.timeline import OutputTimeline

__all__ = ["LiveEvent", "LiveMonitor", "LiveMonitorServer", "PeerStatus"]

logger = logging.getLogger("repro.live.monitor")

#: Time constant (seconds) of the decayed heartbeat-rate estimate.
RATE_TAU = 10.0


@dataclass(frozen=True)
class LiveEvent:
    """One detector output transition, as observed by the live monitor.

    ``time`` is the exact transition instant on the monitor clock (the
    freshness-point expiry for suspicions, the heartbeat arrival for trust
    renewals) — not the polling tick that materialized it.
    """

    time: float
    peer: str
    detector: str
    trusting: bool

    @property
    def kind(self) -> str:
        return "trust" if self.trusting else "suspect"


class _EventLog:
    """Ring buffer of emitted events with O(1) total/dropped accounting."""

    __slots__ = ("_events", "max_events", "total")

    def __init__(self, max_events: int | None):
        if max_events is not None:
            ensure_positive(max_events, "max_events")
        self.max_events = max_events
        self._events: deque = deque(maxlen=max_events)
        self.total = 0

    def append(self, event: LiveEvent) -> None:
        self._events.append(event)
        self.total += 1

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        return self.total - len(self._events)

    def as_list(self) -> List[LiveEvent]:
        return list(self._events)


class _ListenerSet:
    """Subscriber callbacks that can never take the detection path down.

    A listener that raises is caught, counted, and logged — one bad
    subscriber must not abort ``ingest``/``poll`` mid-drain (nor starve
    the listeners registered after it).
    """

    __slots__ = ("_listeners", "n_errors")

    def __init__(self) -> None:
        self._listeners: List[Callable[[LiveEvent], None]] = []
        self.n_errors = 0

    def __len__(self) -> int:
        return len(self._listeners)

    def subscribe(self, listener: Callable[[LiveEvent], None]) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[LiveEvent], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            raise ValueError("listener is not subscribed") from None

    def emit(self, event: LiveEvent) -> None:
        for listener in tuple(self._listeners):
            try:
                listener(event)
            except Exception:
                self.n_errors += 1
                logger.exception(
                    "event listener %r raised; event %s dropped by it",
                    listener,
                    event,
                )


class _RateMeter:
    """Exponentially decayed event-rate estimate (events/second).

    A decayed counter ``N`` (half-life ``tau·ln 2``) is bumped per event;
    ``N/tau`` estimates the recent rate with O(1) state — no timestamp
    history, so it works at any peer count.
    """

    __slots__ = ("_tau", "_counter", "_last")

    def __init__(self, tau: float = RATE_TAU):
        self._tau = tau
        self._counter = 0.0
        self._last: float | None = None

    def _decay(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self._counter *= math.exp((self._last - now) / self._tau)
        if self._last is None or now > self._last:
            self._last = now

    def update(self, now: float) -> None:
        self._decay(now)
        self._counter += 1.0

    def update_many(self, now: float, count: int) -> None:
        """One decay + one bump for a whole batch of events at ``now``."""
        self._decay(now)
        self._counter += count

    def rate(self, now: float) -> float:
        self._decay(now)
        return self._counter / self._tau


class _PeerState:
    """Everything the monitor tracks about one heartbeat sender."""

    __slots__ = (
        "name",
        "index",
        "detectors",
        "det_list",
        "fast_dets",
        "mid_dets",
        "slow_dets",
        "stats",
        "sched",
        "touch",
        "consumed",
        "consumed_total",
        "n_datagrams",
        "n_accepted",
        "n_stale",
        "first_arrival",
        "last_arrival",
        "last_timestamp",
        "last_seq",
        "gen",
        "removed",
    )

    def __init__(
        self,
        name: str,
        index: int,
        detectors: Dict[str, HeartbeatFailureDetector],
        stats: SharedArrivalState | None = None,
    ):
        self.name = name
        self.index = index  # discovery order: fixes the event drain order
        self.detectors = detectors
        # Flat hot-loop view: (name, detector, output, receive_accepted,
        # fast deadline).  The fast deadline is the detector's bound
        # _deadline when shared arrivals are bound and its _update is then
        # a guaranteed no-op (shared_update_noop): the batched loop then
        # applies the receive_shared body inline — deadline, output,
        # bookkeeping — without the method frame.  None means the detector
        # keeps per-message private state and must go through
        # receive_accepted.  Bound methods resolved once per peer, not
        # once per datagram.
        self.det_list = tuple(
            (
                dname,
                det,
                det._output,
                det.receive_accepted,
                det._deadline
                if (det.shared_arrivals and det.shared_update_noop)
                else None,
            )
            for dname, det in detectors.items()
        )
        # The same detectors split by batched-ingest dispatch kind, so the
        # hot loop iterates three homogeneous tuples instead of branching
        # per detector: *fast* (shared arrivals, no-op _update — only the
        # deadline and output remain), *mid* (shared arrivals but a
        # stateful _update, e.g. bertier's Jacobson margin), *slow*
        # (private estimation state; full receive_accepted).
        fast, mid, slow = [], [], []
        for det in detectors.values():
            if det.shared_arrivals and det.shared_update_noop:
                fast.append((det, det._output, det._deadline))
            elif det.shared_arrivals:
                mid.append((det, det._output, det._shared_receive))
            else:
                slow.append((det, det._output, det.receive_accepted))
        self.fast_dets = tuple(fast)
        self.mid_dets = tuple(mid)
        self.slow_dets = tuple(slow)
        self.stats = stats  # shared arrival statistics (None = private mode)
        # The peer's currently scheduled heap deadline (min over its
        # detectors' freshness points); None = no valid entry on the heap.
        # A popped entry is acted on only if it matches — lazy deletion.
        self.sched: float | None = None
        # Drain serial of the last batch that touched this peer — the
        # batched path's O(1)-per-datagram distinct-peer (fan-in) counter.
        self.touch = -1
        self.consumed = {det: 0 for det in detectors}  # absolute drain cursors
        self.consumed_total = 0  # sum of the cursors (one-comparison drain check)
        self.n_datagrams = 0
        self.n_accepted = 0
        self.n_stale = 0
        self.first_arrival: float | None = None
        self.last_arrival: float | None = None
        self.last_timestamp: float | None = None
        self.last_seq = 0
        # Snapshot generation of the last entry-visible change (the delta
        # dirty-set stamp); 0 predates every cursor, so a fresh peer is
        # always included until stamped.
        self.gen = 0
        # Tombstoned by remove_peer: the slot in _peer_by_index survives
        # (heap indices stay valid) but heavy state is dropped and the
        # engines must never re-register the name.
        self.removed = False


@dataclass(frozen=True)
class PeerStatus:
    """JSON-able per-peer snapshot line (one entry of ``snapshot()``)."""

    peer: str
    n_datagrams: int
    n_accepted: int
    n_stale: int
    last_seq: int
    last_arrival: float | None
    clock_offset_estimate: float | None
    detectors: Dict[str, dict]

    def as_dict(self) -> dict:
        return {
            "peer": self.peer,
            "n_datagrams": self.n_datagrams,
            "n_accepted": self.n_accepted,
            "n_stale": self.n_stale,
            "last_seq": self.last_seq,
            "last_arrival": self.last_arrival,
            "clock_offset_estimate": self.clock_offset_estimate,
            "detectors": self.detectors,
        }


class LiveMonitor:
    """Per-peer online failure detection over decoded heartbeat datagrams.

    Parameters
    ----------
    interval:
        The heartbeat interval Δi peers were asked to send at (a protocol
        parameter, as in the paper's model).
    detectors:
        Registry names to run for every peer; each peer gets its own
        instances.
    params:
        ``name -> tuning value`` routed through
        :func:`repro.detectors.registry.make_tuned` (None / missing for the
        self-configuring detectors).
    clock:
        Monotonic time source (injectable for tests).
    poll_mode:
        ``"heap"`` (default) schedules expiries on the deadline heap —
        O(expired · log n) per poll; ``"sweep"`` is the reference full
        walk over every peer and detector — O(peers · detectors) per
        poll.  Both emit identical event streams.
    estimation:
        ``"shared"`` (default) gives each peer one
        :class:`repro.core.arrivalstats.SharedArrivalState` pushed once
        per accepted heartbeat; detectors whose window configuration
        matches consume the shared windows instead of private copies
        (detectors that cannot share — e.g. ``bertier``, which reads its
        estimator *before* the push — keep private state automatically).
        ``"private"`` keeps every detector's estimation state private,
        exactly as before.  Both modes emit bitwise-identical event
        streams; shared mode just pays the window pushes once per peer
        instead of once per detector.
    max_events:
        Ring-buffer capacity for the retained event history (``None`` =
        unbounded).  Totals and drop counts stay exact either way.
    transition_retention:
        Per-detector transition-log compaction: retain at most this many
        log entries per detector (``None`` = full history).  Running
        suspicion counters stay exact; :meth:`timelines` is exact over
        the retained window (full history when off).
    obs:
        An :class:`repro.obs.runtime.Observability` bundle (``None`` =
        observability off, the default — near-zero hot-path cost).  When
        given, the monitor registers a scrape-time collector that mirrors
        its running totals into Prometheus counters, exports per-(peer,
        detector) QoS gauges (rolling T_MR/T_M/P_A from ``obs.qos``, plus
        the projected T_D — freshness point minus last arrival), observes
        ingest batch sizes into a histogram, and — when ``obs.tracer`` is
        set — records heartbeat lifecycle trace events (sampled by the
        tracer's ``sample_every``).
    adaptive_controller:
        A pre-configured
        :class:`repro.live.adaptive.AdaptiveIngestController` to use in
        place of the default policy (``ingest_mode="adaptive"`` only —
        any other mode raises).  Lets callers tune the hysteresis
        thresholds, minimum dwell, and EWMA smoothing; if the columnar
        engine is unavailable the monitor still pins the supplied
        controller to the batched path.
    """

    def __init__(
        self,
        interval: float,
        detectors: Sequence[str] = ("2w-fd",),
        params: Mapping[str, float | None] | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        poll_mode: str = "heap",
        estimation: str = "shared",
        ingest_mode: str = "batched",
        max_events: int | None = None,
        transition_retention: int | None = None,
        obs: Observability | None = None,
        adaptive_controller=None,
    ):
        ensure_positive(interval, "interval")
        if not detectors:
            raise ValueError("at least one detector name is required")
        if poll_mode not in ("heap", "sweep"):
            raise ValueError(
                f"poll_mode must be 'heap' or 'sweep', got {poll_mode!r}"
            )
        if estimation not in ("shared", "private"):
            raise ValueError(
                f"estimation must be 'shared' or 'private', got {estimation!r}"
            )
        if ingest_mode not in ("scalar", "batched", "vectorized", "adaptive"):
            raise ValueError(
                f"ingest_mode must be 'scalar', 'batched', 'vectorized' or "
                f"'adaptive', got {ingest_mode!r}"
            )
        if ingest_mode in ("vectorized", "adaptive") and estimation != "shared":
            raise ValueError(
                f"ingest_mode={ingest_mode!r} computes over the shared "
                "per-peer arrival statistics; it requires estimation='shared'"
            )
        if adaptive_controller is not None and ingest_mode != "adaptive":
            raise ValueError(
                "adaptive_controller only applies with ingest_mode='adaptive'"
            )
        if transition_retention is not None:
            ensure_positive(transition_retention, "transition_retention")
        self._interval = float(interval)
        self._params = dict(params or {})
        unknown = set(self._params) - set(detectors)
        if unknown:
            raise ValueError(
                f"params given for detectors not being run: {sorted(unknown)}"
            )
        self._detector_names = tuple(detectors)
        # Fail fast on bad names/params (satellite: friendly errors up
        # front, not TypeErrors when the first heartbeat arrives) — and,
        # while the probe instances are in hand, learn which of the
        # configured detectors can consume shared arrival statistics.
        self._estimation = estimation
        self._ingest_mode = ingest_mode
        probe_stats = SharedArrivalState(float(interval))
        shared_names: List[str] = []
        probe_dets: Dict[str, HeartbeatFailureDetector] = {}
        for name in self._detector_names:
            det = make_tuned(name, self._interval, self._params.get(name))
            probe_dets[name] = det
            if estimation == "shared" and det.bind_shared_arrivals(probe_stats):
                shared_names.append(name)
        self._shared_names = tuple(shared_names)
        self._peers: Dict[str, _PeerState] = {}
        self._peer_by_index: List[_PeerState] = []
        self._clock = clock
        self._epoch: float | None = None
        self._poll_mode = poll_mode
        self._retention = transition_retention
        # Lazy-deletion deadline heap: (deadline, peer index), one live
        # entry per peer — the min over its detectors' freshness points.
        # Entries are never removed on supersede; a popped entry is acted
        # on only if it still matches the peer's ``sched`` field.
        self._heap: List[Tuple[float, int]] = []
        self._listeners = _ListenerSet()
        self._events = _EventLog(max_events)
        self._rate = _RateMeter()
        self.n_malformed = 0
        # Reject attribution (malformed datagrams): per-reason counts keyed
        # by WireError.reason, per-source counts keyed by "host:port" (a
        # bounded map — beyond _MAX_REJECT_SOURCES distinct sources the
        # remainder aggregates under "other"), and the last reject seen.
        self.reject_reasons: Dict[str, int] = {}
        self.reject_sources: Dict[str, int] = {}
        self.last_reject: dict | None = None
        self.n_polls = 0
        self.n_batches = 0
        # Monitor-level ingest totals (the per-peer counters' sum, kept
        # incrementally so the summary head stays constant-size).
        self.n_received_total = 0
        self.n_accepted_total = 0
        self.n_stale_total = 0
        self.last_batch_size: int | None = None
        self.last_poll_duration: float | None = None
        self.last_poll_stats: dict | None = None
        # Datagrams that reached the decoders without ever being copied
        # out of the receive arena (the zero-copy ingest path).
        self.n_zero_copy_datagrams = 0
        self._obs = obs
        self._tracer = obs.tracer if obs is not None else None
        # Runtime diagnostics plane (repro.obs.diag): the sampled stage
        # timer and the flight recorder, cached as attributes so the hot
        # paths pay one None check when diagnostics are off.
        diag = obs.diag if obs is not None else None
        self._diag = diag
        self._ptimer = diag.timer if diag is not None else None
        self._recorder = diag.recorder if diag is not None else None
        self.last_drain_mode: str | None = None
        self._m_batch_hist = None
        self._m_arena_hist = None
        self._m_mode_drains = None
        self._m_drain_hist = None
        self._engine = None
        self._adaptive = None
        # True while the columnar engine is the state authority for ingest
        # (always, in vectorized mode; phase-dependent in adaptive mode).
        self._columnar = False
        # Drains handled per path (all modes; mirrored into the
        # repro_ingest_mode_drains_total counter at scrape time).
        self.ingest_drains: Dict[str, int] = {
            "scalar": 0, "batched": 0, "vectorized": 0,
        }
        self.last_drain_fanin: int | None = None
        self.n_mode_switches = 0
        self._drain_serial = 0
        # --- Delta-snapshot state ---------------------------------------
        # A monotone generation bumped at the entry of every mutating call
        # (ingest/ingest_many/ingest_arena/poll/remove_peer/timelines);
        # each peer whose *entry-visible* state changed is stamped with
        # the current value, so `delta_snapshot(since)` returns exactly
        # the peers with gen > since.  The instance id distinguishes this
        # monitor's generation sequence from a restarted one's: a cursor
        # minted against a previous process must force a full snapshot.
        self._status_gen = 0
        self._status_instance = uuid.uuid4().hex
        # Removed-peer tombstones: peer -> generation of the removal.  The
        # map is bounded; compaction raises _tombstone_floor so cursors
        # older than a dropped tombstone fall back to a full snapshot
        # instead of silently missing the removal.
        self._tombstones: Dict[str, int] = {}
        self._tombstone_floor = 0
        if ingest_mode == "vectorized":
            # Deferred import: the engine module is only needed (and its
            # numpy/array backend only chosen) when vectorized mode is on.
            from repro.live.ingest import build_engine

            # Raises ValueError here for detector classes outside the
            # registry (every registry detector has a kernel).
            self._engine = build_engine(self, probe_dets)
            self._columnar = True
        elif ingest_mode == "adaptive":
            # Adaptive mode switches each drain between the batched scalar
            # path and the vectorized columnar path.  Without numpy the
            # columnar path has no edge (the array fallback is per-row
            # Python too), so the controller pins itself to batched and no
            # engine is built.
            from repro.live import ingest as ingest_mod
            from repro.live.adaptive import AdaptiveIngestController

            if ingest_mod._HAVE_NUMPY:
                self._engine = ingest_mod.VectorizedIngestEngine(
                    self, probe_dets
                )
            else:
                # Still validate the detector set exactly as vectorized
                # construction would (custom classes fail fast here too).
                ingest_mod._build_specs(probe_dets)
            if adaptive_controller is not None:
                # Caller-tuned policy (thresholds, dwell, smoothing); the
                # engine's absence still pins it to the batched path.
                self._adaptive = adaptive_controller
                if self._engine is None:
                    self._adaptive.columnar_available = False
            else:
                self._adaptive = AdaptiveIngestController(
                    columnar_available=self._engine is not None
                )
        if obs is not None:
            self._bind_obs(obs)

    # ------------------------------------------------------------------
    # Observability binding (all derived work happens at scrape time)
    # ------------------------------------------------------------------
    def _bind_obs(self, obs: Observability) -> None:
        reg = obs.registry
        self._m_batch_hist = reg.histogram(
            "repro_ingest_batch_size",
            "Datagrams handed to one LiveMonitor.ingest_many call.",
            buckets=log_buckets(1.0, 4096.0, 3),
        )
        self._m_arena_hist = reg.histogram(
            "repro_ingest_arena_occupancy",
            "Fraction of arena slots filled per zero-copy drain.",
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
        )
        self._m_mode_drains = reg.counter(
            "repro_ingest_mode_drains_total",
            "Socket drains executed, by the ingest path that handled them.",
            ("mode",),
        )
        self._m_drain_hist = reg.histogram(
            "repro_ingest_drain_seconds",
            "Wall time of one adaptive-mode drain, by the path chosen "
            "for it (the controller's cost signal, exported).",
            ("mode",),
            buckets=log_buckets(1e-5, 1.0, 3),
        )
        self._m_zero_copy = reg.counter(
            "repro_datagrams_zero_copy_total",
            "Datagrams decoded in place from the receive arena (no copy).",
        )
        self._m_received = reg.counter(
            "repro_heartbeats_received_total",
            "Datagrams that decoded as heartbeats.",
        )
        self._m_accepted = reg.counter(
            "repro_heartbeats_accepted_total",
            "Heartbeats accepted as sequence-fresh.",
        )
        self._m_stale = reg.counter(
            "repro_heartbeats_stale_total",
            "Heartbeats discarded as stale or duplicate.",
        )
        self._m_malformed = reg.counter(
            "repro_datagrams_malformed_total",
            "Datagrams dropped by the wire decoder.",
        )
        self._m_rejected = reg.counter(
            "repro_datagrams_rejected_total",
            "Wire-decoder rejects broken down by reason code.",
            ("reason",),
        )
        self._m_events = reg.counter(
            "repro_events_total",
            "Suspect/trust transitions emitted by the monitor.",
        )
        self._m_events_dropped = reg.counter(
            "repro_events_dropped_total",
            "Emitted events that aged out of the bounded event history.",
        )
        self._m_listener_errors = reg.counter(
            "repro_listener_errors_total",
            "Exceptions raised (and contained) by event listeners.",
        )
        self._m_polls = reg.counter(
            "repro_polls_total", "Liveness polls executed."
        )
        self._m_batches = reg.counter(
            "repro_ingest_batches_total", "ingest_many calls executed."
        )
        self._m_transitions = reg.counter(
            "repro_detector_transitions_total",
            "Output transitions per detector instance.",
            ("peer", "detector"),
        )
        self._m_suspicions = reg.counter(
            "repro_detector_suspicions_total",
            "S-transitions (mistakes, absent crashes) per detector instance.",
            ("peer", "detector"),
        )
        self._g_peers = reg.gauge(
            "repro_monitor_peers", "Peers currently being monitored."
        )
        self._g_heap = reg.gauge(
            "repro_monitor_heap_size",
            "Live + stale entries on the deadline heap.",
        )
        self._g_rate = reg.gauge(
            "repro_heartbeat_rate",
            "Decayed heartbeats/second over all peers (tau = 10 s).",
        )
        self._g_poll = reg.gauge(
            "repro_last_poll_seconds", "Duration of the last liveness poll."
        )
        self._g_td = reg.gauge(
            "repro_qos_t_d",
            "Projected detection time: freshness point minus last arrival "
            "(time a crash right after the last heartbeat needs to surface).",
            ("peer", "detector"),
        )
        self._g_tmr = reg.gauge(
            "repro_qos_t_mr",
            "Rolling mistake rate (S-transitions/second) over the QoS window.",
            ("peer", "detector"),
        )
        self._g_tm = reg.gauge(
            "repro_qos_t_m",
            "Rolling mean mistake duration over the QoS window.",
            ("peer", "detector"),
        )
        self._g_pa = reg.gauge(
            "repro_qos_p_a",
            "Rolling query accuracy (fraction of window trusted).",
            ("peer", "detector"),
        )
        if obs.tracer is not None:
            self._m_trace = reg.counter(
                "repro_trace_events_total", "Trace events recorded."
            )
            self._m_trace_dropped = reg.counter(
                "repro_trace_dropped_total",
                "Trace events that fell off the ring buffer.",
            )
        if obs.qos is not None:
            self.subscribe(obs.qos.on_event)
        reg.add_collect_hook(self._obs_collect)

    def _counter_totals(self) -> dict:
        """Top-level ingest/drop/transition totals — the **single source**
        read by both the status summary and the metrics collector, so the
        two surfaces cannot drift."""
        return {
            "received": self.n_received_total,
            "accepted": self.n_accepted_total,
            "stale": self.n_stale_total,
            "malformed": self.n_malformed,
            "transitions": self._events.total,
            "events_dropped": self._events.dropped,
            "listener_errors": self._listeners.n_errors,
        }

    def _obs_collect(self) -> None:
        """Scrape-time collector: mirror running totals, refresh gauges."""
        if self._columnar:
            self._engine.sync_all()
        now = self.now()
        totals = self._counter_totals()
        self._m_received.set_total(totals["received"])
        self._m_accepted.set_total(totals["accepted"])
        self._m_stale.set_total(totals["stale"])
        self._m_malformed.set_total(totals["malformed"])
        for reason, count in self.reject_reasons.items():
            self._m_rejected.labels(reason).set_total(count)
        self._m_events.set_total(totals["transitions"])
        self._m_events_dropped.set_total(totals["events_dropped"])
        self._m_listener_errors.set_total(totals["listener_errors"])
        self._m_polls.set_total(self.n_polls)
        self._m_batches.set_total(self.n_batches)
        self._m_zero_copy.set_total(self.n_zero_copy_datagrams)
        for mode, count in self.ingest_drains.items():
            if count:
                self._m_mode_drains.labels(mode).set_total(count)
        self._g_peers.set(len(self._peers))
        self._g_heap.set(len(self._heap))
        self._g_rate.set(self._rate.rate(now))
        if self.last_poll_duration is not None:
            self._g_poll.set(self.last_poll_duration)
        for peer, state in self._peers.items():
            last_arrival = state.last_arrival
            for name, det in state.detectors.items():
                self._m_transitions.labels(peer, name).set_total(
                    det.n_transitions
                )
                self._m_suspicions.labels(peer, name).set_total(
                    det.n_suspicions
                )
                deadline = det.suspicion_deadline
                if deadline is not None and last_arrival is not None:
                    self._g_td.labels(peer, name).set(deadline - last_arrival)
        obs = self._obs
        if obs.qos is not None:
            for (peer, name), m in obs.qos.all_metrics(now):
                self._g_tmr.labels(peer, name).set(m["t_mr"])
                self._g_tm.labels(peer, name).set(m["t_m"])
                self._g_pa.labels(peer, name).set(m["p_a"])
        if obs.tracer is not None:
            self._m_trace.set_total(obs.tracer.n_recorded)
            self._m_trace_dropped.set_total(obs.tracer.n_dropped)

    # ------------------------------------------------------------------
    @property
    def observability(self) -> Observability | None:
        """The bound observability bundle (``None`` = off)."""
        return self._obs

    def render_metrics(self) -> str:
        """Prometheus text exposition of the bound registry.

        Raises :class:`RuntimeError` when observability is off — callers
        wanting a scrape endpoint must construct the monitor with ``obs``.
        """
        if self._obs is None:
            raise RuntimeError(
                "observability is off for this monitor (constructed without "
                "obs=Observability(...))"
            )
        return self._obs.render_metrics()

    def trace_document(self, since: int = 0) -> dict:
        """The trace-follow response document (see ``HeartbeatTracer``)."""
        if self._obs is None:
            return {"cursor": 0, "dropped": 0, "events": [], "tracing": False}
        return self._obs.trace_document(since)

    def diag_document(self, since: int = 0) -> dict:
        """The ``diag`` response: stage timings, watchdog state, flight
        records — plus the adaptive controller's view when that mode is
        on (its mode choices explain the per-mode stage numbers)."""
        if self._obs is None or self._obs.diag is None:
            return {"diagnostics": False}
        doc = self._obs.diag.document(since)
        if self._adaptive is not None:
            doc["controller"] = self._adaptive.as_dict()
        return doc

    # ------------------------------------------------------------------
    @property
    def interval(self) -> float:
        return self._interval

    @property
    def detector_names(self) -> Tuple[str, ...]:
        return self._detector_names

    @property
    def poll_mode(self) -> str:
        return self._poll_mode

    @property
    def estimation(self) -> str:
        """``"shared"`` or ``"private"`` arrival-statistics mode."""
        return self._estimation

    @property
    def ingest_mode(self) -> str:
        """``"scalar"``, ``"batched"``, ``"vectorized"`` or ``"adaptive"``."""
        return self._ingest_mode

    @property
    def columnar_active(self) -> bool:
        """Whether the columnar engine currently owns the ingest state
        (always in vectorized mode; phase-dependent in adaptive mode)."""
        return self._columnar

    @property
    def adaptive_controller(self):
        """The :class:`repro.live.adaptive.AdaptiveIngestController`
        (``None`` unless ``ingest_mode="adaptive"``)."""
        return self._adaptive

    @property
    def shared_detectors(self) -> Tuple[str, ...]:
        """Configured detectors consuming shared arrival statistics.

        Empty in ``estimation="private"`` mode and for detector sets where
        nothing can share (the per-detector private fallback).
        """
        return self._shared_names

    @property
    def peers(self) -> Tuple[str, ...]:
        return tuple(self._peers)

    @property
    def n_peers(self) -> int:
        return len(self._peers)

    @property
    def heap_size(self) -> int:
        """Live + stale entries currently on the deadline heap."""
        return len(self._heap)

    def next_deadline(self) -> float | None:
        """The earliest live deadline on the heap, in monitor time.

        Superseded entries on top are popped first: they are garbage at
        any time, and a timer armed at one would wake for nothing.  A
        poll at any instant strictly past the returned deadline
        materializes it.  ``None`` when no peer has a pending deadline,
        and always in ``poll_mode="sweep"``, which keeps no schedule.
        """
        if self._poll_mode != "heap":
            return None
        heap = self._heap
        peer_list = self._peer_by_index
        while heap:
            deadline, pidx = heap[0]
            if peer_list[pidx].sched == deadline:
                return deadline
            heapq.heappop(heap)
        return None

    @property
    def events(self) -> List[LiveEvent]:
        """Retained events (chronological per peer/detector).

        The full history unless ``max_events`` bounded the ring buffer;
        ``n_events_total`` / ``n_events_dropped`` always account exactly.
        """
        return self._events.as_list()

    @property
    def n_events_total(self) -> int:
        return self._events.total

    @property
    def n_events_dropped(self) -> int:
        return self._events.dropped

    @property
    def n_listener_errors(self) -> int:
        return self._listeners.n_errors

    def subscribe(self, listener: Callable[[LiveEvent], None]) -> None:
        """Register a callback invoked synchronously for every new event.

        A raising listener is caught, counted (``n_listener_errors``) and
        logged — it cannot abort detection or starve other listeners.
        """
        self._listeners.subscribe(listener)

    def unsubscribe(self, listener: Callable[[LiveEvent], None]) -> None:
        """Remove a previously subscribed callback (ValueError if absent)."""
        self._listeners.unsubscribe(listener)

    def now(self) -> float:
        """Monitor-relative current time (0 at first ingest/poll)."""
        t = self._clock()
        if self._epoch is None:
            self._epoch = t
        return t - self._epoch

    def heartbeat_rate(self, now: float | None = None) -> float:
        """Decayed heartbeats/second over all peers (time constant 10 s)."""
        if now is None:
            now = self.now()
        return self._rate.rate(now)

    # ------------------------------------------------------------------
    def _new_peer(self, sender: str, arrival: float) -> _PeerState:
        """Instantiate detectors (and shared stats) for a discovered peer.

        ``arrival`` is the discovering datagram's receipt instant — and
        that datagram is always accepted (a fresh peer's ``largest_seq``
        is 0, wire sequence numbers start at 1), so it is the peer's
        ``first_arrival``.
        """
        detectors = {
            name: make_tuned(name, self._interval, self._params.get(name))
            for name in self._detector_names
        }
        stats = None
        if self._shared_names and (
            self._engine is None or self._adaptive is not None
        ):
            # Vectorized mode never instantiates per-peer shared stats:
            # the engine's columnar window banks hold that state for
            # every peer at once.  Adaptive mode always instantiates them
            # (and binds detectors) so the batched path can take over at
            # any drain; while the columnar path is active the engine's
            # banks are authoritative and export() refreshes these objects
            # on the way back.
            stats = SharedArrivalState(self._interval)
            for name in self._shared_names:
                bound = detectors[name].bind_shared_arrivals(stats)
                assert bound, f"probe said {name} shares but bind declined"
            # Freeze registration and build the push tuples now: the
            # batched ingest loop inlines the receive body and relies on
            # the sealed state.
            stats.seal()
        state = _PeerState(sender, len(self._peer_by_index), detectors, stats)
        state.first_arrival = arrival
        state.gen = self._status_gen
        # A re-joining peer supersedes its own removal tombstone: the new
        # entry (fresh index, fresh detectors) is what deltas must carry.
        self._tombstones.pop(sender, None)
        if self._retention is not None:
            for det in detectors.values():
                det.set_transition_retention(self._retention)
        self._peers[sender] = state
        self._peer_by_index.append(state)
        obs = self._obs
        if obs is not None and obs.qos is not None:
            # Pin observation start at discovery, so P_A counts the
            # initial suspicion-until-first-trust time against accuracy
            # (matching compute_metrics' closed-window convention).
            for name in self._detector_names:
                obs.qos.observe_start(sender, name, arrival)
        if logger.isEnabledFor(logging.INFO):
            logger.info(structured("peer-discovered", peer=sender, arrival=arrival))
        return state

    #: Distinct reject source addresses tracked exactly; the rest aggregate
    #: under the ``"other"`` key so a spoofing flood cannot grow the map.
    _MAX_REJECT_SOURCES = 32

    def _count_reject(
        self, reason: str, addr=None, arrival: float | None = None
    ) -> None:
        """Attribute one malformed-datagram reject (reason + source address).

        Does *not* touch ``n_malformed`` — callers keep their existing
        (batch-level) malformed accounting; this adds the breakdown only.
        """
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1
        source = f"{addr[0]}:{addr[1]}" if addr is not None else None
        if source is not None:
            sources = self.reject_sources
            if source in sources or len(sources) < self._MAX_REJECT_SOURCES:
                sources[source] = sources.get(source, 0) + 1
            else:
                sources["other"] = sources.get("other", 0) + 1
        self.last_reject = {
            "reason": reason,
            "source": source,
            "time": self.now() if arrival is None else arrival,
        }

    def ingest(
        self, data: bytes, arrival: float | None = None, *, addr=None
    ) -> Heartbeat | None:
        """Feed one raw datagram; returns the heartbeat if it decoded.

        ``arrival`` is the receipt instant on the monitor clock (relative
        to the monitor epoch); defaults to now.  ``addr`` is the source
        ``(host, port)`` when the transport knows it — used only to
        attribute rejects.  Malformed datagrams are counted, logged, and
        dropped — never raised.
        """
        if arrival is None:
            arrival = self.now()
        self._status_gen += 1
        if self._columnar:
            # Columnar phase: even singles route through the engine so
            # the columnar state stays the one authority.  (Adaptive mode
            # in its batched phase falls through to the scalar path below;
            # singles are control-path traffic and never feed the
            # controller's drain signals.)
            engine = self._engine
            n_dec, n_acc, n_stl, n_bad, _ = engine.ingest_datagrams(
                (data,), (arrival,), arrival
            )
            engine.finish_batch()
            self._stamp_touched(engine)
            if n_bad:
                self.n_malformed += 1
                reason = self._reject_reason(data)
                self._count_reject(reason, addr, arrival)
                logger.debug(
                    "dropping malformed datagram from %s (vectorized path): %s",
                    addr, reason,
                )
                return None
            self._rate.update(arrival)
            self.n_received_total += 1
            self.n_accepted_total += n_acc
            self.n_stale_total += n_stl
            return Heartbeat.decode(data)
        # Sampled stage timing (diagnostics plane): one `is not None`
        # check per datagram when diagnostics are off.
        timer = self._ptimer
        sampled = timer is not None and timer.sample()
        if sampled:
            pc = time.perf_counter
            t0 = pc()
        try:
            hb = Heartbeat.decode(data)
        except WireError as exc:
            self.n_malformed += 1
            self._count_reject(exc.reason, addr, arrival)
            logger.debug("dropping malformed datagram from %s: %s", addr, exc)
            return None
        if sampled:
            timer.observe("decode", pc() - t0)
        self._rate.update(arrival)
        self.n_received_total += 1
        tracer = self._tracer
        traced = tracer is not None and tracer.wants(hb.seq)
        if traced:
            tracer.record(
                "recv", time=arrival, peer=hb.sender, hb_seq=hb.seq,
                sent_at=hb.timestamp,
            )
        state = self._peers.get(hb.sender)
        if state is None:
            state = self._new_peer(hb.sender, arrival)
        state.n_datagrams += 1
        state.gen = self._status_gen
        if sampled:
            t1 = pc()
        if state.stats is not None:
            # Shared windows must hold this arrival *before* any sharing
            # detector computes its deadline (the private path pushes in
            # _update, which also runs pre-deadline).
            state.stats.receive(hb.seq, arrival)
        accepted = False
        for det in state.detectors.values():
            accepted = det.receive(hb.seq, arrival) or accepted
        if sampled:
            # Estimation pushes + detector updates, together: the window
            # push happens inside receive() on the private path.
            timer.observe("estimate", pc() - t1)
        if accepted:
            state.n_accepted += 1
            self.n_accepted_total += 1
            state.last_seq = hb.seq
            state.last_arrival = arrival
            state.last_timestamp = hb.timestamp
            if state.first_arrival is None:
                state.first_arrival = arrival
            # Schedule the earliest new freshness point — one entry per
            # peer, superseding the old one in place (lazy deletion: the
            # stale heap entry is discarded on pop via the sched check).
            if sampled:
                t2 = pc()
            best = math.inf
            for det in state.detectors.values():
                deadline = det.suspicion_deadline
                if deadline is not None and deadline < best:
                    best = deadline
            if best != math.inf:
                heapq.heappush(self._heap, (best, state.index))
                state.sched = best
            else:
                state.sched = None
            if sampled:
                timer.observe("heap", pc() - t2)
            if traced:
                tracer.record(
                    "fresh", time=arrival, peer=hb.sender, hb_seq=hb.seq,
                    deadline=None if best == math.inf else best,
                )
        else:
            state.n_stale += 1
            self.n_stale_total += 1
            if traced:
                tracer.record(
                    "stale", time=arrival, peer=hb.sender, hb_seq=hb.seq,
                    largest_seq=state.last_seq,
                )
        self._drain(hb.sender, state)
        return hb

    @staticmethod
    def _reject_reason(data) -> str:
        """Re-run the scalar decoder on a known-bad datagram for its reason."""
        try:
            decode_fields(data)
        except WireError as exc:
            return exc.reason
        return "malformed"  # pragma: no cover - engines reject a superset

    def ingest_many(
        self,
        datagrams: Sequence[bytes],
        arrivals: Sequence[float] | None = None,
        addrs: Sequence | None = None,
    ) -> int:
        """Decode and dispatch a whole socket drain in one call.

        Semantically exactly ``for d in datagrams: ingest(d)`` — same
        acceptance decisions, same detector state, same event stream in
        the same order — but the per-datagram overheads are paid once per
        batch: datagrams decode through :func:`repro.live.wire.decode_fields`
        (precompiled struct views, no dataclass), the malformed counter is
        updated once, the rate meter is touched once, and a peer is
        drained only when one of its detectors actually produced a new
        transition.  ``arrivals`` gives the per-datagram receipt instants
        (monitor clock, non-decreasing); when omitted, the whole batch is
        stamped ``now()`` — the right call for datagrams drained from a
        socket buffer in one go.  ``addrs`` gives per-datagram source
        addresses for reject attribution (optional, alignment-checked).
        Returns the number of datagrams that decoded (malformed ones are
        counted, never raised).
        """
        n = len(datagrams)
        if arrivals is not None and len(arrivals) != n:
            raise ValueError(
                f"got {n} datagrams but {len(arrivals)} arrivals"
            )
        if addrs is not None and len(addrs) != n:
            raise ValueError(f"got {n} datagrams but {len(addrs)} addrs")
        self._status_gen += 1
        if self._recorder is None:
            return self._ingest_route(datagrams, arrivals, n, addrs)
        # Flight recorder on: every drain leaves one ring record (two
        # perf_counter reads, one tuple, one deque append).
        t0 = time.perf_counter()
        n_dec = self._ingest_route(datagrams, arrivals, n, addrs)
        self._record_drain(n, time.perf_counter() - t0, None)
        return n_dec

    def _ingest_route(self, datagrams, arrivals, n: int, addrs=None) -> int:
        """Dispatch one validated drain to the configured ingest path."""
        if self._adaptive is not None:
            return self._ingest_adaptive(datagrams, arrivals, n, addrs)
        if self._engine is not None:
            return self._ingest_vectorized(datagrams, arrivals, n, addrs)
        if self._ingest_mode == "scalar":
            # The per-datagram reference: semantics of calling ingest()
            # in a loop, batch accounting (n_batches etc.) excluded.
            self.ingest_drains["scalar"] += 1
            self.last_drain_mode = "scalar"
            self.last_drain_fanin = None
            n_dec = 0
            if addrs is None:
                addrs = repeat(None, n)
            if arrivals is None:
                now = self.now()
                for data, addr in zip(datagrams, addrs):
                    if self.ingest(data, now, addr=addr) is not None:
                        n_dec += 1
            else:
                for data, arrival, addr in zip(datagrams, arrivals, addrs):
                    if self.ingest(data, arrival, addr=addr) is not None:
                        n_dec += 1
            return n_dec
        return self._ingest_batched(datagrams, arrivals, n, addrs)

    def _record_drain(self, n: int, duration: float, arena_occ) -> None:
        """One flight-recorder record per drain (recorder known non-None)."""
        self._recorder.record(
            time=self.now(),
            mode=self.last_drain_mode,
            n=n,
            fanin=self.last_drain_fanin,
            duration=duration,
            heap=len(self._heap),
            events=len(self._events),
            arena=arena_occ,
        )

    def _ingest_batched(self, datagrams, arrivals, n: int, addrs=None) -> int:
        """The batched scalar hot loop (``ingest_mode="batched"``, and the
        adaptive mode's low-fan-in phase)."""
        self.ingest_drains["batched"] += 1
        self.last_drain_mode = "batched"
        serial = self._drain_serial + 1
        self._drain_serial = serial
        fanin = 0
        if arrivals is None:
            arrivals = repeat(self.now(), n)
        if addrs is None:
            addrs = repeat(None, n)
        # Hot loop: everything the scalar path re-resolves per datagram
        # is hoisted to a local once per batch.
        decode = decode_fields
        peers_get = self._peers.get
        heappush = heapq.heappush
        # Sampled stage timing: on 1-in-N drains the hoisted decode and
        # heappush locals are swapped for accumulating wrappers — the
        # other N-1 drains run the raw loop untouched.
        timer = self._ptimer
        stage_acc = None
        if timer is not None and timer.sample():
            pc = time.perf_counter
            stage_acc = {"decode": 0.0, "heap": 0.0}
            raw_decode, raw_heappush = decode, heappush

            def decode(data, _d=raw_decode, _pc=pc, _a=stage_acc):
                t = _pc()
                try:
                    return _d(data)
                finally:
                    _a["decode"] += _pc() - t

            def heappush(h, item, _h=raw_heappush, _pc=pc, _a=stage_acc):
                t = _pc()
                _h(h, item)
                _a["heap"] += _pc() - t

            t_start = pc()
        heap = self._heap
        drain = self._drain
        inf = math.inf
        interval = self._interval
        tracer = self._tracer
        status_gen = self._status_gen
        n_bad = 0
        n_acc = 0
        n_stl = 0
        last_arrival: float | None = None
        for data, arrival, addr in zip(datagrams, arrivals, addrs):
            try:
                sender, seq, timestamp = decode(data)
            except WireError as exc:
                n_bad += 1
                self._count_reject(exc.reason, addr, arrival)
                continue
            last_arrival = arrival
            if tracer is not None and tracer.wants(seq):
                tracer.record(
                    "recv", time=arrival, peer=sender, hb_seq=seq,
                    sent_at=timestamp,
                )
            state = peers_get(sender)
            if state is None:
                state = self._new_peer(sender, arrival)
            if state.touch != serial:
                state.touch = serial
                fanin += 1
            state.n_datagrams += 1
            state.gen = status_gen
            stats = state.stats
            if stats is not None:
                # Fast path: every detector applies the same acceptance
                # rule to the same stream, so the shared stats' verdict
                # decides for the whole set — a stale datagram touches no
                # detector at all (a rejecting receive() mutates nothing),
                # and a fresh one skips the per-detector freshness check.
                # SharedArrivalState.receive is inlined (the state is
                # sealed at peer creation, ``seq`` is already an int off
                # the wire, and the stats share self's interval), saving
                # the call frame per datagram.
                if seq > stats._largest_seq:
                    stats._largest_seq = seq
                    for size, window in stats._pre_list:
                        c = window._count
                        stats._pre_means[size] = (
                            window._baseline + window._sum / c if c else None
                        )
                    norm = arrival - interval * seq
                    for push in stats._est_list:
                        push(norm)
                    prev = stats._prev_arrival
                    if prev is not None:
                        gap = arrival - prev
                        for push in stats._gap_list:
                            push(gap)
                    stats._prev_arrival = arrival
                    state.n_accepted += 1
                    state.last_seq = seq
                    state.last_arrival = arrival
                    state.last_timestamp = timestamp
                    best = inf
                    dirty = False
                    for det, output, fastdl in state.fast_dets:
                        # receive_shared, inlined: _update is a no-op
                        # (shared windows already pushed), so only the
                        # deadline, the output and the bookkeeping fields
                        # remain.
                        d = fastdl(seq, arrival)
                        det._largest_seq = seq
                        det._last_arrival = arrival
                        det._current_deadline = d
                        # FreshnessOutput.on_heartbeat's steady-state case
                        # (a), inlined: trust held, the previous deadline
                        # unexpired, the new one in the future — no
                        # transition, only the two field updates (the
                        # condition also re-proves the time-order
                        # precondition, so any call on_heartbeat would
                        # reject falls through to it and raises there).
                        if (
                            output.trusting
                            and arrival <= output.deadline
                            and arrival < d
                            and output.last_event_time <= arrival
                        ):
                            output.deadline = d
                            output.last_event_time = arrival
                        else:
                            output.on_heartbeat(arrival, d)
                            dirty = True
                        if d < best:
                            best = d
                    for det, output, shrecv in state.mid_dets:
                        # receive_accepted, inlined, for shared detectors
                        # with a stateful _update (bertier's margin).
                        d = shrecv(seq, arrival)
                        det._largest_seq = seq
                        det._last_arrival = arrival
                        det._current_deadline = d
                        if (
                            output.trusting
                            and arrival <= output.deadline
                            and arrival < d
                            and output.last_event_time <= arrival
                        ):
                            output.deadline = d
                            output.last_event_time = arrival
                        else:
                            output.on_heartbeat(arrival, d)
                            dirty = True
                        if d < best:
                            best = d
                    for det, output, recv in state.slow_dets:
                        nt0 = output.n_transitions
                        d = recv(seq, arrival)
                        if output.n_transitions != nt0:
                            dirty = True
                        if d < best:
                            best = d
                    if best != inf:
                        heappush(heap, (best, state.index))
                        state.sched = best
                    else:
                        state.sched = None
                    n_acc += 1
                    if tracer is not None and tracer.wants(seq):
                        tracer.record(
                            "fresh", time=arrival, peer=sender, hb_seq=seq,
                            deadline=None if best == inf else best,
                        )
                    if dirty:
                        # Drained per datagram (not per batch) so
                        # interleaved transitions of different peers keep
                        # scalar-ingest order.  ``dirty`` marks any
                        # on_heartbeat that *could* have transitioned — a
                        # drain with nothing new is a no-op, so this is a
                        # conservative superset of the transitions.
                        drain(sender, state)
                else:
                    state.n_stale += 1
                    n_stl += 1
                    if tracer is not None and tracer.wants(seq):
                        tracer.record(
                            "stale", time=arrival, peer=sender, hb_seq=seq,
                            largest_seq=state.last_seq,
                        )
                continue
            accepted = False
            nt = 0
            for dname, det, output, recv, fastdl in state.det_list:
                if det.receive(seq, arrival):
                    accepted = True
                nt += output.n_transitions
            if accepted:
                state.n_accepted += 1
                state.last_seq = seq
                state.last_arrival = arrival
                state.last_timestamp = timestamp
                best = inf
                for dname, det, output, recv, fastdl in state.det_list:
                    d = det._current_deadline
                    if d is not None and d < best:
                        best = d
                if best != inf:
                    heappush(heap, (best, state.index))
                    state.sched = best
                else:
                    state.sched = None
                n_acc += 1
                if tracer is not None and tracer.wants(seq):
                    tracer.record(
                        "fresh", time=arrival, peer=sender, hb_seq=seq,
                        deadline=None if best == inf else best,
                    )
            else:
                state.n_stale += 1
                n_stl += 1
                if tracer is not None and tracer.wants(seq):
                    tracer.record(
                        "stale", time=arrival, peer=sender, hb_seq=seq,
                        largest_seq=state.last_seq,
                    )
            if nt != state.consumed_total:
                # Drained per datagram (not per batch) so interleaved
                # transitions of different peers keep scalar-ingest order.
                drain(sender, state)
        if stage_acc is not None:
            # The remainder between the drain's total and the measured
            # decode/heap wrappers is the estimation-push + detector-update
            # stage (plus per-datagram bookkeeping riding with it).
            total = pc() - t_start
            timer.observe("decode", stage_acc["decode"])
            timer.observe("heap", stage_acc["heap"])
            timer.observe(
                "estimate",
                max(0.0, total - stage_acc["decode"] - stage_acc["heap"]),
            )
        if n_bad:
            self.n_malformed += n_bad
            logger.debug("dropped %d malformed datagrams in batch", n_bad)
        self.last_drain_fanin = fanin
        n_decoded = n - n_bad
        if n_decoded:
            self._rate.update_many(last_arrival, n_decoded)
        self.n_received_total += n_decoded
        self.n_accepted_total += n_acc
        self.n_stale_total += n_stl
        self.n_batches += 1
        self.last_batch_size = n
        if self._m_batch_hist is not None:
            self._m_batch_hist.observe(n)
        return n_decoded

    def _account_batch(self, n, n_dec, n_acc, n_stl, n_bad, last_arrival) -> int:
        """Batch-level accounting shared by the vectorized entry points."""
        if n_bad:
            self.n_malformed += n_bad
            logger.debug("dropped %d malformed datagrams in batch", n_bad)
        if n_dec:
            self._rate.update_many(last_arrival, n_dec)
        self.n_received_total += n_dec
        self.n_accepted_total += n_acc
        self.n_stale_total += n_stl
        self.n_batches += 1
        self.last_batch_size = n
        if self._m_batch_hist is not None:
            self._m_batch_hist.observe(n)
        return n_dec

    def _stamp_touched(self, engine) -> None:
        """Stamp the delta generation on every peer whose entry-visible
        state the engine's last batch changed (``engine.last_touched``:
        every decoded sender, accepted or stale)."""
        gen = self._status_gen
        peer_list = self._peer_by_index
        for pidx in engine.last_touched:
            peer_list[pidx].gen = gen

    def _stage_acc_for(self, engine):
        """Arm the engine's per-stage accumulator for a sampled drain
        (``None`` on the unsampled ones — one attribute write per drain)."""
        timer = self._ptimer
        if timer is not None and timer.sample():
            engine.stage_acc = {"decode": 0.0, "estimate": 0.0, "heap": 0.0}
            return engine.stage_acc
        engine.stage_acc = None
        return None

    def _flush_stage_acc(self, engine, acc) -> None:
        """Disarm the engine and publish the sampled stage seconds."""
        engine.stage_acc = None
        timer = self._ptimer
        for stage, seconds in acc.items():
            timer.observe(stage, seconds)

    def _ingest_vectorized(self, datagrams, arrivals, n: int, addrs=None) -> int:
        self.ingest_drains["vectorized"] += 1
        self.last_drain_mode = "vectorized"
        engine = self._engine
        acc = None if self._ptimer is None else self._stage_acc_for(engine)
        now = self.now() if arrivals is None else None
        try:
            n_dec, n_acc, n_stl, n_bad, last_arrival = engine.ingest_datagrams(
                datagrams, arrivals, now
            )
            engine.finish_batch()
        finally:
            if acc is not None:
                self._flush_stage_acc(engine, acc)
        self._stamp_touched(engine)
        self.last_drain_fanin = engine.last_fanin
        if n_bad:
            # Rejects are rare; attribute each through the scalar decoder.
            for row in engine.last_bad_rows:
                self._count_reject(
                    self._reject_reason(datagrams[row]),
                    addrs[row] if addrs is not None else None,
                    arrivals[row] if arrivals is not None else now,
                )
        return self._account_batch(n, n_dec, n_acc, n_stl, n_bad, last_arrival)

    # ------------------------------------------------------------------
    # Adaptive per-drain mode selection
    # ------------------------------------------------------------------
    def _set_columnar(self, active: bool) -> None:
        """Switch the ingest-state authority between the detector objects
        and the columnar engine (adaptive mode only).  Migration is a
        field-for-field copy both ways, so the continuation is bit-exact;
        the controller's hysteresis + dwell keep switches rare."""
        if active == self._columnar:
            return
        if active:
            self._engine.adopt(self._peer_by_index)
        else:
            self._engine.export(self._peer_by_index)
        self._columnar = active
        self.n_mode_switches += 1
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                structured(
                    "ingest-mode-switch",
                    path="vectorized" if active else "batched",
                    n_peers=len(self._peer_by_index),
                )
            )

    def _ingest_adaptive(self, datagrams, arrivals, n: int, addrs=None) -> int:
        """One drain under adaptive mode: ask the controller for a path,
        migrate state if the choice flipped, run the drain under a timer,
        and feed the measurement back."""
        ctl = self._adaptive
        mode = ctl.decide()
        if (mode == "vectorized") != self._columnar:
            self._set_columnar(mode == "vectorized")
        t0 = time.perf_counter()
        if self._columnar:
            n_dec = self._ingest_vectorized(datagrams, arrivals, n, addrs)
        else:
            n_dec = self._ingest_batched(datagrams, arrivals, n, addrs)
        dt = time.perf_counter() - t0
        ctl.observe(mode, n, self.last_drain_fanin or 0, dt)
        if self._m_drain_hist is not None:
            self._m_drain_hist.labels(mode).observe(dt)
        return n_dec

    def ingest_arena(self, arena) -> int:
        """Feed a :class:`repro.live.arena.DatagramArena`'s last drain.

        The zero-copy bulk entry point: datagrams are decoded in place
        from the arena's preallocated buffer — as memoryview slices on the
        scalar/batched paths, as a columnar numpy view on the vectorized
        path — and are never materialized as per-datagram ``bytes``.
        Returns the number of datagrams that decoded.
        """
        if self._m_arena_hist is not None:
            self._m_arena_hist.observe(arena.occupancy)
        k = arena.last_fill
        if k == 0:
            return 0
        self._status_gen += 1
        self.n_zero_copy_datagrams += k
        if self._recorder is None:
            return self._ingest_arena_route(arena, k)
        t0 = time.perf_counter()
        n_dec = self._ingest_arena_route(arena, k)
        self._record_drain(k, time.perf_counter() - t0, arena.occupancy)
        return n_dec

    def _ingest_arena_route(self, arena, k: int) -> int:
        """Dispatch one arena drain to the configured ingest path."""
        if self._adaptive is not None:
            ctl = self._adaptive
            mode = ctl.decide()
            if (mode == "vectorized") != self._columnar:
                self._set_columnar(mode == "vectorized")
            t0 = time.perf_counter()
            if self._columnar:
                n_dec = self._ingest_arena_vectorized(arena, k)
            else:
                # The batched path decodes arena slots in place (memoryview
                # slices through decode_fields), still copy-free.
                n_dec = self._ingest_batched(arena.datagrams(), None, k)
            dt = time.perf_counter() - t0
            ctl.observe(mode, k, self.last_drain_fanin or 0, dt)
            if self._m_drain_hist is not None:
                self._m_drain_hist.labels(mode).observe(dt)
            return n_dec
        if self._engine is None:
            # Route directly (not via ingest_many): the generation bump
            # and the flight-recorder record already happened upstream.
            datagrams = arena.datagrams()
            return self._ingest_route(datagrams, None, len(datagrams))
        return self._ingest_arena_vectorized(arena, k)

    def _ingest_arena_vectorized(self, arena, k: int) -> int:
        self.ingest_drains["vectorized"] += 1
        self.last_drain_mode = "vectorized"
        engine = self._engine
        acc = None if self._ptimer is None else self._stage_acc_for(engine)
        now = self.now()
        try:
            n_dec, n_acc, n_stl, n_bad, last_arrival = engine.ingest_arena(
                arena, now
            )
            engine.finish_batch()
        finally:
            if acc is not None:
                self._flush_stage_acc(engine, acc)
        self._stamp_touched(engine)
        self.last_drain_fanin = engine.last_fanin
        if n_bad:
            # The arena drains via recv_into, which cannot report source
            # addresses; rejects here carry a reason but no source.
            buffer = arena.buffer
            slot = arena.slot_bytes
            for row in engine.last_bad_rows:
                try:
                    decode_fields_from(buffer, row * slot, arena.lengths[row])
                except WireError as exc:
                    self._count_reject(exc.reason, None, now)
                else:  # pragma: no cover - engines reject a superset
                    self._count_reject("malformed", None, now)
        return self._account_batch(k, n_dec, n_acc, n_stl, n_bad, last_arrival)

    def poll(self, now: float | None = None) -> List[LiveEvent]:
        """Materialize deadline expiries up to ``now``; return new events.

        Heap mode pops only entries whose deadline has *strictly* passed
        (matching :meth:`FreshnessOutput.advance_to`'s strict comparison:
        a deadline landing exactly on ``now`` has not expired yet and its
        entry must stay scheduled), then drains affected peers in
        discovery order — the same event order the full sweep emits.
        """
        if now is None:
            now = self.now()
        self._status_gen += 1
        t0 = time.perf_counter()
        n_pops = 0
        n_expired = 0
        fresh: List[LiveEvent] = []
        # The accounting lives in ``finally``: a listener raising out of a
        # drain (only possible for errors the _ListenerSet cannot contain,
        # e.g. KeyboardInterrupt) must still record the tick's duration —
        # otherwise last_poll_duration silently reports the *previous*
        # poll and the repro_last_poll_seconds gauge lies.
        # In adaptive mode's batched phase the engine holds no fresh state
        # (dirty flags all cleared at export), so it is skipped outright.
        engine = self._engine if self._columnar else None
        try:
            if self._poll_mode == "sweep":
                if engine is not None:
                    engine.sync_all()
                for peer, state in self._peers.items():
                    for det in state.detectors.values():
                        det.advance_to(now)
                    fresh.extend(self._drain(peer, state))
                    if engine is not None:
                        engine.writeback_output(state.index, state)
            else:
                heap = self._heap
                peer_list = self._peer_by_index
                expired_peers: set = set()
                while heap and heap[0][0] < now:
                    deadline, pidx = heapq.heappop(heap)
                    n_pops += 1
                    state = peer_list[pidx]
                    if state.sched != deadline:
                        continue  # superseded by a fresher heartbeat
                    # The peer's earliest freshness point has passed:
                    # advance every detector (the per-peer minimum is ≤
                    # each of their deadlines, so nothing can have expired
                    # unseen), then re-schedule the earliest deadline
                    # still pending.  The strict `< now` above and
                    # `>= now` here mirror FreshnessOutput.advance_to's
                    # strict expiry: a deadline landing exactly on the
                    # tick stays scheduled.
                    state.sched = None
                    n_expired += 1
                    if engine is not None:
                        # Columnar state must land in the outputs before
                        # advance_to reads their deadlines.
                        engine.sync_peer(pidx, state)
                    nxt = math.inf
                    for dname, det, output, recv, fastdl in state.det_list:
                        det.advance_to(now)
                        d = det._current_deadline
                        if d is not None and now <= d < nxt:
                            nxt = d
                    if engine is not None:
                        engine.writeback_output(pidx, state)
                    if nxt != math.inf:
                        heapq.heappush(heap, (nxt, pidx))
                        state.sched = nxt
                    expired_peers.add(pidx)
                for pidx in sorted(expired_peers):
                    state = peer_list[pidx]
                    # An expired deadline is an entry-visible change (the
                    # predictive `trusting` crossed it) even when no
                    # transition event drains out, so stamp unconditionally.
                    state.gen = self._status_gen
                    fresh.extend(self._drain(state.name, state))
        finally:
            self.n_polls += 1
            self.last_poll_duration = time.perf_counter() - t0
            self.last_poll_stats = {
                "now": now,
                "mode": self._poll_mode,
                "duration": self.last_poll_duration,
                "n_pops": n_pops,
                "n_expired": n_expired,
                "n_events": len(fresh),
            }
        return fresh

    def _drain(self, peer: str, state: _PeerState) -> List[LiveEvent]:
        """Convert any new detector transitions into emitted events.

        Incremental: each detector is drained from an absolute cursor
        (O(new transitions) per call, no full-log copies).
        """
        fresh: List[LiveEvent] = []
        total = 0
        for name, det in state.detectors.items():
            new, cursor = det.drain_transitions(state.consumed[name])
            state.consumed[name] = cursor
            total += cursor
            for t, trusting in new:
                fresh.append(
                    LiveEvent(time=t, peer=peer, detector=name, trusting=trusting)
                )
        state.consumed_total = total
        if fresh:
            state.gen = self._status_gen
            log_events = logger.isEnabledFor(logging.INFO)
            tracer = self._tracer
            for event in fresh:
                self._events.append(event)
                if tracer is not None:
                    # Transitions are never sampled away: they are the
                    # rare, load-bearing lifecycle stages.
                    tracer.record(
                        event.kind,
                        time=event.time,
                        peer=event.peer,
                        detector=event.detector,
                    )
                if log_events:
                    logger.info(
                        structured(
                            event.kind,
                            peer=event.peer,
                            detector=event.detector,
                            time=event.time,
                        )
                    )
                self._listeners.emit(event)
        return fresh

    # ------------------------------------------------------------------
    def is_trusting(self, peer: str, detector: str, now: float | None = None) -> bool:
        """One detector's current view of one peer."""
        state = self._require(peer)
        if self._columnar:
            self._engine.sync_peer(state.index, state)
        if now is None:
            now = self.now()
        return state.detectors[detector].is_trusting(now)

    def monitor_load(self, now: float | None = None) -> dict:
        """O(1) monitor-side load/health counters (the ``monitor`` block)."""
        if now is None:
            now = self.now()
        return {
            "n_peers": len(self._peers),
            "counters": self._counter_totals(),
            "reject_reasons": dict(self.reject_reasons),
            "reject_sources": dict(self.reject_sources),
            "last_reject": self.last_reject,
            "poll_mode": self._poll_mode,
            "estimation": self._estimation,
            "ingest_mode": self._ingest_mode,
            "columnar_active": self._columnar,
            "ingest_drains": dict(self.ingest_drains),
            "last_drain_fanin": self.last_drain_fanin,
            "n_mode_switches": self.n_mode_switches,
            "ingest_controller": (
                self._adaptive.as_dict() if self._adaptive is not None else None
            ),
            "n_zero_copy_datagrams": self.n_zero_copy_datagrams,
            "shared_detectors": list(self._shared_names),
            "heap_size": len(self._heap),
            "heartbeat_rate": self._rate.rate(now),
            "n_polls": self.n_polls,
            "n_batches": self.n_batches,
            "last_batch_size": self.last_batch_size,
            "last_poll_duration": self.last_poll_duration,
            "last_poll_expired": (
                self.last_poll_stats["n_expired"] if self.last_poll_stats else None
            ),
            "n_events_total": self._events.total,
            "n_events_dropped": self._events.dropped,
            "max_events": self._events.max_events,
            "n_listener_errors": self._listeners.n_errors,
            "transition_retention": self._retention,
        }

    def snapshot(self, now: float | None = None, *, include_peers: bool = True) -> dict:
        """JSON-able full state: what the status endpoint serves.

        Every counter is maintained incrementally, so the cost is
        O(peers · detectors) for the per-peer listing and independent of
        how long the monitor has been running (transition-history length
        never enters).  ``include_peers=False`` returns just the summary
        head — constant-size, however many peers are being watched.
        """
        if now is None:
            now = self.now()
        snap = {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "now": now,
            "interval": self._interval,
            "detectors": list(self._detector_names),
            "n_malformed": self.n_malformed,
            "n_events": self._events.total,
            "monitor": self.monitor_load(now),
        }
        if not include_peers:
            return snap
        if self._columnar:
            self._engine.sync_all()
        # Render-stage timing is unsampled: snapshots run per status
        # request, not per drain, so the two perf_counter reads are noise
        # there — and sampling 1-in-64 would rarely catch one.
        timer = self._ptimer
        if timer is not None:
            t0 = time.perf_counter()
        snap["peers"] = {
            peer: self._peer_entry(state, now)
            for peer, state in self._peers.items()
        }
        if timer is not None:
            timer.observe("render", time.perf_counter() - t0)
        return snap

    @staticmethod
    def _peer_entry(state: _PeerState, now: float) -> dict:
        """One peer's JSON entry — shared by the full and delta snapshots
        so the two paths cannot drift."""
        detectors = {}
        for name, det in state.detectors.items():
            detectors[name] = {
                "trusting": det.is_trusting(now),
                "freshness_point": det.suspicion_deadline,
                "n_suspicions": det.n_suspicions,
                "largest_seq": det.largest_seq,
            }
        offset = None
        if state.last_arrival is not None and state.last_timestamp is not None:
            offset = state.last_timestamp - state.last_arrival
        return PeerStatus(
            peer=state.name,
            n_datagrams=state.n_datagrams,
            n_accepted=state.n_accepted,
            n_stale=state.n_stale,
            last_seq=state.last_seq,
            last_arrival=state.last_arrival,
            clock_offset_estimate=offset,
            detectors=detectors,
        ).as_dict()

    #: Bound on the removed-peer tombstone map.  Compaction keeps the
    #: newest half and raises ``_tombstone_floor`` past the dropped ones,
    #: so a cursor older than any dropped removal degrades to a full
    #: snapshot instead of silently missing it.
    _TOMBSTONE_CAP = 4096

    def remove_peer(self, peer: str) -> bool:
        """Stop monitoring ``peer``; returns False if it was unknown.

        The peer's slot in the index list survives as a tombstone (heap
        entries referencing it die by lazy deletion; the engines skip it
        on adopt/export) but detectors, shared windows and drain cursors
        are dropped, so the memory cost of a removed peer is near zero.
        Delta snapshots report the removal to every cursor minted before
        it; a later heartbeat from the same name re-discovers the peer
        with fresh detectors (exactly like a first contact).
        """
        state = self._peers.pop(peer, None)
        if state is None:
            return False
        self._status_gen += 1
        state.removed = True
        state.sched = None  # heap entries for this index now lazily die
        if self._engine is not None:
            self._engine.forget_peer(state)
        # Drop the heavy per-peer state; the tombstone keeps only the
        # cheap identity fields.
        state.detectors = {}
        state.det_list = ()
        state.fast_dets = ()
        state.mid_dets = ()
        state.slow_dets = ()
        state.stats = None
        state.consumed = {}
        state.consumed_total = 0
        self._tombstones[peer] = self._status_gen
        if len(self._tombstones) > self._TOMBSTONE_CAP:
            # Keep the newest half; cursors at or below the floor fall
            # back to a full snapshot.
            ordered = sorted(self._tombstones.items(), key=lambda kv: kv[1])
            cut = len(ordered) // 2
            self._tombstone_floor = ordered[cut - 1][1]
            self._tombstones = dict(ordered[cut:])
        if logger.isEnabledFor(logging.INFO):
            logger.info(structured("peer-removed", peer=peer))
        return True

    def delta_snapshot(
        self,
        since: int | None = None,
        instance: str | None = None,
        now: float | None = None,
    ) -> dict:
        """Changed-entries-only snapshot for cursors minted by this monitor.

        Returns the constant-size summary head plus a ``delta`` block
        (``instance``, ``cursor``, ``full``), the ``peers`` whose entry
        changed after generation ``since``, and the names ``removed``
        since then.  Falls back to a full listing (``full: true``) when
        the cursor is absent, minted by another instance (a restart),
        ahead of this monitor's generation (a restart that re-used the
        instance id cannot happen — ids are random — but a corrupted
        cursor can), or older than a compacted tombstone.

        The call polls to ``now`` first, so every deadline that expired
        before ``now`` is materialized — the predictive ``trusting``
        field can then only differ from the last cursor on peers this
        poll stamped.  (A deadline landing *exactly* on ``now`` is not
        expired yet by the strict-comparison convention and flips only
        once a later generation passes it — the same knife edge the
        heap/sweep reference paths share.)
        """
        if now is None:
            now = self.now()
        self.poll(now)
        gen = self._status_gen
        full = (
            since is None
            or instance != self._status_instance
            or since > gen
            or since < self._tombstone_floor
        )
        doc = self.snapshot(now, include_peers=False)
        doc["delta"] = {
            "instance": self._status_instance,
            "since": None if full else since,
            "cursor": gen,
            "full": full,
        }
        timer = self._ptimer
        if timer is not None:
            t0 = time.perf_counter()
        if full:
            if self._columnar:
                self._engine.sync_all()
            doc["peers"] = {
                peer: self._peer_entry(state, now)
                for peer, state in self._peers.items()
            }
            doc["removed"] = []
            if timer is not None:
                timer.observe("render", time.perf_counter() - t0)
            return doc
        engine = self._engine if self._columnar else None
        peers = {}
        for peer, state in self._peers.items():
            if state.gen > since:
                if engine is not None:
                    engine.sync_peer(state.index, state)
                peers[peer] = self._peer_entry(state, now)
        doc["peers"] = peers
        doc["removed"] = sorted(
            peer for peer, g in self._tombstones.items() if g > since
        )
        if timer is not None:
            timer.observe("render", time.perf_counter() - t0)
        return doc

    def summary(self, now: float | None = None) -> dict:
        """Constant-size snapshot head (no per-peer listing)."""
        return self.snapshot(now, include_peers=False)

    def timelines(self, end: float | None = None) -> Dict[str, Dict[str, OutputTimeline]]:
        """Close the run at ``end``; return per-peer per-detector timelines.

        Each timeline spans ``[first heartbeat arrival, end]``, the same
        observation-window convention as the replay pipeline, so
        :func:`repro.qos.metrics.compute_metrics` applies directly.  With
        ``transition_retention`` set, a timeline is exact over the
        retained transition window (the full run when compaction is off).
        """
        if end is None:
            end = self.now()
        self._status_gen += 1
        if self._columnar:
            self._engine.sync_all()
        out: Dict[str, Dict[str, OutputTimeline]] = {}
        for peer, state in self._peers.items():
            if state.first_arrival is None or end <= state.first_arrival:
                continue
            per_det: Dict[str, OutputTimeline] = {}
            for name, det in state.detectors.items():
                per_det[name] = OutputTimeline.from_transitions(
                    det.finalize(end), start=state.first_arrival, end=end
                )
            self._drain(peer, state)  # surface any expiry finalize materialized
            if self._columnar:
                self._engine.writeback_output(state.index, state)
            out[peer] = per_det
        return out

    def _require(self, peer: str) -> _PeerState:
        state = self._peers.get(peer)
        if state is None:
            raise KeyError(
                f"unknown peer {peer!r}; heard from: {', '.join(self._peers) or 'none'}"
            )
        return state


class _MonitorProtocol(asyncio.DatagramProtocol):
    """Datagram glue: stamp the arrival and hand off to the engine.

    With an admission controller attached, every datagram is screened
    first — spoofed/replayed/over-limit beats are dropped (and counted by
    the controller) before the monitor ever sees them; malformed ones pass
    through so the monitor stays the single authority on malformed counts.
    ``ingested`` is called after each hand-off (the server's deadline
    check).
    """

    def __init__(self, monitor: LiveMonitor, admission, ingested):
        self._monitor = monitor
        self._admission = admission
        self._ingested = ingested

    def datagram_received(self, data: bytes, addr) -> None:  # pragma: no cover - thin
        admission = self._admission
        if admission is None or admission.admit(data, addr):
            self._monitor.ingest(data, addr=addr)
            self._ingested()


class _BatchedMonitorProtocol(asyncio.DatagramProtocol):
    """Batched glue: drain the loop's datagram burst into one ingest call.

    asyncio delivers one ``datagram_received`` callback per datagram, but
    under load the event loop dispatches a whole ready-socket burst within
    a single iteration.  Buffering those callbacks and flushing via
    ``loop.call_soon`` (which runs *after* the I/O dispatch of the current
    iteration) hands the entire burst to :meth:`LiveMonitor.ingest_many`
    as one batch — per-datagram Python overhead collapses to one append.
    """

    def __init__(self, monitor: LiveMonitor, admission, ingested):
        self._monitor = monitor
        self._admission = admission
        self._ingested = ingested
        self._buffer: List[tuple] = []
        self._flush_scheduled = False
        self._loop = asyncio.get_running_loop()
        self.n_batches = 0

    def datagram_received(self, data: bytes, addr) -> None:
        self._buffer.append((data, addr))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        batch, self._buffer = self._buffer, []
        self._flush_scheduled = False
        if not batch:
            return
        self.n_batches += 1
        admission = self._admission
        if admission is not None:
            batch = [(d, a) for d, a in batch if admission.admit(d, a)]
            if not batch:
                return
        datagrams, addrs = zip(*batch)
        self._monitor.ingest_many(datagrams, addrs=addrs)
        self._ingested()

    def connection_lost(self, exc) -> None:  # pragma: no cover - thin
        self._flush()


class LiveMonitorServer:
    """Asyncio runtime around :class:`LiveMonitor`.

    Binds a UDP endpoint, polls the monitor from one timer, and
    (optionally) serves the JSON status endpoint on a local TCP port.

    The timer is armed with ``loop.call_later`` at the earlier of the
    monitor's earliest live heap deadline
    (:meth:`LiveMonitor.next_deadline`) and the last poll plus ``tick``,
    so an expiry is materialized as soon as its freshness point passes
    and ``tick`` is the longest gap between polls.  After every hand-off
    to the monitor, each receive path compares the heap's top with the
    armed instant (no clock read) and re-arms only when a new deadline
    lies earlier.  A wake-up that finds nothing due (its deadline was
    superseded by a fresher heartbeat, or the timer fired a hair early)
    re-arms without polling.
    """

    def __init__(
        self,
        monitor: LiveMonitor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tick: float = 0.02,
        status_port: int | None = None,
        status_host: str = "127.0.0.1",
        ingest_mode: str = "batch",
        sock=None,
        admission=None,
    ):
        ensure_positive(tick, "tick")
        if ingest_mode == "batch":  # legacy alias from the pre-arena server
            ingest_mode = "batched"
        if ingest_mode not in ("scalar", "batched", "vectorized", "adaptive"):
            raise ValueError(
                "ingest_mode must be 'scalar', 'batched', 'vectorized', or "
                f"'adaptive', got {ingest_mode!r}"
            )
        self.monitor = monitor
        self._host = host
        self._port = port
        self._tick = float(tick)
        self._status_port = status_port
        self._status_host = status_host
        self._ingest_mode = ingest_mode
        # Optional repro.fdaas.admission.AdmissionController: screens every
        # datagram (auth, replay, tenancy, rate limits) before the monitor.
        self._admission = admission
        # A pre-bound UDP socket (shard workers bind their own with
        # SO_REUSEPORT); overrides host/port when given.
        self._sock = sock
        self._transport: asyncio.DatagramTransport | None = None
        # Vectorized mode bypasses the asyncio transport entirely: a
        # non-blocking socket registered via loop.add_reader drains into a
        # reusable DatagramArena (zero bytes objects per datagram).
        self._arena_sock = None
        self._arena = None
        # The poll timer (see the class docstring); `_armed` is the
        # monitor-time instant it is armed for, -inf while stopped so
        # that late receive callbacks cannot re-arm it.  `_heap` is the
        # monitor's deadline heap, or empty for the sweep reference,
        # which keeps no schedule.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._timer: asyncio.TimerHandle | None = None
        self._armed = -math.inf
        self._ceiling = -math.inf
        self._heap = monitor._heap if monitor.poll_mode == "heap" else ()
        self.status: StatusServer | None = None
        self.address: Tuple[str, int] | None = None
        # Runtime diagnostics (when the monitor's obs bundle carries
        # them): the server owns the watchdog lifecycle and the SIGUSR1
        # dump; `_ptimer` mirrors the monitor's for the drain stage.
        obs = monitor.observability
        self._diag = obs.diag if obs is not None else None
        self._ptimer = self._diag.timer if self._diag is not None else None
        self._sig_token = None

    async def __aenter__(self) -> "LiveMonitorServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def status_commands(self, blocks=None) -> dict:
        """This server's status command table (see :mod:`repro.live.status`).

        The empty line, ``summary`` and ``delta`` serve the monitor's
        documents with the admission block when screening; ``metrics``
        and ``trace`` exist only with observability on, ``diag`` only with
        diagnostics on.  ``blocks(doc, is_summary)`` adds a wrapping
        server's head blocks to those three documents.  Handlers look the
        monitor's methods up when the table is built, so wrappers
        installed on the instance before then are the ones called.
        """
        monitor = self.monitor
        admission = self._admission

        def head(doc: dict, is_summary: bool = False) -> dict:
            if admission is not None:
                doc["admission"] = admission.stats()
            if blocks is not None:
                blocks(doc, is_summary)
            return doc

        snapshot = monitor.snapshot
        summary = monitor.summary
        delta_snapshot = monitor.delta_snapshot
        commands = {
            "": lambda: head(snapshot()),
            "summary": lambda: head(summary(), True),
            "delta": (
                lambda since, instance: head(delta_snapshot(since, instance)),
                delta_argument,
            ),
        }
        obs = monitor.observability
        if obs is not None:
            commands["metrics"] = monitor.render_metrics
            commands["trace"] = (monitor.trace_document, cursor_argument)
            if obs.diag is not None:
                commands["diag"] = (monitor.diag_document, cursor_argument)
        return commands

    def _drain_arena(self) -> None:
        """Readable callback: drain the socket queue into the arena and hand
        the whole burst to the monitor in one zero-copy call.  The loop is
        level-triggered, so a full arena just means the callback fires again
        immediately with the remainder."""
        if self._arena_sock is None:  # racing a concurrent stop()
            return
        # The drain stage proper is the recv_into burst; on sampled
        # drains it gets its own perf_counter bracket.  (The batched
        # protocol's socket reads happen inside asyncio's transport, so
        # only the arena path can time this stage.)
        timer = self._ptimer
        if timer is not None and timer.sample():
            t0 = time.perf_counter()
            got = self._arena.drain(self._arena_sock)
            timer.observe("drain", time.perf_counter() - t0)
        else:
            got = self._arena.drain(self._arena_sock)
        if got:
            if self._admission is not None:
                # recv_into has no source addresses, so admission screens
                # slots in place (compacting accepted ones) by content only.
                self._admission.filter_arena(self._arena)
            if self._arena.last_fill:
                self.monitor.ingest_arena(self._arena)
                self._ingested()

    async def start(self) -> Tuple[str, int]:
        """Bind the socket and start polling; returns the bound address."""
        loop = asyncio.get_running_loop()
        if self._ingest_mode in ("vectorized", "adaptive"):
            # Both columnar-capable modes receive through the zero-copy
            # arena; the monitor routes each drain to the right path.
            from repro.live.arena import DatagramArena

            if self._sock is not None:
                self._arena_sock = self._sock
            else:
                self._arena_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                self._arena_sock.bind((self._host, self._port))
            self._arena_sock.setblocking(False)
            self._arena = DatagramArena()
            loop.add_reader(self._arena_sock.fileno(), self._drain_arena)
            sockname = self._arena_sock.getsockname()
        else:
            if self._ingest_mode == "batched":
                protocol_factory = lambda: _BatchedMonitorProtocol(
                    self.monitor, self._admission, self._ingested
                )
            else:
                protocol_factory = lambda: _MonitorProtocol(
                    self.monitor, self._admission, self._ingested
                )
            if self._sock is not None:
                self._transport, _ = await loop.create_datagram_endpoint(
                    protocol_factory, sock=self._sock
                )
            else:
                self._transport, _ = await loop.create_datagram_endpoint(
                    protocol_factory, local_addr=(self._host, self._port)
                )
            sockname = self._transport.get_extra_info("sockname")
        self.address = (sockname[0], sockname[1])
        if self._status_port is not None:
            self.status = StatusServer(
                self.status_commands(),
                host=self._status_host,
                port=self._status_port,
            )
            await self.status.start()
        if self._diag is not None:
            self._diag.watchdog.start()
            self._sig_token = install_sigusr1(self.monitor.diag_document)
        self._loop = loop
        self._ceiling = self.monitor.now() + self._tick
        self._arm()
        logger.info(
            structured(
                "monitor-started",
                host=self.address[0],
                port=self.address[1],
                tick=self._tick,
                detectors=list(self.monitor.detector_names),
            )
        )
        return self.address

    def _arm(self) -> None:
        """Arm the poll timer at the earliest live deadline, or at the
        ceiling (last poll + ``tick``) when none lies earlier."""
        monitor = self.monitor
        target = self._ceiling
        deadline = monitor.next_deadline()
        if deadline is not None and deadline < target:
            target = deadline
        if self._timer is not None:
            self._timer.cancel()
        self._armed = target
        delay = max(target - monitor.now(), 0.0)
        self._timer = self._loop.call_later(delay, self._fire)

    def _ingested(self) -> None:
        """Receive-path check after each hand-off to the monitor: re-arm
        when a deadline on the heap's top lies before the armed instant.
        A fresh heartbeat's deadline normally lies beyond it, so the
        common case is one comparison and no clock read."""
        heap = self._heap
        if heap and heap[0][0] < self._armed:
            deadline = self.monitor.next_deadline()  # pops superseded tops
            if deadline is not None and deadline < self._armed:
                self._arm()

    def _fire(self) -> None:
        """Timer callback: poll when a live deadline has strictly passed
        (``poll`` expires only ``deadline < now``) or the ceiling is
        reached, then re-arm.  ``self.monitor.poll`` is looked up per
        call, so a wrapper installed on the instance is the one run."""
        self._timer = None
        monitor = self.monitor
        now = monitor.now()
        try:
            deadline = monitor.next_deadline()
            if now >= self._ceiling or (deadline is not None and deadline < now):
                monitor.poll(now)
                self._ceiling = now + self._tick
        finally:
            self._arm()

    async def stop(self) -> None:
        """Shut everything down; one final poll flushes pending expiries."""
        if self._diag is not None:
            self._diag.watchdog.stop()
            if self._sig_token is not None:
                restore_sigusr1(self._sig_token)
                self._sig_token = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._armed = -math.inf
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        if self._arena_sock is not None:
            sock, self._arena_sock = self._arena_sock, None
            asyncio.get_running_loop().remove_reader(sock.fileno())
            # One last drain so datagrams already queued at shutdown count,
            # then close — the server owns the socket either way, exactly
            # as the datagram transport owns a pre-bound one.
            if self._arena.drain(sock):
                if self._admission is not None:
                    self._admission.filter_arena(self._arena)
                if self._arena.last_fill:
                    self.monitor.ingest_arena(self._arena)
            sock.close()
            self._arena = None
        if self.status is not None:
            await self.status.stop()
            self.status = None
        self.monitor.poll()
        logger.info(structured("monitor-stopped", n_events=self.monitor.n_events_total))
