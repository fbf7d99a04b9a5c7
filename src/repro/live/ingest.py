"""Vectorized bulk-ingest engines for the live monitor hot path.

The scalar and batched ingest paths pay a Python-level window push and
deadline computation per (accepted heartbeat × detector).  This module
lifts both onto columnar state: one numpy array per window statistic with
one row per peer, so a whole socket drain updates every touched peer's
estimation state and freshness points in a handful of numpy kernels.

Equivalence contract (the repo-wide rule: every fast path has a reference
path it is bitwise-identical to):

* The columnar :class:`_WindowBank` reproduces
  :class:`repro.core.windows.SlidingWindow` operation-for-operation — same
  baseline anchoring, same eviction order (``(sum - old) + rel``), same
  rebuild cadence, and the rebuild itself reduces with ``ndarray.sum`` on
  the same contiguous relative values, so even numpy's pairwise summation
  matches the scalar window's own rebuild bit for bit.
* Detector freshness points evaluate the detectors' ``_deadline`` bodies
  verbatim (same association order per expression), vectorized across the
  peers of one sub-batch.
* Transitions always go through the per-detector
  :class:`repro.core.freshness.FreshnessOutput` objects — only the
  no-transition steady-state case (trust held, deadline unexpired, new
  deadline in the future: `FreshnessOutput.on_heartbeat` case (a)) is
  applied columnar, exactly as the batched path inlines it per datagram.
  Event streams, snapshots and QoS counters are therefore bitwise
  identical to the scalar reference; the property suite in
  ``tests/live/test_vectorized_ingest.py`` asserts it.

Batches are split into *sub-batches* of rows with pairwise-distinct peers
(a peer appearing twice ends the sub-batch), so within one kernel
application every row updates an independent state row; rows of one peer
still apply in arrival order across sub-batches.

Known, deliberate deviations (documented, not observable through events,
snapshots, QoS counters, or scheduling behavior):

* The deadline heap receives one entry per (batch × touched peer) — the
  final per-peer minimum — instead of one per accepted heartbeat.  Lazy
  deletion makes intermediate entries unobservable (``sched`` decides),
  so poll behavior is identical; only the ``heap_size`` diagnostic
  differs.
* Heartbeat *trace* records (when a tracer is attached) are emitted
  per sub-batch stage rather than strictly interleaved per datagram; the
  records themselves carry the same fields and timestamps.

When numpy is unavailable the module degrades to
:class:`ArrayIngestEngine`: the same columnar layout held in
``array('d')`` columns with per-row Python arithmetic — still zero-copy
from the arena, still one code path for callers.  Its one divergence:
window rebuilds reduce left-to-right (pure Python cannot reproduce
numpy's SIMD pairwise partials), so bitwise equivalence to the numpy
reference holds up to the first rebuild of a *full* window (``capacity``
pushes); the fallback tests stay under that horizon.

Three detector families keep state with no columnar form — the adaptive
margin controller (a feedback loop over mistake-rate estimates), the
histogram quantile sketch (a sorted list), and nothing at all
(``chen-sync``) — and their kernels handle it honestly: ``chen-sync`` is a
pure arithmetic column over the decoded sequence numbers; ``histogram``
batches its sketch inserts through one inlined per-row update
(:func:`_hist_update_deadline`, the detector's ``_update`` + ``_deadline``
bodies verbatim) with the sketch living in the detector object, so it is
always current on both the object and columnar paths; ``adaptive-2w-fd``
evaluates the 2W-FD max-mean column kernel with a per-row margin gathered
from each peer's :class:`AdaptiveMarginController` after feeding it the
row (controller state is carried in the detector objects across
sub-batches, preserving per-peer arrival order).

For the adaptive ingest mode (:mod:`repro.live.adaptive`), :meth:`adopt`
and :meth:`export` migrate per-peer estimation state between the scalar
``SharedArrivalState`` objects and the columnar banks with field-for-field
copies (ring buffer, cursors, baseline, running sums, rebuild phase — no
arithmetic), so a drain can run on either path and continue bit-for-bit
where the other stopped.
"""

from __future__ import annotations

import heapq
import math
import time
from array import array
from bisect import bisect_left, insort
from typing import Dict, List, Mapping, Tuple

try:  # pragma: no cover - exercised via the _HAVE_NUMPY monkeypatch
    import numpy as np

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    _HAVE_NUMPY = False

from repro.core.twofd import MultiWindowFailureDetector
from repro.detectors.accrual import PhiAccrualFailureDetector
from repro.detectors.adaptive import AdaptiveTwoWindowFailureDetector
from repro.detectors.bertier import BertierFailureDetector
from repro.detectors.chen import ChenFailureDetector
from repro.detectors.chen_sync import SynchronizedChenFailureDetector
from repro.detectors.exponential import EDFailureDetector
from repro.detectors.histogram import HistogramAccrualFailureDetector
from repro.detectors.timeout import FixedTimeoutFailureDetector
from repro.live.wire import (
    AUTH_TAG_BYTES,
    AUTH_VERSION,
    MAGIC,
    VERSION,
    WireError,
    decode_fields,
    decode_fields_from,
)

__all__ = [
    "VECTOR_SUPPORTED_KINDS",
    "VectorizedIngestEngine",
    "ArrayIngestEngine",
    "build_engine",
]

_HEAD_SIZE = 6
_BODY_SIZE = 16
_MAX_U64 = 0xFFFFFFFFFFFFFFFF

#: Detector classes the vectorized kernels cover — the full registry.
#: Window-expressible estimation runs fully columnar; ``adaptive-2w-fd``
#: and ``histogram`` carry their non-columnar state (margin controller,
#: quantile sketch) in the detector objects with per-row updates inside
#: the batch kernels, and ``chen-sync`` is pure arithmetic over the
#: decoded sequence column.  Only detector classes outside this registry
#: raise at construction under ``ingest_mode="vectorized"``.
VECTOR_SUPPORTED_KINDS = (
    MultiWindowFailureDetector,
    ChenFailureDetector,
    PhiAccrualFailureDetector,
    EDFailureDetector,
    BertierFailureDetector,
    FixedTimeoutFailureDetector,
    AdaptiveTwoWindowFailureDetector,
    SynchronizedChenFailureDetector,
    HistogramAccrualFailureDetector,
)


class _DetectorSpec:
    """Closed-form description of one configured detector's deadline rule."""

    __slots__ = (
        "name",
        "kind",
        "sizes",
        "margin",
        "size",
        "quantile",
        "min_std",
        "warmup_std",
        "factor",
        "gamma",
        "beta",
        "phi",
        "timeout",
        "offset",
        "shift",
    )

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind


def _build_specs(
    probe_detectors: Mapping[str, object],
) -> List[_DetectorSpec]:
    """Extract per-detector kernel parameters from probe instances.

    Raises ``ValueError`` for detectors without a vectorized form, naming
    the offender — the fail-fast construction-time contract.
    """
    specs: List[_DetectorSpec] = []
    for name, det in probe_detectors.items():
        if isinstance(det, AdaptiveTwoWindowFailureDetector):
            spec = _DetectorSpec(name, "adaptive")
            spec.sizes = tuple(det.window_sizes)
        elif isinstance(det, SynchronizedChenFailureDetector):
            spec = _DetectorSpec(name, "chensync")
            spec.offset = det.clock_offset
            spec.shift = det.shift
        elif isinstance(det, HistogramAccrualFailureDetector):
            spec = _DetectorSpec(name, "hist")
            spec.size = det.window_size
            spec.quantile = det.threshold
            spec.factor = det._factor
        elif isinstance(det, MultiWindowFailureDetector):
            spec = _DetectorSpec(name, "maxmean")
            spec.sizes = tuple(det.window_sizes)
            spec.margin = det.safety_margin
        elif isinstance(det, ChenFailureDetector):
            spec = _DetectorSpec(name, "maxmean")
            spec.sizes = (det.window_size,)
            spec.margin = det.safety_margin
        elif isinstance(det, PhiAccrualFailureDetector):
            spec = _DetectorSpec(name, "phi")
            spec.size = det.window_size
            spec.quantile = det._quantile
            spec.min_std = det._min_std
            spec.warmup_std = det._warmup_std
        elif isinstance(det, EDFailureDetector):
            spec = _DetectorSpec(name, "ed")
            spec.size = det.window_size
            spec.factor = det._factor
        elif isinstance(det, BertierFailureDetector):
            spec = _DetectorSpec(name, "bertier")
            spec.size = det.window_size
            spec.gamma = det._gamma
            spec.beta = det._beta
            spec.phi = det._phi
        elif isinstance(det, FixedTimeoutFailureDetector):
            spec = _DetectorSpec(name, "timeout")
            spec.timeout = det.timeout
        else:
            raise ValueError(
                f"detector {name!r} ({type(det).__name__}) has no vectorized "
                f"ingest kernel (every registry detector — 2w-fd, mw-fd, chen,"
                f" chen-sync, adaptive-2w-fd, phi, ed, bertier, histogram,"
                f" fixed-timeout — does; custom detector classes need"
                f" ingest_mode='batched' or 'scalar')"
            )
        specs.append(spec)
    return specs


def _hist_update_deadline(det, arrival, cap, threshold, factor, interval):
    """``HistogramAccrualFailureDetector._update`` + ``_deadline`` for one
    accepted row, inlined over the detector's own sketch (deque + sorted
    list).  The sketch stays object-authoritative on every ingest path, so
    batched↔columnar switches need no histogram state migration."""
    srt = det._sorted
    pa = det._prev_arrival
    if pa is not None:
        gap = arrival - pa
        fifo = det._fifo
        if len(fifo) == cap:
            oldest = fifo.popleft()
            srt.pop(bisect_left(srt, oldest))
        fifo.append(gap)
        insort(srt, gap)
    det._prev_arrival = arrival
    n = len(srt)
    if n:
        rank = math.ceil(threshold * n) - 1
        q = srt[rank] if rank > 0 else srt[0]
    else:
        q = interval
    return arrival + factor * q


# ======================================================================
# numpy engine
# ======================================================================


class _WindowBank:
    """Columnar :class:`~repro.core.windows.SlidingWindow`: one row per peer.

    Field-for-field the scalar window's state (ring buffer, count, next
    slot, baseline, relative running sum/sumsq, pushes-since-rebuild), held
    as arrays indexed by peer slot.  ``push`` applies the scalar push body
    to a set of *distinct* peer rows at once; the periodic exact rebuild
    runs per row (it is O(capacity) either way) using ``ndarray.sum`` on
    the oldest-first contiguous relative values — the very reduction the
    scalar window's ``_rebuild`` performs, so the recomputed sums carry
    identical bits.
    """

    __slots__ = ("capacity", "buf", "count", "nxt", "baseline", "sum", "sumsq", "psr")

    def __init__(self, capacity: int, slots: int):
        self.capacity = capacity
        self.buf = np.zeros((slots, capacity), dtype=np.float64)
        self.count = np.zeros(slots, dtype=np.int64)
        self.nxt = np.zeros(slots, dtype=np.int64)
        self.baseline = np.zeros(slots, dtype=np.float64)
        self.sum = np.zeros(slots, dtype=np.float64)
        self.sumsq = np.zeros(slots, dtype=np.float64)
        self.psr = np.zeros(slots, dtype=np.int64)

    def grow(self, slots: int) -> None:
        old = self.buf.shape[0]
        if slots <= old:
            return
        buf = np.zeros((slots, self.capacity), dtype=np.float64)
        buf[:old] = self.buf
        self.buf = buf
        for field in ("count", "nxt", "psr"):
            a = np.zeros(slots, dtype=np.int64)
            a[:old] = getattr(self, field)
            setattr(self, field, a)
        for field in ("baseline", "sum", "sumsq"):
            a = np.zeros(slots, dtype=np.float64)
            a[:old] = getattr(self, field)
            setattr(self, field, a)

    def mean(self, idx) -> "np.ndarray":
        """``baseline + sum / count`` for non-empty rows (callers guarantee)."""
        return self.baseline[idx] + self.sum[idx] / self.count[idx]

    def pre_mean(self, idx) -> "np.ndarray":
        """The mean before the pending push; NaN encodes the scalar None."""
        c = self.count[idx].astype(np.float64)
        has = c > 0.0
        q = np.divide(self.sum[idx], c, out=np.zeros_like(c), where=has)
        return np.where(has, self.baseline[idx] + q, np.nan)

    def push(self, idx, values) -> None:
        """Scalar ``SlidingWindow.push``, row-parallel over distinct rows."""
        cap = self.capacity
        if cap == 1:
            self.buf[idx, 0] = values
            self.baseline[idx] = values
            self.sum[idx] = 0.0
            self.sumsq[idx] = 0.0
            self.count[idx] = 1
            self.psr[idx] = 0
            return
        count = self.count[idx]
        first = count == 0
        if first.any():
            self.baseline[idx[first]] = values[first]
        base = self.baseline[idx]
        rel = values - base
        nxt = self.nxt[idx]
        s = self.sum[idx]
        ss = self.sumsq[idx]
        full = count == cap
        if full.any():
            old = self.buf[idx[full], nxt[full]] - base[full]
            s[full] -= old
            ss[full] -= old * old
        self.count[idx] = count + ~full
        self.buf[idx, nxt] = values
        self.sum[idx] = s + rel
        self.sumsq[idx] = ss + rel * rel
        nxt = nxt + 1
        nxt[nxt == cap] = 0
        self.nxt[idx] = nxt
        psr = self.psr[idx] + 1
        self.psr[idx] = psr
        rebuild = psr >= cap
        if rebuild.any():
            for p in idx[rebuild].tolist():
                self._rebuild(p)

    def _rebuild(self, p: int) -> None:
        cap = self.capacity
        c = int(self.count[p])
        nx = int(self.nxt[p])
        if c < cap:
            values = self.buf[p, :c]
        else:
            values = np.concatenate((self.buf[p, nx:], self.buf[p, :nx]))
        b = float(values[0])
        rel = values - b
        self.baseline[p] = b
        self.sum[p] = float(rel.sum())
        self.sumsq[p] = float((rel * rel).sum())
        self.psr[p] = 0

    # -- adaptive-mode state migration: field-for-field row copies ------
    def load_row(self, p: int, win) -> None:
        """Copy a scalar ``SlidingWindow``'s state into row ``p`` verbatim
        (no arithmetic, so the columnar continuation is bit-identical)."""
        self.buf[p, :] = win._buffer
        self.count[p] = win._count
        self.nxt[p] = win._next
        self.baseline[p] = win._baseline
        self.sum[p] = win._sum
        self.sumsq[p] = win._sumsq
        self.psr[p] = win._pushes_since_rebuild

    def store_row(self, p: int, win) -> None:
        """Copy row ``p`` back into a scalar ``SlidingWindow`` verbatim."""
        win._buffer[:] = self.buf[p].tolist()
        win._count = int(self.count[p])
        win._next = int(self.nxt[p])
        win._baseline = float(self.baseline[p])
        win._sum = float(self.sum[p])
        win._sumsq = float(self.sumsq[p])
        win._pushes_since_rebuild = int(self.psr[p])


class VectorizedIngestEngine:
    """Columnar per-batch ingest: decode, estimate and update freshness
    points for a whole drain with numpy kernels.

    Owned by a :class:`repro.live.monitor.LiveMonitor` constructed with
    ``ingest_mode="vectorized"``; the columnar arrays are the authority
    for window/estimator state, per-peer counters and freshness-point
    mirrors, while transitions (and ``trusting``) always live in the
    per-detector :class:`FreshnessOutput` objects.  ``sync_peer`` /
    ``sync_all`` lazily write the columnar state back into the detector
    objects before anything object-side reads them (polls, snapshots,
    timelines, metric scrapes); ``writeback_output`` mirrors
    object-side mutations (``advance_to``) back into the columns.
    """

    is_columnar = True

    #: Original batch row indices the last ingest call rejected (wire- or
    #: UTF-8-invalid) — the monitor's reject-attribution hook.
    last_bad_rows: "List[int] | tuple" = ()

    #: Per-stage seconds accumulator (``{"decode": s, "estimate": s,
    #: "heap": s}``) the monitor sets for one *sampled* drain when a
    #: :class:`repro.obs.diag.PipelineTimer` is attached, and ``None``
    #: otherwise — unsampled drains pay one attribute read per batch.
    stage_acc: "Dict[str, float] | None" = None

    def __init__(self, monitor, probe_detectors: Mapping[str, object]):
        self._mon = monitor
        self._interval = float(monitor.interval)
        self._specs = _build_specs(probe_detectors)
        self._D = len(self._specs)
        est_sizes: set = set()
        gap_sizes: set = set()
        pre_sizes: set = set()
        for spec in self._specs:
            if spec.kind in ("maxmean", "adaptive"):
                est_sizes.update(spec.sizes)
            elif spec.kind == "bertier":
                est_sizes.add(spec.size)
                pre_sizes.add(spec.size)
            elif spec.kind in ("phi", "ed"):
                gap_sizes.add(spec.size)
        slots = 64
        self._slots = slots
        self._est: Dict[int, _WindowBank] = {
            size: _WindowBank(size, slots) for size in sorted(est_sizes)
        }
        self._gaps: Dict[int, _WindowBank] = {
            size: _WindowBank(size, slots) for size in sorted(gap_sizes)
        }
        self._pre_sizes = tuple(sorted(pre_sizes))
        self.largest = np.zeros(slots, dtype=np.uint64)
        self.prev_arr = np.full(slots, np.nan)
        self.last_arr = np.full(slots, np.nan)
        self.last_ts = np.full(slots, np.nan)
        self.ndg = np.zeros(slots, dtype=np.int64)
        self.nacc = np.zeros(slots, dtype=np.int64)
        self.nstale = np.zeros(slots, dtype=np.int64)
        self.dirty = np.zeros(slots, dtype=bool)
        # Per-detector mirrors: deadline == both det._current_deadline and
        # output.deadline (provably equal after every operation), levt ==
        # output.last_event_time, trust mirrors output.trusting.  NaN
        # encodes the scalar None.
        self.deadline = [np.full(slots, np.nan) for _ in range(self._D)]
        self.levt = [np.full(slots, np.nan) for _ in range(self._D)]
        self.trust = [np.zeros(slots, dtype=bool) for _ in range(self._D)]
        self._bertier: List[Tuple[int, _DetectorSpec]] = [
            (j, s) for j, s in enumerate(self._specs) if s.kind == "bertier"
        ]
        self.b_delay = {j: np.zeros(slots) for j, _ in self._bertier}
        self.b_var = {j: np.zeros(slots) for j, _ in self._bertier}
        # Sub-batch assembly state (plain Python: the per-row residue).
        self._sender_cache: Dict[bytes, int] = {}
        self._touch: List[int] = [-1] * slots
        self._serial = 0
        self._touched: List[int] = []  # accepted rows: to schedule
        self._stale_touched: List[int] = []  # stale rows: counters only
        #: Distinct peers the last finished batch touched — the adaptive
        #: controller's observed-fan-in signal for columnar drains.
        self.last_fanin = 0
        #: Slot indices whose *entry-visible* state the last finished
        #: batch changed — the monitor's delta-generation stamp set: every
        #: decoded peer, accepted or stale (a stale row still bumps the
        #: entry's ``n_datagrams``/``n_stale``).
        self.last_touched: List[int] = []

    # ------------------------------------------------------------------
    def _ensure_slots(self, n: int) -> None:
        if n <= self._slots:
            return
        slots = max(n, self._slots * 2)
        for bank in self._est.values():
            bank.grow(slots)
        for bank in self._gaps.values():
            bank.grow(slots)

        def grown(a, fill, dtype):
            out = np.full(slots, fill, dtype=dtype)
            out[: a.shape[0]] = a
            return out

        self.largest = grown(self.largest, 0, np.uint64)
        self.prev_arr = grown(self.prev_arr, np.nan, np.float64)
        self.last_arr = grown(self.last_arr, np.nan, np.float64)
        self.last_ts = grown(self.last_ts, np.nan, np.float64)
        self.ndg = grown(self.ndg, 0, np.int64)
        self.nacc = grown(self.nacc, 0, np.int64)
        self.nstale = grown(self.nstale, 0, np.int64)
        self.dirty = grown(self.dirty, False, bool)
        self.deadline = [grown(a, np.nan, np.float64) for a in self.deadline]
        self.levt = [grown(a, np.nan, np.float64) for a in self.levt]
        self.trust = [grown(a, False, bool) for a in self.trust]
        self.b_delay = {j: grown(a, 0.0, np.float64) for j, a in self.b_delay.items()}
        self.b_var = {j: grown(a, 0.0, np.float64) for j, a in self.b_var.items()}
        self._touch.extend([-1] * (slots - len(self._touch)))
        self._slots = slots

    # ------------------------------------------------------------------
    # Columnar wire decode
    # ------------------------------------------------------------------
    _MAGIC_BYTES = tuple(MAGIC)
    _BODY_DTYPE = None  # set below (numpy may be absent at import)

    def _decode(self, buf, offs, lens):
        """Columnar :func:`repro.live.wire.decode_fields` over slot slices.

        Returns ``(oidx, soff, slen, seq, ts, n_bad)``: original row
        indices of wire-valid datagrams, their sender-id byte ranges, and
        native seq/timestamp columns.  Validity check for check the scalar
        decoder's (magic, version 1 or 2, exact length — truncation and
        trailing garbage both fail it; version 2 implies the HMAC trailer's
        extra bytes — sender non-empty, seq ≥ 1, finite timestamp); UTF-8
        of the sender id is established later, on the cached sender-bytes
        lookup.  ``n_bad`` counts rows rejected here; their original row
        indices land in :attr:`last_bad_rows` via ``_ingest_columnar`` so
        the monitor can attribute a reject reason per row.
        """
        n = int(lens.shape[0])
        i0 = np.flatnonzero(lens >= _HEAD_SIZE)
        if i0.size:
            o = offs[i0]
            head = buf[o[:, None] + np.arange(_HEAD_SIZE)]
            m = self._MAGIC_BYTES
            version = head[:, 4]
            good = (
                (head[:, 0] == m[0])
                & (head[:, 1] == m[1])
                & (head[:, 2] == m[2])
                & (head[:, 3] == m[3])
                & ((version == VERSION) | (version == AUTH_VERSION))
            )
            slen = head[:, 5].astype(np.int64)
            expected = _HEAD_SIZE + slen + _BODY_SIZE
            expected = expected + np.where(
                version == AUTH_VERSION, AUTH_TAG_BYTES, 0
            )
            good &= lens[i0] == expected
            good &= slen > 0
            i1 = i0[good]
        else:
            i1 = i0
        if i1.size:
            slen = slen[good]
            body_off = offs[i1] + _HEAD_SIZE + slen
            body = np.ascontiguousarray(buf[body_off[:, None] + np.arange(_BODY_SIZE)])
            rec = body.view(self._BODY_DTYPE).ravel()
            seq = rec["seq"].astype(np.uint64)
            ts = rec["ts"].astype(np.float64)
            ok = (seq >= 1) & np.isfinite(ts)
            oidx = i1[ok]
            soff = offs[oidx] + _HEAD_SIZE
            slen = slen[ok]
            seq = seq[ok]
            ts = ts[ok]
        else:
            oidx = i1
            soff = slen = seq = ts = i1
        return oidx, soff, slen, seq, ts, n - int(oidx.shape[0])

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def ingest_datagrams(self, datagrams, arrivals, now):
        """Vectorize a list-of-datagrams batch (the legacy batched input).

        One ``bytes.join`` materializes the batch contiguously (the arena
        path skips even that); everything downstream is columnar.
        """
        n = len(datagrams)
        if n == 0:
            self.last_bad_rows = []
            return 0, 0, 0, 0, None
        raw = b"".join(datagrams)
        buf = np.frombuffer(raw, dtype=np.uint8)
        lens = np.fromiter(map(len, datagrams), np.int64, n)
        offs = np.zeros(n, dtype=np.int64)
        np.cumsum(lens[:-1], out=offs[1:])
        arrv = None
        if arrivals is not None:
            arrv = np.asarray(
                arrivals if isinstance(arrivals, (list, tuple)) else list(arrivals),
                dtype=np.float64,
            )
        return self._ingest_columnar(buf, offs, lens, arrv, now)

    def ingest_arena(self, arena, now):
        """Vectorize the last drain of a :class:`DatagramArena` — zero-copy:
        the numpy view aliases the arena's ``bytearray``; only sender ids
        (for the peer lookup) are ever materialized."""
        k = arena.last_fill
        if k == 0:
            self.last_bad_rows = []
            return 0, 0, 0, 0, None
        buf = np.frombuffer(arena.buffer, dtype=np.uint8)
        offs = np.arange(k, dtype=np.int64) * arena.slot_bytes
        lens = np.fromiter(arena.lengths, np.int64, k)
        return self._ingest_columnar(buf, offs, lens, None, now)

    def _ingest_columnar(self, buf, offs, lens, arrivals, now):
        """Shared core: decode → sub-batch assembly → kernels.

        Returns ``(n_decoded, n_accepted, n_stale, n_bad, last_arrival)``.
        """
        acc = self.stage_acc
        if acc is not None:
            t0 = time.perf_counter()
        oidx, soff, slen, seq, ts, n_bad_wire = self._decode(buf, offs, lens)
        if acc is not None:
            t1 = time.perf_counter()
            acc["decode"] += t1 - t0
        k = int(oidx.shape[0])
        # Rows the columnar decode rejected, by original batch index — the
        # monitor re-decodes just these through the scalar path to attribute
        # a per-reason (and per-address) reject count.  Rejects are rare, so
        # the scalar re-decode never touches the hot path.
        if n_bad_wire:
            keep = np.zeros(int(lens.shape[0]), dtype=bool)
            keep[oidx] = True
            bad_rows_orig = np.flatnonzero(~keep).tolist()
        else:
            bad_rows_orig = []
        self.last_bad_rows = bad_rows_orig
        if k == 0:
            return 0, 0, 0, n_bad_wire, None
        arr = arrivals[oidx] if arrivals is not None else None
        arr_l = arr.tolist() if arr is not None else None
        soff_l = soff.tolist()
        slen_l = slen.tolist()
        seq_l = seq.tolist() if self._mon._tracer is not None else None
        cache = self._sender_cache
        touch = self._touch
        peers = self._mon._peers
        new_peer = self._mon._new_peer
        tracer = self._mon._tracer
        serial = self._serial + 1
        # Per-row Python work is peer resolution only: sender-bytes cache
        # lookup, sub-batch boundary detection (a flush point whenever a
        # peer repeats within the batch — everything between two boundaries
        # is a run of *distinct* peers), and compaction of UTF-8-invalid
        # senders.  The numeric columns stay numpy throughout.
        pidx_l: List[int] = []
        bounds: List[int] = []
        bad_rows: List[int] = []
        n_good = 0
        for i in range(k):
            o = soff_l[i]
            key = buf[o : o + slen_l[i]].tobytes()
            p = cache.get(key)
            if p is None:
                try:
                    sender = str(key, "utf-8")
                except UnicodeDecodeError:
                    bad_rows.append(i)
                    continue
                state = peers.get(sender)
                if state is None:
                    state = new_peer(
                        sender, arr_l[i] if arr_l is not None else now
                    )
                    self._ensure_slots(len(self._mon._peer_by_index))
                p = state.index
                cache[key] = p
            if tracer is not None and tracer.wants(seq_l[i]):
                tracer.record(
                    "recv",
                    time=arr_l[i] if arr_l is not None else now,
                    peer=self._mon._peer_by_index[p].name,
                    hb_seq=seq_l[i],
                    sent_at=float(ts[i]),
                )
            if touch[p] == serial:
                bounds.append(n_good)
                serial += 1
            touch[p] = serial
            pidx_l.append(p)
            n_good += 1
        self._serial = serial
        n_bad_utf8 = len(bad_rows)
        if n_bad_utf8:
            self.last_bad_rows = sorted(
                bad_rows_orig + [int(x) for x in oidx[bad_rows]]
            )
        if n_good == 0:
            return 0, 0, 0, n_bad_wire + n_bad_utf8, None
        pidx_all = np.array(pidx_l, dtype=np.intp)
        if n_bad_utf8:
            keep = np.ones(k, dtype=bool)
            keep[bad_rows] = False
            seq = seq[keep]
            ts = ts[keep]
            if arr is not None:
                arr = arr[keep]
        if arr is None:
            arr = np.full(n_good, now, dtype=np.float64)
        last_arrival = float(arr[-1])
        n_acc = 0
        n_stl = 0
        start = 0
        bounds.append(n_good)
        for end in bounds:
            if end > start:
                acc, stl = self._process(
                    pidx_all[start:end], seq[start:end],
                    arr[start:end], ts[start:end],
                )
                n_acc += acc
                n_stl += stl
            start = end
        acc = self.stage_acc
        if acc is not None:
            # Assembly + kernels since the decode boundary: the columnar
            # estimation-push/detector-update stage.
            acc["estimate"] += time.perf_counter() - t1
        # n_decoded counts rows that passed the full decode, including the
        # UTF-8 check applied in the assembly loop above.
        return n_good, n_acc, n_stl, n_bad_wire + n_bad_utf8, last_arrival

    # ------------------------------------------------------------------
    def _process(self, pidx, seq, arr, ts):
        """One sub-batch (distinct peers): stats pushes, deadlines, outputs.

        All four inputs are numpy columns (intp, uint64, f64, f64) — slices
        of the batch's decoded arrays, never per-row Python lists.
        """
        self.ndg[pidx] += 1
        acc = seq > self.largest[pidx]
        tracer = self._mon._tracer
        n_stl = 0
        if not acc.all():
            stale = ~acc
            sti = pidx[stale]
            self.nstale[sti] += 1
            # Stale rows change the peer's entry (its counters) without
            # scheduling anything: mark them for the next sync and for the
            # batch's delta stamp.
            self.dirty[sti] = True
            self._stale_touched.extend(sti.tolist())
            n_stl = int(sti.shape[0])
            if tracer is not None:
                peer_list = self._mon._peer_by_index
                seq_l = seq.tolist()
                for r in np.flatnonzero(stale).tolist():
                    if tracer.wants(seq_l[r]):
                        p = int(pidx[r])
                        tracer.record(
                            "stale",
                            time=float(arr[r]),
                            peer=peer_list[p].name,
                            hb_seq=seq_l[r],
                            largest_seq=int(self.largest[p]),
                        )
            pidx = pidx[acc]
            seq = seq[acc]
            arr = arr[acc]
            ts = ts[acc]
            if not pidx.shape[0]:
                return 0, n_stl
        n_acc = int(pidx.shape[0])
        self.largest[pidx] = seq
        self.nacc[pidx] += 1
        self.last_arr[pidx] = arr
        self.last_ts[pidx] = ts
        self.dirty[pidx] = True
        self._touched.extend(pidx.tolist())
        interval = self._interval
        seq_f = seq.astype(np.float64)
        big = seq == _MAX_U64
        seq1_f = (seq + np.uint64(1)).astype(np.float64)
        if big.any():
            seq1_f[big] = 2.0**64  # uint64 wraps; the scalar path promotes
        # --- shared arrival statistics (SharedArrivalState.receive) ---
        pre = {}
        for size in self._pre_sizes:
            pre[size] = self._est[size].pre_mean(pidx)
        norm = arr - interval * seq_f
        for bank in self._est.values():
            bank.push(pidx, norm)
        prev = self.prev_arr[pidx]
        has = ~np.isnan(prev)
        if has.any():
            for bank in self._gaps.values():
                bank.push(pidx[has], arr[has] - prev[has])
        self.prev_arr[pidx] = arr
        # --- per-detector freshness points (each _deadline verbatim) ---
        shift = interval * seq1_f
        dls: List = []
        for j, spec in enumerate(self._specs):
            kind = spec.kind
            if kind == "maxmean":
                best = None
                for size in spec.sizes:
                    m = self._est[size].mean(pidx)
                    best = m if best is None else np.maximum(best, m)
                d = best + shift + spec.margin
            elif kind == "timeout":
                d = arr + spec.timeout
            elif kind == "phi":
                q = spec.quantile
                if q == math.inf:
                    d = np.full(n_acc, math.inf)
                else:
                    g = self._gaps[spec.size]
                    c = g.count[pidx].astype(np.float64)
                    warm = c == 0.0
                    live = ~warm
                    m = np.divide(g.sum[pidx], c, out=np.zeros_like(c), where=live)
                    var = (
                        np.divide(g.sumsq[pidx], c, out=np.zeros_like(c), where=live)
                        - m * m
                    )
                    pos = var > 0.0
                    sigma = np.where(
                        pos, np.sqrt(np.where(pos, var, 1.0)), 0.0
                    )
                    sigma = np.where(sigma < spec.min_std, spec.min_std, sigma)
                    d = arr + (g.baseline[pidx] + m) + sigma * q
                    if warm.any():
                        d = np.where(
                            warm, arr + interval + spec.warmup_std * q, d
                        )
            elif kind == "ed":
                g = self._gaps[spec.size]
                c = g.count[pidx].astype(np.float64)
                warm = c == 0.0
                live = ~warm
                m = np.divide(g.sum[pidx], c, out=np.zeros_like(c), where=live)
                d = arr + (g.baseline[pidx] + m) * spec.factor
                if warm.any():
                    d = np.where(warm, arr + interval * spec.factor, d)
            elif kind == "adaptive":
                # adaptive-2w-fd: the 2W-FD max-mean column plus a per-row
                # margin from each peer's AdaptiveMarginController — fed the
                # row first (the scalar _update), read after (the scalar
                # _deadline).  max(meanᵢ + shift) == max(meanᵢ) + shift bit
                # for bit (addition of a shared term is monotone and the
                # winning operand pair is identical), the same identity the
                # maxmean kernel relies on.
                best = None
                for size in spec.sizes:
                    m = self._est[size].mean(pidx)
                    best = m if best is None else np.maximum(best, m)
                peer_list = self._mon._peer_by_index
                plist_ = pidx.tolist()
                seq_li = seq.tolist()
                arr_li = arr.tolist()
                margins = np.empty(n_acc)
                for r in range(n_acc):
                    ctl = peer_list[plist_[r]].det_list[j][1].controller
                    ctl.observe(seq_li[r], arr_li[r])
                    margins[r] = ctl.margin
                d = best + shift + margins
            elif kind == "chensync":
                # chen-sync (NFD-S): exact send times, no estimation state —
                # ((seq+1)·Δi + offset) + δ, pure column arithmetic.
                d = (shift + spec.offset) + spec.shift
            elif kind == "hist":
                peer_list = self._mon._peer_by_index
                plist_ = pidx.tolist()
                arr_li = arr.tolist()
                cap = spec.size
                threshold = spec.quantile
                factor = spec.factor
                d = np.empty(n_acc)
                for r in range(n_acc):
                    d[r] = _hist_update_deadline(
                        peer_list[plist_[r]].det_list[j][1],
                        arr_li[r], cap, threshold, factor, interval,
                    )
            else:  # bertier
                p_ = pre[spec.size]
                delay = self.b_delay[j][pidx]
                var = self.b_var[j][pidx]
                havep = ~np.isnan(p_)
                err = np.where(
                    havep, arr - (np.where(havep, p_, 0.0) + interval * seq_f) - delay, 0.0
                )
                delay = delay + spec.gamma * err
                var = var + spec.gamma * (np.abs(err) - var)
                self.b_delay[j][pidx] = delay
                self.b_var[j][pidx] = var
                w = self._est[spec.size]
                d = w.mean(pidx) + shift + (spec.beta * delay + spec.phi * var)
            dls.append(d)
        # --- freshness outputs: steady cells columnar, the rest object ---
        steady = []
        steady_all = np.ones(n_acc, dtype=bool)
        for j in range(self._D):
            sj = (
                self.trust[j][pidx]
                & (arr <= self.deadline[j][pidx])
                & (arr < dls[j])
                & (self.levt[j][pidx] <= arr)
            )
            steady.append(sj)
            steady_all &= sj
        for j in range(self._D):
            sj = steady[j]
            if sj.any():
                si = pidx[sj]
                self.deadline[j][si] = dls[j][sj]
                self.levt[j][si] = arr[sj]
        exc = np.flatnonzero(~steady_all)
        if exc.shape[0]:
            peer_list = self._mon._peer_by_index
            drain = self._mon._drain
            plist = pidx.tolist()
            arrlist = arr.tolist()
            dls_l = [d.tolist() for d in dls]
            steady_l = [s.tolist() for s in steady]
            for r in exc.tolist():
                p = plist[r]
                a = arrlist[r]
                state = peer_list[p]
                det_list = state.det_list
                for j in range(self._D):
                    if steady_l[j][r]:
                        continue
                    output = det_list[j][2]
                    dlj = self.deadline[j]
                    lej = self.levt[j]
                    od = dlj[p]
                    output.deadline = None if od != od else float(od)
                    le = lej[p]
                    output.last_event_time = None if le != le else float(le)
                    d = dls_l[j][r]
                    output.on_heartbeat(a, d)
                    dlj[p] = d
                    lej[p] = a
                    self.trust[j][p] = output.trusting
                drain(state.name, state)
        if tracer is not None:
            best = dls[0]
            for j in range(1, self._D):
                best = np.minimum(best, dls[j])
            best_l = best.tolist()
            seq_l = seq.tolist()
            arr_l = arr.tolist()
            plist = pidx.tolist()
            peer_list = self._mon._peer_by_index
            for r in range(n_acc):
                if tracer.wants(seq_l[r]):
                    b = best_l[r]
                    tracer.record(
                        "fresh",
                        time=arr_l[r],
                        peer=peer_list[plist[r]].name,
                        hb_seq=seq_l[r],
                        deadline=None if b == math.inf else b,
                    )
        return n_acc, n_stl

    # ------------------------------------------------------------------
    def finish_batch(self) -> None:
        """Schedule the batch's touched peers: one heap entry per peer at
        its final min-deadline (intermediate entries are unobservable —
        ``sched`` decides at pop time — so poll behavior matches the
        per-datagram pushes of the scalar path exactly)."""
        acc = self.stage_acc
        if acc is not None:
            t0 = time.perf_counter()
        ups = sorted(set(self._touched))
        self._touched = []
        if self._stale_touched:
            self.last_touched = sorted(set(ups).union(self._stale_touched))
            self._stale_touched = []
        else:
            self.last_touched = ups
        self.last_fanin = len(self.last_touched)
        if not ups:
            return
        pi = np.array(ups, dtype=np.intp)
        best = self.deadline[0][pi].copy()
        for j in range(1, self._D):
            np.minimum(best, self.deadline[j][pi], out=best)
        heap = self._mon._heap
        peer_list = self._mon._peer_by_index
        heappush = heapq.heappush
        for p, b in zip(ups, best.tolist()):
            state = peer_list[p]
            if b != math.inf:
                heappush(heap, (b, p))
                state.sched = b
            else:
                state.sched = None
        if acc is not None:
            acc["heap"] += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Lazy columnar → object synchronization
    # ------------------------------------------------------------------
    def sync_peer(self, p: int, state) -> None:
        """Write slot ``p``'s columnar state into the detector objects.

        Called before anything reads object-side state (polls popping the
        peer, snapshots, ``is_trusting``, timelines, metric scrapes).
        ``trusting`` is never written here — it is object-authoritative
        and the columnar mirror follows it, not the other way around.
        """
        if not self.dirty[p]:
            return
        self.dirty[p] = False
        ls = int(self.largest[p])
        la = self.last_arr[p]
        la = None if la != la else float(la)
        lt = self.last_ts[p]
        state.last_seq = ls
        state.last_arrival = la
        state.last_timestamp = None if lt != lt else float(lt)
        state.n_datagrams = int(self.ndg[p])
        state.n_accepted = int(self.nacc[p])
        state.n_stale = int(self.nstale[p])
        det_list = state.det_list
        for j in range(self._D):
            det = det_list[j][1]
            output = det_list[j][2]
            det._largest_seq = ls
            det._last_arrival = la
            dv = self.deadline[j][p]
            dv = None if dv != dv else float(dv)
            det._current_deadline = dv
            output.deadline = dv
            le = self.levt[j][p]
            output.last_event_time = None if le != le else float(le)
        for j, _spec in self._bertier:
            det = det_list[j][1]
            det._delay = float(self.b_delay[j][p])
            det._var = float(self.b_var[j][p])

    def sync_all(self) -> None:
        peer_list = self._mon._peer_by_index
        for p in np.flatnonzero(self.dirty).tolist():
            self.sync_peer(p, peer_list[p])

    def writeback_output(self, p: int, state) -> None:
        """Mirror object-side output mutations (``advance_to`` during a
        poll, ``finalize`` during timelines) back into the columns.
        Deadlines never change object-side, so only trust/levt move."""
        det_list = state.det_list
        for j in range(self._D):
            output = det_list[j][2]
            self.trust[j][p] = output.trusting
            le = output.last_event_time
            self.levt[j][p] = math.nan if le is None else le

    def forget_peer(self, state) -> None:
        """Drop a removed peer from the sender cache (and its dirty flag):
        the next datagram bearing its name must resolve through the
        monitor's peer map — i.e. re-discover — rather than silently feed
        the dead slot's columns."""
        self._sender_cache.pop(state.name.encode("utf-8"), None)
        p = state.index
        if p < int(self.dirty.shape[0]):
            self.dirty[p] = False

    # ------------------------------------------------------------------
    # Adaptive-mode representation switching (object ↔ columnar)
    # ------------------------------------------------------------------
    def adopt(self, peer_list) -> None:
        """Object state → columns: the adaptive monitor switching the
        columnar path on.  Every copy is field-for-field (ring buffer,
        cursors, baseline, running sums, rebuild phase — no arithmetic),
        so the columnar phase continues bit-for-bit where the object
        phase stopped.  O(peers × window capacity); hysteresis plus the
        dwell minimum in :class:`repro.live.adaptive.AdaptiveIngestController`
        keeps switches rare enough that this never shows up in a profile.
        """
        self._ensure_slots(len(peer_list))
        cache = self._sender_cache
        nan = math.nan
        for state in peer_list:
            if state.removed:
                # Tombstoned slot: never re-register the name — a future
                # datagram must re-discover the peer, not feed a dead row.
                continue
            p = state.index
            cache[state.name.encode("utf-8")] = p
            stats = state.stats
            if stats is not None:
                self.largest[p] = stats._largest_seq
                pa = stats._prev_arrival
                self.prev_arr[p] = nan if pa is None else pa
                for size, bank in self._est.items():
                    bank.load_row(p, stats._estimators[size]._window)
                for size, bank in self._gaps.items():
                    bank.load_row(p, stats._gaps[size])
            else:
                # No bindable detector configured: the batched path tracked
                # acceptance per detector (in lockstep), and no window bank
                # exists to fill.
                self.largest[p] = state.last_seq
                self.prev_arr[p] = nan
            la = state.last_arrival
            self.last_arr[p] = nan if la is None else la
            lt = state.last_timestamp
            self.last_ts[p] = nan if lt is None else lt
            self.ndg[p] = state.n_datagrams
            self.nacc[p] = state.n_accepted
            self.nstale[p] = state.n_stale
            self.dirty[p] = False
            det_list = state.det_list
            for j in range(self._D):
                det = det_list[j][1]
                output = det_list[j][2]
                dv = det._current_deadline
                self.deadline[j][p] = nan if dv is None else dv
                le = output.last_event_time
                self.levt[j][p] = nan if le is None else le
                self.trust[j][p] = output.trusting
            for j, _spec in self._bertier:
                det = det_list[j][1]
                self.b_delay[j][p] = det._delay
                self.b_var[j][p] = det._var

    def export(self, peer_list) -> None:
        """Columns → object state: the adaptive monitor switching the
        columnar path off.  ``sync_all`` already writes counters, deadlines,
        outputs and the bertier EWMAs into the objects; what remains is the
        shared estimation state the batched path reads directly."""
        self.sync_all()
        for state in peer_list:
            stats = state.stats
            if state.removed or stats is None:
                continue
            p = state.index
            stats._largest_seq = int(self.largest[p])
            pa = self.prev_arr[p]
            stats._prev_arrival = None if pa != pa else float(pa)
            for size, bank in self._est.items():
                bank.store_row(p, stats._estimators[size]._window)
            for size, bank in self._gaps.items():
                bank.store_row(p, stats._gaps[size])


if _HAVE_NUMPY:
    VectorizedIngestEngine._BODY_DTYPE = np.dtype([("seq", ">u8"), ("ts", ">f8")])


# ======================================================================
# array-module fallback engine
# ======================================================================


class _ArrayBank:
    """The :class:`_WindowBank` layout over ``array('d')`` columns.

    Per-row Python arithmetic on the same ring-buffer state; the rebuild
    reduces left-to-right (see the module docstring for the one resulting
    divergence from the numpy reference).
    """

    __slots__ = ("capacity", "buf", "count", "nxt", "baseline", "sum", "sumsq", "psr")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.buf: List[array] = []
        self.count = array("q")
        self.nxt = array("q")
        self.baseline = array("d")
        self.sum = array("d")
        self.sumsq = array("d")
        self.psr = array("q")

    def grow_to(self, slots: int) -> None:
        while len(self.count) < slots:
            self.buf.append(array("d", bytes(8 * self.capacity)))
            self.count.append(0)
            self.nxt.append(0)
            self.baseline.append(0.0)
            self.sum.append(0.0)
            self.sumsq.append(0.0)
            self.psr.append(0)

    def pre_mean(self, p: int):
        c = self.count[p]
        return self.baseline[p] + self.sum[p] / c if c else None

    def mean(self, p: int) -> float:
        return self.baseline[p] + self.sum[p] / self.count[p]

    def push(self, p: int, value: float) -> None:
        cap = self.capacity
        if cap == 1:
            self.buf[p][0] = value
            self.baseline[p] = value
            self.sum[p] = 0.0
            self.sumsq[p] = 0.0
            self.count[p] = 1
            self.psr[p] = 0
            return
        c = self.count[p]
        if c == 0:
            self.baseline[p] = value
        b = self.baseline[p]
        rel = value - b
        buf = self.buf[p]
        nxt = self.nxt[p]
        if c == cap:
            old = buf[nxt] - b
            self.sum[p] -= old
            self.sumsq[p] -= old * old
        else:
            self.count[p] = c + 1
        buf[nxt] = value
        self.sum[p] += rel
        self.sumsq[p] += rel * rel
        nxt += 1
        self.nxt[p] = 0 if nxt == cap else nxt
        self.psr[p] += 1
        if self.psr[p] >= cap:
            self._rebuild(p)

    def _rebuild(self, p: int) -> None:
        cap = self.capacity
        c = self.count[p]
        nx = self.nxt[p]
        buf = self.buf[p]
        values = buf[:c] if c < cap else buf[nx:] + buf[:nx]
        b = values[0]
        s = 0.0
        ss = 0.0
        for v in values:
            r = v - b
            s += r
            ss += r * r
        self.baseline[p] = b
        self.sum[p] = s
        self.sumsq[p] = ss
        self.psr[p] = 0


class ArrayIngestEngine:
    """numpy-absent fallback: the columnar window layout in ``array('d')``
    columns, per-row Python arithmetic, every freshness update through the
    detector objects (semantically the scalar shared-estimation path with
    column-major window storage).  Same entry points as the numpy engine,
    so the monitor, server and CLI need no gating beyond construction."""

    is_columnar = False

    #: Original batch row indices the last ingest call rejected.
    last_bad_rows: "List[int] | tuple" = ()

    #: Per-stage seconds accumulator for one sampled drain (see the numpy
    #: engine).  Heap pushes happen inline in ``_row`` here, so this
    #: engine reports ``decode`` and folds everything else — estimation,
    #: detector updates *and* the interleaved heap pushes — into
    #: ``estimate``.
    stage_acc: "Dict[str, float] | None" = None

    #: Always empty here: ``_row`` mutates the peer objects directly, so
    #: the delta-generation stamp happens inline (every decoded sender,
    #: stale rows included) and the monitor's post-batch stamp is a no-op.
    last_touched: tuple = ()

    def __init__(self, monitor, probe_detectors: Mapping[str, object]):
        self._mon = monitor
        self._interval = float(monitor.interval)
        self._specs = _build_specs(probe_detectors)
        self._D = len(self._specs)
        est_sizes: set = set()
        gap_sizes: set = set()
        for spec in self._specs:
            if spec.kind in ("maxmean", "adaptive"):
                est_sizes.update(spec.sizes)
            elif spec.kind == "bertier":
                est_sizes.add(spec.size)
            elif spec.kind in ("phi", "ed"):
                gap_sizes.add(spec.size)
        self._est = {size: _ArrayBank(size) for size in sorted(est_sizes)}
        self._gaps = {size: _ArrayBank(size) for size in sorted(gap_sizes)}
        self.largest: List[int] = []
        self.prev_arr: List[float | None] = []
        self._sender_cache: Dict[bytes, int] = {}
        self.last_fanin = 0

    def _ensure_slots(self, n: int) -> None:
        for bank in self._est.values():
            bank.grow_to(n)
        for bank in self._gaps.values():
            bank.grow_to(n)
        while len(self.largest) < n:
            self.largest.append(0)
            self.prev_arr.append(None)

    # ------------------------------------------------------------------
    def ingest_datagrams(self, datagrams, arrivals, now):
        n_bad = n_acc = n_stl = 0
        last_arrival = None
        arr_iter = iter(arrivals) if arrivals is not None else None
        n_dec = 0
        seen: set = set()
        self.last_bad_rows = bad_rows = []
        decode, finish = self._staged_decoder(decode_fields)
        for i, data in enumerate(datagrams):
            a = next(arr_iter) if arr_iter is not None else now
            try:
                sender, seq, ts = decode(data)
            except WireError:
                n_bad += 1
                bad_rows.append(i)
                continue
            n_dec += 1
            seen.add(sender)
            last_arrival = a
            acc = self._row(sender, seq, ts, a)
            if acc:
                n_acc += 1
            else:
                n_stl += 1
        finish()
        self.last_fanin = len(seen)
        return n_dec, n_acc, n_stl, n_bad, last_arrival

    def ingest_arena(self, arena, now):
        n_bad = n_acc = n_stl = 0
        last_arrival = None
        n_dec = 0
        buffer = arena.buffer
        slot = arena.slot_bytes
        lengths = arena.lengths
        seen: set = set()
        self.last_bad_rows = bad_rows = []
        decode_from, finish = self._staged_decoder(decode_fields_from)
        for i in range(arena.last_fill):
            try:
                sender, seq, ts = decode_from(buffer, i * slot, lengths[i])
            except WireError:
                n_bad += 1
                bad_rows.append(i)
                continue
            n_dec += 1
            seen.add(sender)
            last_arrival = now
            if self._row(sender, seq, ts, now):
                n_acc += 1
            else:
                n_stl += 1
        finish()
        self.last_fanin = len(seen)
        return n_dec, n_acc, n_stl, n_bad, last_arrival

    # ------------------------------------------------------------------
    def _staged_decoder(self, decode):
        """Wrap ``decode`` for stage accounting on a sampled drain.

        With :attr:`stage_acc` unset (the common case) the raw decoder
        comes back untouched and ``finish`` is a no-op — zero per-row
        cost.  Otherwise the wrapper accumulates decode seconds per row
        and ``finish`` books the drain's remainder as ``estimate``
        (per-row estimation, detector updates, inline heap pushes).
        """
        acc = self.stage_acc
        if acc is None:
            return decode, lambda: None
        pc = time.perf_counter
        held = [0.0]
        t_start = pc()

        def timed(*parts):
            t = pc()
            try:
                return decode(*parts)
            finally:
                held[0] += pc() - t

        def finish():
            acc["decode"] += held[0]
            acc["estimate"] += (pc() - t_start) - held[0]

        return timed, finish

    def _row(self, sender: str, seq: int, ts: float, arrival: float) -> bool:
        """One decoded heartbeat through the column-backed scalar path."""
        mon = self._mon
        state = mon._peers.get(sender)
        if state is None:
            state = mon._new_peer(sender, arrival)
            self._ensure_slots(len(mon._peer_by_index))
        p = state.index
        tracer = mon._tracer
        traced = tracer is not None and tracer.wants(seq)
        if traced:
            tracer.record(
                "recv", time=arrival, peer=sender, hb_seq=seq, sent_at=ts
            )
        state.n_datagrams += 1
        state.gen = mon._status_gen
        if seq <= self.largest[p]:
            state.n_stale += 1
            if traced:
                tracer.record(
                    "stale", time=arrival, peer=sender, hb_seq=seq,
                    largest_seq=state.last_seq,
                )
            return False
        self.largest[p] = seq
        interval = self._interval
        # SharedArrivalState.receive over the array banks: pre-push mean
        # capture, normalized-arrival pushes, then the gap pushes.
        pre = {}
        for j, spec in enumerate(self._specs):
            if spec.kind == "bertier" and spec.size not in pre:
                pre[spec.size] = self._est[spec.size].pre_mean(p)
        norm = arrival - interval * seq
        for bank in self._est.values():
            bank.push(p, norm)
        prev = self.prev_arr[p]
        if prev is not None:
            gap = arrival - prev
            for bank in self._gaps.values():
                bank.push(p, gap)
        self.prev_arr[p] = arrival
        state.n_accepted += 1
        state.last_seq = seq
        state.last_arrival = arrival
        state.last_timestamp = ts
        det_list = state.det_list
        best = math.inf
        nt = 0
        for j, spec in enumerate(self._specs):
            det = det_list[j][1]
            output = det_list[j][2]
            kind = spec.kind
            if kind == "maxmean":
                bm = None
                for size in spec.sizes:
                    m = self._est[size].mean(p)
                    if bm is None or m > bm:
                        bm = m
                d = bm + interval * (seq + 1) + spec.margin
            elif kind == "timeout":
                d = arrival + spec.timeout
            elif kind == "phi":
                q = spec.quantile
                if q == math.inf:
                    d = math.inf
                else:
                    g = self._gaps[spec.size]
                    c = g.count[p]
                    if c == 0:
                        d = arrival + interval + spec.warmup_std * q
                    else:
                        m = g.sum[p] / c
                        var = g.sumsq[p] / c - m * m
                        sigma = math.sqrt(var) if var > 0.0 else 0.0
                        if sigma < spec.min_std:
                            sigma = spec.min_std
                        d = arrival + (g.baseline[p] + m) + sigma * q
            elif kind == "ed":
                g = self._gaps[spec.size]
                c = g.count[p]
                if c == 0:
                    d = arrival + interval * spec.factor
                else:
                    d = arrival + (g.baseline[p] + g.sum[p] / c) * spec.factor
            elif kind == "adaptive":
                ctl = det.controller
                ctl.observe(seq, arrival)
                bm = None
                for size in spec.sizes:
                    m = self._est[size].mean(p)
                    if bm is None or m > bm:
                        bm = m
                d = bm + interval * (seq + 1) + ctl.margin
            elif kind == "chensync":
                d = (seq + 1) * interval + spec.offset + spec.shift
            elif kind == "hist":
                d = _hist_update_deadline(
                    det, arrival, spec.size, spec.quantile, spec.factor, interval
                )
            else:  # bertier
                p_ = pre[spec.size]
                if p_ is not None:
                    error = arrival - (p_ + interval * seq) - det._delay
                else:
                    error = 0.0
                det._delay += spec.gamma * error
                det._var += spec.gamma * (abs(error) - det._var)
                w = self._est[spec.size]
                d = w.mean(p) + interval * (seq + 1) + (
                    spec.beta * det._delay + spec.phi * det._var
                )
            det._largest_seq = seq
            det._last_arrival = arrival
            det._current_deadline = d
            output.on_heartbeat(arrival, d)
            nt += output.n_transitions
            if d < best:
                best = d
        if best != math.inf:
            heapq.heappush(mon._heap, (best, p))
            state.sched = best
        else:
            state.sched = None
        if traced:
            tracer.record(
                "fresh", time=arrival, peer=sender, hb_seq=seq,
                deadline=None if best == math.inf else best,
            )
        if nt != state.consumed_total:
            mon._drain(sender, state)
        return True

    # ------------------------------------------------------------------
    # Objects stay authoritative on this engine: syncs are no-ops.
    # ------------------------------------------------------------------
    def finish_batch(self) -> None:
        pass

    def sync_peer(self, p: int, state) -> None:
        pass

    def sync_all(self) -> None:
        pass

    def writeback_output(self, p: int, state) -> None:
        pass

    def forget_peer(self, state) -> None:
        """Drop a removed peer's sender-cache entry (see the numpy
        engine's docstring) — the column banks keep the dead row, which
        is never addressed again."""
        self._sender_cache.pop(state.name.encode("utf-8"), None)


def build_engine(monitor, probe_detectors: Mapping[str, object]):
    """The vectorized engine for this interpreter: numpy-backed when
    available, the ``array``-module fallback otherwise.  Both validate the
    detector set (unsupported detectors raise ``ValueError`` here, at
    monitor construction)."""
    if _HAVE_NUMPY:
        return VectorizedIngestEngine(monitor, probe_detectors)
    return ArrayIngestEngine(monitor, probe_detectors)
