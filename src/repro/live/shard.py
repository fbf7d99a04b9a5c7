"""Multi-core live ingest: SO_REUSEPORT shard workers + snapshot merging.

A single :class:`~repro.live.monitor.LiveMonitor` is one Python process —
one core, however fast the batched ingest path gets.  ``SO_REUSEPORT``
lifts that ceiling without any routing tier: N worker processes each bind
the *same* UDP address, and the kernel distributes datagrams across the
sockets by a hash of the packet's 4-tuple, so one sender's heartbeats
consistently land on one worker.  Each worker owns a full
:class:`LiveMonitor` (its own detectors, deadline heap, poll timer, and
local status endpoint); no state is shared between workers, so there is no
locking anywhere on the datagram path.

The parent process (:class:`ShardedMonitor`) is a pure aggregator: it
spawns the workers, collects their status-port addresses, and serves one
merged JSON document over the existing status protocol —
:func:`merge_snapshots` sums the counters, unions the per-peer listings,
and takes the worst-case poll latency, so ``repro-fd live status`` reads a
sharded deployment exactly as it reads a single monitor (the document says
``"mode": "sharded"`` and lists the per-shard contributions).

On platforms without ``SO_REUSEPORT`` (see :func:`reuseport_supported`)
— or with ``n_shards=1`` — :class:`ShardedMonitor` degrades to a single
in-process :class:`LiveMonitorServer` with the same external surface: the
same UDP port semantics, the same merged-document shape (``n_shards: 1``).

Caveat: each worker stamps arrivals on its *own* monitor clock (epoch =
its first datagram), so arrival times in the merged per-peer listing are
shard-relative — consistent per peer (a peer sticks to one shard), not
comparable across peers on different shards.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import socket
import time
from typing import Dict, List, Mapping, Sequence, Tuple

from repro._validation import ensure_int_at_least, ensure_positive
from repro.live.delta import MergedStatusView, delta_argument, delta_line
from repro.live.monitor import LiveMonitor, LiveMonitorServer
from repro.live.status import (
    SNAPSHOT_SCHEMA_VERSION,
    StatusServer,
    arequest,
    cursor_argument,
    structured,
)
from repro.obs.diag import (
    DEFAULT_SAMPLE_EVERY,
    DEFAULT_STALL_THRESHOLD,
    merge_diag_documents,
)
from repro.obs.metrics import (
    merge_parsed,
    parse_exposition,
    render_parsed,
)
from repro.obs.runtime import Observability

__all__ = [
    "ShardedMonitor",
    "merge_snapshots",
    "reuseport_supported",
]

logger = logging.getLogger("repro.live.shard")

#: How long the parent waits for a worker to report its ports.
WORKER_START_TIMEOUT = 10.0


def reuseport_supported() -> bool:
    """Can this platform bind multiple UDP sockets to one address?

    True iff ``socket.SO_REUSEPORT`` exists *and* the kernel accepts it
    (some platforms define the constant but reject the setsockopt).
    """
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:
        return False
    return True


def _bind_reuseport(host: str, port: int) -> socket.socket:
    """One non-blocking UDP socket in the shared-port group."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.setblocking(False)
    except OSError:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# Snapshot merging (pure; unit-testable without any processes)
# ----------------------------------------------------------------------

#: Gauge merge policy for shard expositions: population-style gauges add
#: across shards, identity gauges take the later document (same build
#: everywhere, and a numeric fold of an *_info gauge is meaningless);
#: every unlisted gauge takes the worst case — e.g. poll latency.  Same
#: shape as the snapshot merge: peer counts / rates sum, latencies max.
_GAUGE_SUM_METRICS = {
    "repro_monitor_peers": "sum",
    "repro_monitor_heap_size": "sum",
    "repro_heartbeat_rate": "sum",
    "repro_build_info": "last",
    "repro_process_start_time_seconds": "last",
}

#: ``monitor`` block counters that add across shards.
_SUM_LOAD_KEYS = (
    "n_peers",
    "heap_size",
    "heartbeat_rate",
    "n_polls",
    "n_batches",
    "n_events_total",
    "n_events_dropped",
    "n_listener_errors",
)


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge per-shard monitor snapshots into one status document.

    Counters are summed, the per-peer listings unioned (should a peer
    appear on several shards — possible after worker churn — the entry
    with the most accepted heartbeats wins, ties to the later shard), and
    the poll latency reported is the worst across shards.  Scalars that
    must agree (interval, detector set, schema) are taken from the first
    snapshot; a mismatch raises, because it means the shards are not
    replicas of one configuration.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot to merge")
    first = snapshots[0]
    for snap in snapshots[1:]:
        for key in ("schema", "interval", "detectors"):
            if snap.get(key) != first.get(key):
                raise ValueError(
                    f"shard snapshots disagree on {key!r}: "
                    f"{snap.get(key)!r} != {first.get(key)!r}"
                )
    merged_load: Dict[str, object] = {key: 0 for key in _SUM_LOAD_KEYS}
    merged_counters: Dict[str, float] = {}
    last_poll = None
    peers: Dict[str, dict] = {}
    shards: List[dict] = []
    n_malformed = 0
    n_events = 0
    for idx, snap in enumerate(snapshots):
        load = snap.get("monitor", {})
        for key in _SUM_LOAD_KEYS:
            value = load.get(key)
            if value is not None:
                merged_load[key] += value
        for key, value in (load.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                merged_counters[key] = merged_counters.get(key, 0) + value
        duration = load.get("last_poll_duration")
        if duration is not None and (last_poll is None or duration > last_poll):
            last_poll = duration
        n_malformed += snap.get("n_malformed", 0)
        n_events += snap.get("n_events", 0)
        for peer, entry in snap.get("peers", {}).items():
            held = peers.get(peer)
            if held is None or entry.get("n_accepted", 0) >= held.get(
                "n_accepted", 0
            ):
                peers[peer] = entry
        shards.append(
            {
                "shard": idx,
                "n_peers": load.get("n_peers"),
                "n_events": snap.get("n_events"),
                "heartbeat_rate": load.get("heartbeat_rate"),
                "n_malformed": snap.get("n_malformed"),
            }
        )
    if any("peers" in snap for snap in snapshots):
        # With the listings present, the union is authoritative (a peer
        # that migrated between shards must not be counted twice).
        merged_load["n_peers"] = len(peers)
    if merged_counters:
        merged_load["counters"] = merged_counters
    merged_load["last_poll_duration"] = last_poll
    merged_load["poll_mode"] = snapshots[0].get("monitor", {}).get("poll_mode")
    merged_load["estimation"] = snapshots[0].get("monitor", {}).get("estimation")
    merged = {
        "schema": first.get("schema", SNAPSHOT_SCHEMA_VERSION),
        "mode": "sharded",
        "n_shards": len(snapshots),
        "interval": first.get("interval"),
        "detectors": first.get("detectors"),
        "n_malformed": n_malformed,
        "n_events": n_events,
        "monitor": merged_load,
        "shards": shards,
    }
    if any("peers" in snap for snap in snapshots):
        merged["peers"] = peers
    admissions = [snap["admission"] for snap in snapshots if "admission" in snap]
    if admissions:
        merged["admission"] = _merge_admission(admissions)
    return merged


def _merge_admission(blocks: Sequence[dict]) -> dict:
    """Sum per-shard admission stats (each worker screens its own share).

    Note: per-tenant token buckets are per worker, so a sharded
    deployment's effective rate limit is ``rate × n_shards`` in the worst
    case — an accepted approximation (kernel 4-tuple hashing keeps one
    sender on one shard, so a single sender never sees more than one
    bucket).
    """
    merged = {
        "n_admitted": 0,
        "n_rejected": 0,
        "n_malformed_passthrough": 0,
        "reject_reasons": {},
        "tenants": {},
        "last_reject": None,
    }
    for block in blocks:
        merged["n_admitted"] += block.get("n_admitted", 0)
        merged["n_rejected"] += block.get("n_rejected", 0)
        merged["n_malformed_passthrough"] += block.get("n_malformed_passthrough", 0)
        for reason, count in (block.get("reject_reasons") or {}).items():
            merged["reject_reasons"][reason] = (
                merged["reject_reasons"].get(reason, 0) + count
            )
        for tid, stats in (block.get("tenants") or {}).items():
            held = merged["tenants"].setdefault(
                tid, {"admitted": 0, "rejected": {}}
            )
            held["admitted"] += stats.get("admitted", 0)
            for reason, count in (stats.get("rejected") or {}).items():
                held["rejected"][reason] = held["rejected"].get(reason, 0) + count
        if block.get("last_reject") is not None:
            merged["last_reject"] = block["last_reject"]
    return merged


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _shard_worker(
    shard_id: int,
    sock: socket.socket,
    monitor_kwargs: dict,
    tick: float,
    ready_queue,
    stop_event,
    obs_kwargs: dict | None = None,
    tenants_config: dict | None = None,
) -> None:  # pragma: no cover - subprocess body (exercised by integration tests)
    """One worker: a full LiveMonitor on its share of the UDP port."""
    try:
        asyncio.run(
            _shard_main(
                shard_id,
                sock,
                monitor_kwargs,
                tick,
                ready_queue,
                stop_event,
                obs_kwargs,
                tenants_config,
            )
        )
    except KeyboardInterrupt:
        pass
    except Exception as exc:
        try:
            ready_queue.put((shard_id, None, None, str(exc)))
        except Exception:
            pass
        raise


async def _shard_main(
    shard_id,
    sock,
    monitor_kwargs,
    tick,
    ready_queue,
    stop_event,
    obs_kwargs=None,
    tenants_config=None,
) -> None:  # pragma: no cover - subprocess body
    # Each worker owns a full observability stack (registry, tracer, QoS
    # estimators) — nothing is shared across processes; the parent merges
    # the per-shard expositions at scrape time.
    obs = Observability(**obs_kwargs) if obs_kwargs is not None else None
    monitor = LiveMonitor(**monitor_kwargs, obs=obs)
    # Each worker screens its own share of the datagram stream: the
    # registry rebuilds from the picklable config, so admission (auth,
    # replay, tenancy, rate limits) needs no cross-process state.  The
    # replay high-water marks and token buckets are per worker — sound,
    # because the kernel's 4-tuple hash keeps one sender on one shard.
    admission = None
    if tenants_config is not None:
        from repro.fdaas.admission import AdmissionController
        from repro.fdaas.tenants import TenantRegistry

        admission = AdmissionController(
            TenantRegistry.from_config(tenants_config), observability=obs
        )
    # The server's receive strategy follows the monitor's ingest mode: the
    # columnar-capable modes (vectorized, adaptive) drain the pre-bound
    # shard socket through the zero-copy arena instead of the asyncio
    # datagram transport.  Each worker owns its monitor — so under
    # adaptive mode every SO_REUSEPORT shard runs its own controller and
    # adapts to the fan-in the kernel's 4-tuple hash actually gives *it*,
    # independently of its siblings.
    server = LiveMonitorServer(
        monitor,
        tick=tick,
        status_port=0,
        ingest_mode=monitor_kwargs.get("ingest_mode", "batched"),
        sock=sock,
        admission=admission,
    )
    await server.start()
    assert server.status is not None
    ready_queue.put(
        (shard_id, server.address[1], server.status.address[1], None)
    )
    logger.info(
        structured(
            "shard-started", shard=shard_id, status_port=server.status.address[1]
        )
    )
    try:
        while not stop_event.is_set():
            await asyncio.sleep(0.05)
    finally:
        await server.stop()


# ----------------------------------------------------------------------
# Parent aggregator
# ----------------------------------------------------------------------


class ShardedMonitor:
    """N shard workers behind one UDP address + one merged status endpoint.

    Parameters mirror :class:`LiveMonitor` / :class:`LiveMonitorServer`;
    ``n_shards`` is the worker count.  With ``n_shards=1`` — or when the
    platform lacks ``SO_REUSEPORT`` and ``fallback=True`` — everything
    runs in-process as a single :class:`LiveMonitorServer`, same surface.

    Usage::

        sharded = ShardedMonitor(0.1, ["2w-fd"], n_shards=4, status_port=7700)
        await sharded.start()       # UDP address in sharded.address
        ...
        await sharded.stop()
    """

    def __init__(
        self,
        interval: float,
        detectors: Sequence[str] = ("2w-fd",),
        params: Mapping[str, float | None] | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        n_shards: int = 2,
        tick: float = 0.02,
        status_port: int | None = None,
        status_host: str = "127.0.0.1",
        ingest_mode: str = "batched",
        max_events: int | None = None,
        transition_retention: int | None = None,
        fallback: bool = True,
        obs: bool = False,
        trace_sample_every: int = 1,
        diagnostics: bool = False,
        diag_sample_every: int = DEFAULT_SAMPLE_EVERY,
        stall_threshold: float = DEFAULT_STALL_THRESHOLD,
        tenants_config: dict | None = None,
        status_timeout: float = 2.0,
        status_retries: int = 1,
    ):
        ensure_positive(interval, "interval")
        ensure_int_at_least(n_shards, 1, "n_shards")
        ensure_positive(status_timeout, "status_timeout")
        ensure_int_at_least(status_retries, 0, "status_retries")
        self._status_timeout = float(status_timeout)
        self._status_retries = int(status_retries)
        # Multi-tenant admission: the picklable TenantRegistry.to_config()
        # dict; each worker rebuilds its own registry + controller from it.
        self._tenants_config = tenants_config
        if tenants_config is not None:
            # Validate up front in the parent, like the monitor config.
            from repro.fdaas.tenants import TenantRegistry

            TenantRegistry.from_config(tenants_config)
        # Observability: each worker builds its own bundle from this spec
        # (an Observability object holds collect hooks and can't cross the
        # fork); the parent merges the per-shard expositions.
        self._obs_kwargs = (
            dict(
                trace_sample_every=trace_sample_every,
                diagnostics=diagnostics,
                diag_sample_every=diag_sample_every,
                stall_threshold=stall_threshold,
            )
            if obs
            else None
        )
        self._diagnostics = bool(obs and diagnostics)
        # Validate the full monitor configuration up front (and in the
        # parent): a bad detector spec should raise here, not in a forked
        # worker ten seconds later.
        self._monitor_kwargs = dict(
            interval=float(interval),
            detectors=tuple(detectors),
            params=dict(params or {}),
            ingest_mode=ingest_mode,
            max_events=max_events,
            transition_retention=transition_retention,
        )
        LiveMonitor(**self._monitor_kwargs)
        self._host = host
        self._port = port
        self._tick = float(tick)
        self._status_port = status_port
        self._status_host = status_host
        self._requested_shards = n_shards
        if n_shards > 1 and not reuseport_supported():
            if not fallback:
                raise RuntimeError(
                    "SO_REUSEPORT is not available on this platform; "
                    "cannot run a multi-shard monitor (pass n_shards=1 "
                    "or fallback=True)"
                )
            logger.warning(
                structured(
                    "shard-fallback",
                    reason="SO_REUSEPORT unavailable",
                    requested=n_shards,
                )
            )
            n_shards = 1
        self.n_shards = n_shards
        self.address: Tuple[str, int] | None = None
        self.status: StatusServer | None = None
        self._single: LiveMonitorServer | None = None
        self._workers: List[multiprocessing.Process] = []
        self._status_ports: Dict[int, int] = {}
        self._stop_event = None
        # Status-plane state: the persistent merged view (rebuilt per
        # start(), since workers — and their cursors — are per run), a
        # per-shard (text, parsed) exposition cache, and the last merged
        # exposition keyed on the tuple of per-shard texts.
        self._view = MergedStatusView(n_shards=self.n_shards)
        self._parsed_cache: Dict[int, Tuple[str, dict]] = {}
        self._merged_metrics_cache: Tuple[Tuple[str, ...], str] | None = None
        # Staleness ledger: shard id -> (last exposition text, monotonic
        # time that text was first seen).  A wedged worker keeps serving
        # its cached exposition, so its age grows while the others reset.
        self._expo_change: Dict[int, Tuple[str, float]] = {}

    # -- single-process fallback ---------------------------------------
    @property
    def mode(self) -> str:
        """``"sharded"`` (worker processes) or ``"single"`` (in-process)."""
        return "sharded" if self.n_shards > 1 else "single"

    async def _refresh_view(self) -> None:
        """One delta round: fetch each shard at its cursor, fold the lot.

        A restarted (or newly seen) worker answers a cursor minted by its
        predecessor with a full listing — instance ids don't match — so
        only that shard pays the full-refetch cost; the rest keep folding
        incrementally.  Unreachable shards surface in ``shard_errors``.
        """
        sids = list(self._status_ports)
        results = await asyncio.gather(
            *(
                self._ask(
                    self._status_ports[sid], delta_line(*self._view.cursor(sid))
                )
                for sid in sids
            ),
            return_exceptions=True,
        )
        self._view.fold(dict(zip(sids, results)))

    def _ask(self, port: int, line: str):
        """One request to a worker's status endpoint (a coroutine)."""
        return arequest(
            self._status_host,
            port,
            line,
            timeout=self._status_timeout,
            retries=self._status_retries,
        )

    async def _view_snapshot(self) -> dict:
        await self._refresh_view()
        return self._view.document()

    async def _view_summary(self) -> dict:
        await self._refresh_view()
        return self._view.document(include_peers=False)

    async def _view_delta(
        self, since: int | None = None, instance: str | None = None
    ) -> dict:
        """The parent's own ``delta`` responses (hierarchy-stackable)."""
        await self._refresh_view()
        return self._view.delta_document(since, instance)

    async def _merged_metrics(self) -> str:
        """One exposition for the whole shard group (counters summed,
        per-shard capacity gauges summed, latency gauges worst-case).

        The parse/merge/render pipeline is cached: each shard's parsed
        document is reused while its text is unchanged (worker-side
        family render caches make unchanged text the common case), and
        the merged text is reused while *no* shard changed.
        """
        results = await asyncio.gather(
            *(self._ask(port, "metrics") for port in self._status_ports.values()),
            return_exceptions=True,
        )
        texts = [r for r in results if isinstance(r, str)]
        if not texts:
            raise RuntimeError("no shard served a metrics exposition")
        now = time.monotonic()
        for sid, result in zip(self._status_ports, results):
            if not isinstance(result, str):
                continue
            held_text = self._expo_change.get(sid)
            if held_text is None or held_text[0] != result:
                self._expo_change[sid] = (result, now)
        key = tuple(texts)
        held = self._merged_metrics_cache
        if held is not None and held[0] == key:
            return held[1] + self._staleness_fragment(now)
        parsed_docs = []
        for sid, result in zip(self._status_ports, results):
            if not isinstance(result, str):
                continue
            cached = self._parsed_cache.get(sid)
            if cached is None or cached[0] != result:
                cached = (result, parse_exposition(result))
                self._parsed_cache[sid] = cached
            parsed_docs.append(cached[1])
        text = render_parsed(
            merge_parsed(parsed_docs, gauge_policy=_GAUGE_SUM_METRICS)
        )
        self._merged_metrics_cache = (key, text)
        return text + self._staleness_fragment(now)

    def _staleness_fragment(self, now: float) -> str:
        """Per-shard exposition age, rendered *outside* the merge cache.

        Appended after the (cached) merged text so the ages stay live even
        when no shard's exposition changed — that standstill is exactly
        the condition the gauge exists to surface: a wedged worker keeps
        answering with its last cached exposition, indistinguishable from
        a healthy idle one until its age keeps growing while the rest
        reset on every real update.
        """
        if not self._expo_change:
            return ""
        lines = [
            "# HELP repro_shard_exposition_age_seconds Seconds since this "
            "shard's exposition text last changed.",
            "# TYPE repro_shard_exposition_age_seconds gauge",
        ]
        for sid in sorted(self._expo_change):
            age = max(0.0, now - self._expo_change[sid][1])
            lines.append(
                'repro_shard_exposition_age_seconds{shard="%d"} %.6f'
                % (sid, age)
            )
        return "\n".join(lines) + "\n"

    async def _merged_diag(self, since: int = 0) -> dict:
        """One diagnostics document for the whole shard group.

        ``since`` is accepted for protocol symmetry but ignored: one
        cursor cannot address N independent flight-recorder rings, so the
        parent always fetches each shard from cursor 0 and reports the
        per-shard cursors under ``"shards"`` — resume against a specific
        shard's status port directly if incremental tailing is needed.
        """
        results = await asyncio.gather(
            *(self._ask(port, "diag 0") for port in self._status_ports.values()),
            return_exceptions=True,
        )
        docs = {}
        errors = []
        for sid, result in zip(self._status_ports, results):
            if isinstance(result, BaseException):
                errors.append({"shard": sid, "error": str(result)})
            else:
                docs[sid] = result
        merged = merge_diag_documents(docs)
        if errors:
            merged["shard_errors"] = errors
        return merged

    async def start(self) -> Tuple[str, int]:
        """Bind the shared UDP port, start the workers, serve the merge."""
        if self.n_shards == 1:
            obs = (
                Observability(**self._obs_kwargs)
                if self._obs_kwargs is not None
                else None
            )
            monitor = LiveMonitor(**self._monitor_kwargs, obs=obs)
            admission = None
            if self._tenants_config is not None:
                from repro.fdaas.admission import AdmissionController
                from repro.fdaas.tenants import TenantRegistry

                admission = AdmissionController(
                    TenantRegistry.from_config(self._tenants_config),
                    observability=obs,
                )
            self._single = LiveMonitorServer(
                monitor,
                self._host,
                self._port,
                tick=self._tick,
                status_port=self._status_port,
                status_host=self._status_host,
                ingest_mode=self._monitor_kwargs["ingest_mode"],
                admission=admission,
            )
            self.address = await self._single.start()
            self.status = self._single.status
            return self.address

        # Bind every worker's socket here, before forking: all must join
        # the same SO_REUSEPORT group, and binding port 0 in the workers
        # would hand each one a *different* ephemeral port.
        first = _bind_reuseport(self._host, self._port)
        bound_port = first.getsockname()[1]
        socks = [first]
        try:
            for _ in range(self.n_shards - 1):
                socks.append(_bind_reuseport(self._host, bound_port))
        except OSError:
            for sock in socks:
                sock.close()
            raise
        self.address = (self._host, bound_port)

        ctx = multiprocessing.get_context("fork")
        self._stop_event = ctx.Event()
        ready_queue = ctx.Queue()
        for shard_id, sock in enumerate(socks):
            proc = ctx.Process(
                target=_shard_worker,
                args=(
                    shard_id,
                    sock,
                    self._monitor_kwargs,
                    self._tick,
                    ready_queue,
                    self._stop_event,
                    self._obs_kwargs,
                    self._tenants_config,
                ),
                daemon=True,
            )
            proc.start()
            self._workers.append(proc)
        # The parent's copies of the sockets must close, or the kernel
        # would keep dealing datagrams to fds nobody reads.  (The workers
        # inherited every fd via fork; each reads only its own — the
        # others die with the process group at shutdown.)
        for sock in socks:
            sock.close()

        loop = asyncio.get_running_loop()
        try:
            for _ in range(self.n_shards):
                shard_id, _udp, status_port, error = await loop.run_in_executor(
                    None, ready_queue.get, True, WORKER_START_TIMEOUT
                )
                if error is not None:
                    raise RuntimeError(f"shard {shard_id} failed to start: {error}")
                self._status_ports[shard_id] = status_port
        except Exception:
            await self.stop()
            raise
        self._status_ports = dict(sorted(self._status_ports.items()))
        # Fresh workers mean fresh cursors: discard any view/caches from a
        # previous run of this aggregator.
        self._view = MergedStatusView(n_shards=self.n_shards)
        self._parsed_cache = {}
        self._merged_metrics_cache = None
        self._expo_change = {}

        if self._status_port is not None:
            commands = {
                "": self._view_snapshot,
                "summary": self._view_summary,
                "delta": (self._view_delta, delta_argument),
            }
            if self._obs_kwargs is not None:
                commands["metrics"] = self._merged_metrics
            if self._diagnostics:
                commands["diag"] = (self._merged_diag, cursor_argument)
            self.status = StatusServer(
                commands, host=self._status_host, port=self._status_port
            )
            await self.status.start()
        logger.info(
            structured(
                "sharded-monitor-started",
                host=self.address[0],
                port=self.address[1],
                n_shards=self.n_shards,
            )
        )
        return self.address

    async def snapshot(self) -> dict:
        """The merged status document (fetches every live shard)."""
        if self._single is not None:
            snap = self._single.status_commands()[""]()  # with "admission"
            merged = merge_snapshots([snap])
            merged["n_shards"] = 1
            return merged
        return await self._view_snapshot()

    async def metrics(self) -> str:
        """The merged Prometheus exposition (RuntimeError with obs off)."""
        if self._obs_kwargs is None:
            raise RuntimeError(
                "observability is off for this sharded monitor (pass obs=True)"
            )
        if self._single is not None:
            return self._single.monitor.render_metrics()
        return await self._merged_metrics()

    async def stop(self) -> None:
        """Stop the status endpoint and shut every worker down."""
        if self.status is not None and self._single is None:
            await self.status.stop()
            self.status = None
        if self._single is not None:
            await self._single.stop()
            self._single = None
            self.status = None
            return
        if self._stop_event is not None:
            self._stop_event.set()
        loop = asyncio.get_running_loop()
        for proc in self._workers:
            await loop.run_in_executor(None, proc.join, 5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                await loop.run_in_executor(None, proc.join, 5.0)
        self._workers = []
        self._status_ports = {}
        logger.info(structured("sharded-monitor-stopped"))

    async def __aenter__(self) -> "ShardedMonitor":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()
