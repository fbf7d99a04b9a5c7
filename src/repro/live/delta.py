"""Client-side state for the incremental status plane.

Two pure (socket-free) pieces sit behind the ``delta`` request line of
:mod:`repro.live.status`, whose format lives here too:
:func:`delta_line` writes ``delta [<cursor> [<instance>]]`` and
:func:`delta_argument` parses it on the server side:

:class:`SnapshotReplica` reconstructs one monitor's full snapshot from a
stream of delta documents — apply each response and :meth:`document`
always deep-equals what a full ``snapshot()`` fetch would have returned
at the same instant.  It tolerates every fallback the protocol defines:
a plain full snapshot (a server predating the delta protocol), a
``full: true`` delta (stale/foreign cursor), and incremental documents
(changed entries + removed-peer tombstones).

:class:`MergedStatusView` is the shard parent's persistent merged view:
one replica per worker, folded per refresh round, with the winning entry
per peer maintained *incrementally* — instead of re-running
:func:`repro.live.shard.merge_snapshots` over every worker's full
document on every request, only the peers whose entries actually changed
are re-resolved.  The winner rule is exactly ``merge_snapshots``'s: most
accepted heartbeats wins, ties to the later shard.  The view also serves
its *own* downstream deltas (the parent is just another delta server to
its clients), with its own generation, instance id and tombstones — the
building block ROADMAP item 4's shard → region → global hierarchy
stacks.

Per-shard cursors survive worker restarts for free: a restarted worker
mints a new instance id, its next response is a full delta, and only
that shard's replica is rebuilt — the merge keeps folding the others
incrementally.
"""

from __future__ import annotations

import uuid
from typing import Dict, List, Mapping, Set, Tuple

__all__ = [
    "MergedStatusView",
    "SnapshotReplica",
    "delta_argument",
    "delta_line",
]

#: Keys of a delta document that are *not* part of the snapshot head.
_NON_HEAD_KEYS = ("peers", "removed", "delta")


def delta_line(since: int | None = None, instance: str | None = None) -> str:
    """The request line asking for changes after ``since`` minted by
    ``instance`` (``None`` cursor: a full listing)."""
    if since is None:
        return "delta"
    if instance is None:
        return f"delta {since}"
    return f"delta {since} {instance}"


def delta_argument(text: str) -> Tuple[int | None, str | None]:
    """Server-side parser of :func:`delta_line`'s argument: ``(since,
    instance)``; ValueError on a non-integer cursor or extra words."""
    parts = text.split()
    if len(parts) > 2:
        raise ValueError(f"takes [<cursor> [<instance>]], got {text!r}")
    since = int(parts[0]) if parts else None
    return since, parts[1] if len(parts) > 1 else None


class ApplyResult:
    """What one :meth:`SnapshotReplica.apply` changed."""

    __slots__ = ("full", "changed", "removed")

    def __init__(self, full: bool, changed: Set[str], removed: Set[str]):
        self.full = full
        self.changed = changed  # peers inserted or updated
        self.removed = removed  # peers deleted


class SnapshotReplica:
    """Reconstruct one status endpoint's full snapshot from deltas.

    Feed every response document (a ``delta`` reply via
    :func:`repro.live.status.arequest` and :func:`delta_line`, or a
    direct :meth:`LiveMonitor.delta_snapshot` call) to :meth:`apply`;
    :attr:`cursor`/:attr:`instance` are what the next fetch should send,
    and :meth:`document` is the reconstructed full snapshot — deep-equal
    to the server's ``snapshot()`` at the cursor's instant.
    """

    def __init__(self) -> None:
        self.cursor: int | None = None
        self.instance: str | None = None
        self.head: dict = {}
        self.peers: Dict[str, dict] = {}
        self.n_full = 0  # full listings applied (first contact, fallbacks)
        self.n_delta = 0  # incremental documents applied

    @property
    def primed(self) -> bool:
        """Whether at least one document has been applied."""
        return bool(self.head)

    def apply(self, doc: Mapping) -> ApplyResult:
        """Fold one response document in; returns what changed.

        A document without a ``delta`` block came from a server that does
        not speak the protocol (or a plain full-snapshot fetch) — it
        replaces the whole state and clears the cursor, so the next fetch
        asks for a full listing again rather than replaying a cursor the
        server never minted.
        """
        delta = doc.get("delta")
        head = {k: v for k, v in doc.items() if k not in _NON_HEAD_KEYS}
        if delta is None:
            old = self.peers
            self.head = head
            self.peers = dict(doc.get("peers", {}))
            self.cursor = None
            self.instance = None
            self.n_full += 1
            return ApplyResult(
                True, set(self.peers), set(old) - set(self.peers)
            )
        self.cursor = delta["cursor"]
        self.instance = delta["instance"]
        self.head = head
        if delta["full"]:
            old = self.peers
            self.peers = dict(doc.get("peers", {}))
            self.n_full += 1
            return ApplyResult(
                True, set(self.peers), set(old) - set(self.peers)
            )
        self.n_delta += 1
        changed = dict(doc.get("peers", {}))
        removed = set()
        for peer in doc.get("removed", ()):
            if self.peers.pop(peer, None) is not None:
                removed.add(peer)
            # A peer can be both removed and re-discovered within one
            # cursor window; the changed entry below then reinstates it.
        self.peers.update(changed)
        return ApplyResult(False, set(changed), removed - set(changed))

    def document(self) -> dict:
        """The reconstructed full snapshot (head + complete peer map)."""
        doc = dict(self.head)
        doc["peers"] = dict(self.peers)
        return doc


def _wins(entry: dict, held: dict | None) -> bool:
    return held is None or entry.get("n_accepted", 0) >= held.get(
        "n_accepted", 0
    )


class MergedStatusView:
    """Persistent merged view over per-shard :class:`SnapshotReplica`\\ s.

    Call :meth:`cursor` per shard to know what to fetch, then
    :meth:`fold` with the round's results (documents or exceptions).
    :meth:`document` returns the merged snapshot —
    ``merge_snapshots``-equivalent over the reconstructed full documents
    of the shards that responded — and :meth:`delta_document` serves the
    parent's own downstream delta protocol.
    """

    #: Same bound/compaction discipline as ``LiveMonitor._TOMBSTONE_CAP``.
    _TOMBSTONE_CAP = 4096

    def __init__(self, n_shards: int | None = None):
        self.n_shards = n_shards
        self.instance = uuid.uuid4().hex
        self.generation = 0
        self._replicas: Dict[int, SnapshotReplica] = {}
        self._available: Set[int] = set()
        self._errors: Dict[int, str] = {}
        # peer -> winning shard id / merged entry / stamp generation.
        self._winner: Dict[str, int] = {}
        self._peers: Dict[str, dict] = {}
        self._peer_gen: Dict[str, int] = {}
        self._tombstones: Dict[str, int] = {}
        self._tombstone_floor = 0

    # -- fetch-side helpers --------------------------------------------
    def cursor(self, shard_id: int) -> Tuple[int | None, str | None]:
        """``(since, instance)`` the next fetch for this shard should send."""
        replica = self._replicas.get(shard_id)
        if replica is None:
            return None, None
        return replica.cursor, replica.instance

    @property
    def shard_errors(self) -> List[dict]:
        return [
            {"shard": sid, "error": err}
            for sid, err in sorted(self._errors.items())
        ]

    # -- folding --------------------------------------------------------
    def fold(self, results: Mapping[int, object]) -> None:
        """One refresh round: per shard either a response document or an
        exception.  Bumps the merged generation once, re-resolves the
        winning entry for every peer a delta touched, and rebuilds the
        winner map outright when the responding-shard set changed or any
        shard sent a full listing (cross-shard winners can shift then).
        """
        self.generation += 1
        prev_available = set(self._available)
        touched: Set[str] = set()
        rebuild = False
        for shard_id, result in results.items():
            if isinstance(result, BaseException):
                self._errors[shard_id] = str(result)
                self._available.discard(shard_id)
                continue
            if not isinstance(result, Mapping) or "schema" not in result:
                # The status server's error envelope ({"error": ...}) or
                # any other non-snapshot answer: treat as a failed shard.
                err = (
                    result.get("error", "unrecognized response")
                    if isinstance(result, Mapping)
                    else "unrecognized response"
                )
                self._errors[shard_id] = str(err)
                self._available.discard(shard_id)
                continue
            self._errors.pop(shard_id, None)
            replica = self._replicas.setdefault(shard_id, SnapshotReplica())
            outcome = replica.apply(result)
            self._available.add(shard_id)
            if outcome.full:
                rebuild = True
            else:
                touched |= outcome.changed
                touched |= outcome.removed
        if self._available != prev_available:
            rebuild = True
        if rebuild:
            self._rebuild()
        else:
            for peer in touched:
                self._resolve(peer)

    def _resolve(self, peer: str) -> None:
        """Re-pick the winning entry for one peer across the available
        shards (``merge_snapshots`` rule: max accepted, ties to the later
        shard); stamp the generation only when the entry actually moved."""
        best = None
        best_sid = None
        for sid in sorted(self._available):
            entry = self._replicas[sid].peers.get(peer)
            if entry is not None and _wins(entry, best):
                best = entry
                best_sid = sid
        if best is None:
            if self._peers.pop(peer, None) is not None:
                self._winner.pop(peer, None)
                self._peer_gen.pop(peer, None)
                self._tombstone(peer)
            return
        if self._peers.get(peer) != best:
            self._peers[peer] = best
            self._peer_gen[peer] = self.generation
            self._tombstones.pop(peer, None)
        self._winner[peer] = best_sid

    def _rebuild(self) -> None:
        """Full winner-map recomputation (shard set changed / full apply),
        diffed against the previous merged map so downstream delta stamps
        stay minimal."""
        new_peers: Dict[str, dict] = {}
        new_winner: Dict[str, int] = {}
        for sid in sorted(self._available):
            for peer, entry in self._replicas[sid].peers.items():
                if _wins(entry, new_peers.get(peer)):
                    new_peers[peer] = entry
                    new_winner[peer] = sid
        gen = self.generation
        for peer, entry in new_peers.items():
            if self._peers.get(peer) != entry:
                self._peer_gen[peer] = gen
                self._tombstones.pop(peer, None)
        for peer in self._peers:
            if peer not in new_peers:
                self._peer_gen.pop(peer, None)
                self._tombstone(peer)
        self._peers = new_peers
        self._winner = new_winner

    def _tombstone(self, peer: str) -> None:
        self._tombstones[peer] = self.generation
        if len(self._tombstones) > self._TOMBSTONE_CAP:
            ordered = sorted(self._tombstones.items(), key=lambda kv: kv[1])
            cut = len(ordered) // 2
            self._tombstone_floor = ordered[cut - 1][1]
            self._tombstones = dict(ordered[cut:])

    # -- serving --------------------------------------------------------
    def _no_shard_doc(self) -> dict:
        from repro.live.status import SNAPSHOT_SCHEMA_VERSION

        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "mode": "sharded",
            "n_shards": self.n_shards or 0,
            "error": "no shard responded",
            "shard_errors": self.shard_errors,
        }

    def document(self, include_peers: bool = True) -> dict:
        """The merged snapshot: ``merge_snapshots`` over the constant-size
        heads (counters summed, worst-case poll latency, admission blocks
        merged) with the incrementally maintained peer union attached
        (``include_peers=False``: the head alone, the ``summary`` reply)."""
        # Imported here, not at module top: shard.py imports this module,
        # and merge_snapshots lives past that import in shard.py's body.
        from repro.live.shard import merge_snapshots

        if not self._available:
            return self._no_shard_doc()
        heads = [self._replicas[sid].head for sid in sorted(self._available)]
        merged = merge_snapshots(heads)
        if include_peers:
            merged["peers"] = dict(self._peers)
        # The union is authoritative exactly as in merge_snapshots' own
        # peers-present branch (the heads carry no listings, so its
        # summed n_peers must be overridden here).
        merged["monitor"]["n_peers"] = len(self._peers)
        if self.n_shards is not None:
            merged["n_shards"] = self.n_shards
        if self._errors:
            merged["shard_errors"] = self.shard_errors
        return merged

    def delta_document(
        self, since: int | None = None, instance: str | None = None
    ) -> dict:
        """The parent's own delta response (same protocol it consumes)."""
        doc = self.document()
        if "error" in doc:
            return doc
        gen = self.generation
        full = (
            since is None
            or instance != self.instance
            or since > gen
            or since < self._tombstone_floor
        )
        doc["delta"] = {
            "instance": self.instance,
            "since": None if full else since,
            "cursor": gen,
            "full": full,
        }
        if full:
            doc["removed"] = []
            return doc
        doc["peers"] = {
            peer: entry
            for peer, entry in doc["peers"].items()
            if self._peer_gen.get(peer, 0) > since
        }
        doc["removed"] = sorted(
            peer for peer, g in self._tombstones.items() if g > since
        )
        return doc
