"""Delta status plane: incremental snapshots, cursor merge, protocol.

The acceptance bar everywhere is *deep equality*: a delta-reconstructed
document (``SnapshotReplica``/``MergedStatusView`` fed by
``delta_snapshot`` responses) must equal the full snapshot taken at the
same instant — the delta plane is an optimization, not a new semantics.
"""

import asyncio
import random

import pytest

from repro.live.delta import (
    MergedStatusView,
    SnapshotReplica,
    delta_argument,
    delta_line,
)
from repro.live.monitor import LiveMonitor, LiveMonitorServer
from repro.live.shard import merge_snapshots
from repro.live.status import StatusServer, arequest
from repro.live.wire import Heartbeat

PARAMS = {"2w-fd": 0.05}


def _mon(**kwargs):
    return LiveMonitor(0.1, ["2w-fd"], PARAMS, **kwargs)


def _dg(peer, seq, ts):
    return Heartbeat(sender=peer, seq=seq, timestamp=ts).encode()


def _beat(mon, peer, seq, t):
    mon.ingest(_dg(peer, seq, t - 0.01), t)


class TestDeltaSnapshot:
    def test_first_contact_is_full(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        doc = mon.delta_snapshot(now=0.1)
        assert doc["delta"]["full"] is True
        assert doc["delta"]["since"] is None
        assert doc["delta"]["cursor"] >= 1
        assert set(doc["peers"]) == {"a"}
        assert doc["removed"] == []

    def test_quiet_interval_yields_empty_delta(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        cursor = mon.delta_snapshot(now=0.1)["delta"]["cursor"]
        instance = mon._status_instance
        doc = mon.delta_snapshot(cursor, instance, now=0.1)
        assert doc["delta"]["full"] is False
        assert doc["peers"] == {}
        assert doc["removed"] == []
        # The cursor still advances (polls mint generations) — resumable.
        assert doc["delta"]["cursor"] >= cursor

    def test_incremental_carries_only_changed_peers(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        _beat(mon, "b", 1, 0.1)
        first = mon.delta_snapshot(now=0.1)
        _beat(mon, "b", 2, 0.2)
        doc = mon.delta_snapshot(
            first["delta"]["cursor"], first["delta"]["instance"], now=0.2
        )
        assert set(doc["peers"]) == {"b"}
        assert doc["peers"]["b"]["n_accepted"] == 2

    def test_expiry_is_an_entry_visible_change(self):
        """A deadline crossing flips the predictive ``trusting`` field, so
        the expired peer must travel in the next delta even though no
        datagram touched it."""
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        first = mon.delta_snapshot(now=0.1)
        assert first["peers"]["a"]["detectors"]["2w-fd"]["trusting"] is True
        doc = mon.delta_snapshot(
            first["delta"]["cursor"], first["delta"]["instance"], now=5.0
        )
        assert set(doc["peers"]) == {"a"}
        assert doc["peers"]["a"]["detectors"]["2w-fd"]["trusting"] is False

    def test_removal_travels_as_tombstone(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        _beat(mon, "b", 1, 0.1)
        first = mon.delta_snapshot(now=0.1)
        assert mon.remove_peer("a") is True
        assert mon.remove_peer("a") is False  # already gone
        doc = mon.delta_snapshot(
            first["delta"]["cursor"], first["delta"]["instance"], now=0.2
        )
        assert doc["removed"] == ["a"]
        assert "a" not in doc["peers"]
        full = mon.snapshot(now=0.2)
        assert set(full["peers"]) == {"b"}

    def test_rejoin_after_removal_supersedes_tombstone(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        first = mon.delta_snapshot(now=0.1)
        mon.remove_peer("a")
        _beat(mon, "a", 1, 0.2)  # fresh detectors, like first contact
        doc = mon.delta_snapshot(
            first["delta"]["cursor"], first["delta"]["instance"], now=0.2
        )
        assert "a" in doc["peers"]
        assert doc["removed"] == []
        assert doc["peers"]["a"]["n_accepted"] == 1

    def test_stale_cursor_falls_back_to_full(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        instance = mon._status_instance
        doc = mon.delta_snapshot(10**9, instance, now=0.1)
        assert doc["delta"]["full"] is True

    def test_foreign_instance_falls_back_to_full(self):
        """A restarted monitor mints a new instance id: cursors minted by
        its predecessor must not be trusted."""
        mon = _mon()
        _beat(mon, "a", 1, 0.1)
        doc = mon.delta_snapshot(1, "not-this-monitor", now=0.1)
        assert doc["delta"]["full"] is True

    def test_compacted_tombstones_force_full(self):
        mon = _mon()
        mon._TOMBSTONE_CAP = 8
        for i in range(12):
            _beat(mon, f"p{i}", 1, 0.1)
        first = mon.delta_snapshot(now=0.1)
        for i in range(12):
            mon.remove_peer(f"p{i}")
        assert mon._tombstone_floor > 0
        assert len(mon._tombstones) <= 8
        doc = mon.delta_snapshot(
            first["delta"]["cursor"], first["delta"]["instance"], now=0.2
        )
        # The cursor predates the compaction floor: a silent gap in the
        # tombstone record degrades to a full listing, never a miss.
        assert doc["delta"]["full"] is True
        assert doc["peers"] == {}

    def test_removed_peer_datagram_rediscovers_cleanly(self):
        """After remove_peer, a columnar engine must not feed the dead
        row: the next datagram re-registers the name from scratch."""
        mon = _mon(ingest_mode="vectorized")
        for seq in (1, 2, 3):
            _beat(mon, "a", seq, 0.1 * seq)
        mon.remove_peer("a")
        _beat(mon, "a", 7, 0.5)
        entry = mon.snapshot(now=0.5)["peers"]["a"]
        assert entry["n_accepted"] == 1
        assert entry["last_seq"] == 7


class TestSnapshotReplica:
    def test_plain_full_snapshot_resets_cursor(self):
        """A server that doesn't speak delta answers with a plain full
        snapshot; the replica must treat it as a refresh and keep asking
        for full listings (no cursor the server never minted)."""
        rep = SnapshotReplica()
        rep.apply({"schema": 2, "peers": {"a": {"n_accepted": 1}}})
        assert rep.cursor is None and rep.instance is None
        assert rep.document()["peers"] == {"a": {"n_accepted": 1}}
        # A second plain snapshot replaces wholesale (b gone, c new).
        rep.apply({"schema": 2, "peers": {"c": {"n_accepted": 2}}})
        assert set(rep.document()["peers"]) == {"c"}
        assert rep.n_full == 2 and rep.n_delta == 0

    def test_full_delta_replaces_state(self):
        rep = SnapshotReplica()
        rep.apply(
            {
                "schema": 2,
                "peers": {"a": {}},
                "removed": [],
                "delta": {"instance": "i", "since": None, "cursor": 5, "full": True},
            }
        )
        assert (rep.cursor, rep.instance) == (5, "i")
        out = rep.apply(
            {
                "schema": 2,
                "peers": {"b": {}},
                "removed": ["a"],
                "delta": {"instance": "i", "since": 5, "cursor": 9, "full": False},
            }
        )
        assert out.changed == {"b"} and out.removed == {"a"}
        assert set(rep.document()["peers"]) == {"b"}
        assert rep.cursor == 9

    def test_remove_then_rejoin_in_one_window(self):
        rep = SnapshotReplica()
        rep.apply(
            {
                "schema": 2,
                "peers": {"a": {"n_accepted": 3}},
                "removed": [],
                "delta": {"instance": "i", "since": None, "cursor": 1, "full": True},
            }
        )
        out = rep.apply(
            {
                "schema": 2,
                "peers": {"a": {"n_accepted": 1}},  # re-discovered
                "removed": ["a"],
                "delta": {"instance": "i", "since": 1, "cursor": 4, "full": False},
            }
        )
        assert rep.document()["peers"]["a"]["n_accepted"] == 1
        assert out.removed == set()  # net effect is an update, not a loss


@pytest.mark.parametrize(
    "ingest_mode", ["scalar", "batched", "vectorized", "adaptive"]
)
def test_delta_reconstruction_equals_full_under_churn(ingest_mode):
    """Property: across randomized churn — joins, heartbeats, stale
    datagrams, removals, re-joins, expiry-driven transitions — the
    replica's reconstruction deep-equals the full snapshot at every
    cursor, on every ingest engine."""
    mon = _mon(ingest_mode=ingest_mode)
    rep = SnapshotReplica()
    rng = random.Random(2015)
    peers = [f"p{i}" for i in range(24)]
    seqs = {p: 0 for p in peers}
    t = 0.0
    for rnd in range(60):
        t += rng.choice((0.02, 0.1, 0.4))  # occasionally long enough to expire
        chosen = rng.sample(peers, rng.randrange(0, 12))
        batch = []
        for p in chosen:
            if rng.random() < 0.1 and seqs[p] > 1:
                seq = seqs[p] - 1  # stale duplicate
            else:
                seqs[p] += 1
                seq = seqs[p]
            batch.append(_dg(p, seq, t - 0.01))
        if batch:
            mon.ingest_many(batch, [t] * len(batch))
        if rnd % 9 == 4 and mon._peers:
            mon.remove_peer(rng.choice(sorted(mon._peers)))
        doc = mon.delta_snapshot(rep.cursor, rep.instance, now=t)
        rep.apply(doc)
        assert rep.document() == mon.snapshot(now=t), f"round {rnd} diverged"
    assert rep.n_delta > 0  # the property exercised the incremental path


class TestMergedStatusView:
    def _fleet(self, n=2):
        return [_mon() for _ in range(n)]

    def _fold_round(self, view, monitors, now):
        view.fold(
            {
                sid: mon.delta_snapshot(*view.cursor(sid), now=now)
                for sid, mon in enumerate(monitors)
            }
        )

    def _reference(self, monitors, now, n_shards=None):
        ref = merge_snapshots([mon.snapshot(now=now) for mon in monitors])
        if n_shards is not None:
            ref["n_shards"] = n_shards
        return ref

    def test_fold_matches_merge_snapshots(self):
        monitors = self._fleet()
        _beat(monitors[0], "a", 1, 0.1)
        _beat(monitors[1], "b", 1, 0.1)
        view = MergedStatusView(n_shards=2)
        self._fold_round(view, monitors, 0.1)
        assert view.document() == self._reference(monitors, 0.1, 2)

    def test_incremental_folds_stay_equal(self):
        monitors = self._fleet()
        rng = random.Random(7)
        view = MergedStatusView(n_shards=2)
        seqs = {}
        t = 0.0
        for rnd in range(25):
            t += 0.1
            for i in range(rng.randrange(0, 4)):
                sid = rng.randrange(2)
                p = f"s{sid}-p{rng.randrange(6)}"
                seqs[p] = seqs.get(p, 0) + 1
                _beat(monitors[sid], p, seqs[p], t)
            if rnd % 8 == 5:
                for sid in range(2):
                    live = sorted(monitors[sid]._peers)
                    if live:
                        monitors[sid].remove_peer(rng.choice(live))
            self._fold_round(view, monitors, t)
            assert view.document() == self._reference(monitors, t, 2), rnd

    def test_worker_restart_full_refetches_one_shard_only(self):
        monitors = self._fleet()
        _beat(monitors[0], "a", 1, 0.1)
        _beat(monitors[1], "b", 1, 0.1)
        view = MergedStatusView(n_shards=2)
        self._fold_round(view, monitors, 0.1)
        self._fold_round(view, monitors, 0.2)
        # Shard 1 restarts: new monitor, new instance id, peers re-learned.
        monitors[1] = _mon()
        _beat(monitors[1], "b", 1, 0.1)
        _beat(monitors[1], "c", 1, 0.1)
        docs = {
            sid: mon.delta_snapshot(*view.cursor(sid), now=0.3)
            for sid, mon in enumerate(monitors)
        }
        # The stale cursor was minted by the dead worker: only that shard
        # answers full; the surviving shard stays incremental.
        assert docs[0]["delta"]["full"] is False
        assert docs[1]["delta"]["full"] is True
        view.fold(docs)
        assert view.document() == self._reference(monitors, 0.3, 2)

    def test_shard_error_drops_and_recovers(self):
        monitors = self._fleet()
        _beat(monitors[0], "a", 1, 0.1)
        _beat(monitors[1], "b", 1, 0.1)
        view = MergedStatusView(n_shards=2)
        self._fold_round(view, monitors, 0.1)
        view.fold(
            {
                0: monitors[0].delta_snapshot(*view.cursor(0), now=0.2),
                1: ConnectionRefusedError("worker down"),
            }
        )
        doc = view.document()
        assert set(doc["peers"]) == {"a"}
        assert doc["shard_errors"] == [{"shard": 1, "error": "worker down"}]
        # Worker back: its replica resumes (the old cursor is still the
        # worker's own — same instance — so the resume is incremental).
        self._fold_round(view, monitors, 0.3)
        assert view.document() == self._reference(monitors, 0.3, 2)

    def test_error_envelope_counts_as_shard_error(self):
        view = MergedStatusView(n_shards=1)
        view.fold({0: {"error": "snapshot bug"}})
        doc = view.document()
        assert doc["error"] == "no shard responded"
        assert doc["shard_errors"] == [{"shard": 0, "error": "snapshot bug"}]

    def test_no_shards_yields_error_document(self):
        view = MergedStatusView(n_shards=3)
        doc = view.document()
        assert doc["error"] == "no shard responded"
        assert doc["n_shards"] == 3

    def test_cross_shard_winner_follows_merge_rule(self):
        """A peer seen on two shards (worker churn): most accepted wins,
        ties to the later shard — exactly merge_snapshots' rule."""
        monitors = self._fleet()
        for seq in (1, 2, 3):
            _beat(monitors[0], "dup", seq, 0.1 * seq)
        _beat(monitors[1], "dup", 1, 0.1)
        view = MergedStatusView(n_shards=2)
        self._fold_round(view, monitors, 0.3)
        assert view.document() == self._reference(monitors, 0.3, 2)
        assert view.document()["peers"]["dup"]["n_accepted"] == 3
        # Advance the losing copy past the winner: the winner must flip.
        for seq in (2, 3, 4, 5):
            _beat(monitors[1], "dup", seq, 0.3 + 0.1 * seq)
        self._fold_round(view, monitors, 0.9)
        assert view.document() == self._reference(monitors, 0.9, 2)
        assert view.document()["peers"]["dup"]["n_accepted"] == 5

    def test_view_serves_its_own_deltas_downstream(self):
        """The parent is itself a delta server: a downstream replica
        reconstructs the merged document from the view's own deltas."""
        monitors = self._fleet()
        _beat(monitors[0], "a", 1, 0.1)
        _beat(monitors[1], "b", 1, 0.1)
        view = MergedStatusView(n_shards=2)
        rep = SnapshotReplica()
        t = 0.1
        seq = {"a": 1, "b": 1}
        for rnd in range(10):
            self._fold_round(view, monitors, t)
            rep.apply(view.delta_document(rep.cursor, rep.instance))
            assert rep.document() == view.document(), rnd
            t += 0.1
            peer = "a" if rnd % 2 else "b"
            seq[peer] += 1
            _beat(monitors[0 if peer == "a" else 1], peer, seq[peer], t)
        assert rep.n_delta > 0


class TestDeltaProtocol:
    def test_request_line_round_trips(self):
        for since, instance in ((None, None), (0, None), (42, "abc123")):
            word, _, text = delta_line(since, instance).partition(" ")
            assert word == "delta"
            assert delta_argument(text) == (since, instance)

    def test_unparsable_cursor_rejected(self):
        for text in ("abc", "1.5", "1 inst extra"):
            with pytest.raises(ValueError):
                delta_argument(text)

    def test_server_serves_delta_request_line(self):
        mon = _mon()
        _beat(mon, "a", 1, 0.1)

        async def scenario():
            server = StatusServer(
                {
                    "": lambda: mon.snapshot(),
                    "delta": (mon.delta_snapshot, delta_argument),
                }
            )
            host, port = await server.start()
            try:
                first = await arequest(host, port, delta_line())
                _beat(mon, "b", 1, 0.2)
                second = await arequest(
                    host,
                    port,
                    delta_line(
                        first["delta"]["cursor"], first["delta"]["instance"]
                    ),
                )
                bad = await arequest(host, port, "delta x")
                collision = await arequest(host, port, "deltax")
            finally:
                await server.stop()
            return first, second, bad, collision

        first, second, bad, collision = asyncio.run(scenario())
        assert first["delta"]["full"] is True
        assert second["delta"]["full"] is False
        assert set(second["peers"]) == {"b"}
        assert "bad argument to 'delta'" in bad["error"]
        assert "unknown request 'deltax'" in collision["error"]

    def test_server_without_delta_support_returns_error(self):
        """A server whose table lacks ``delta`` refuses the request with
        an envelope naming what it does serve; a client falls back to the
        empty line, whose plain full snapshot the replica handles."""
        mon = _mon()
        _beat(mon, "a", 1, 0.1)

        async def scenario():
            server = StatusServer({"": lambda: mon.snapshot()})
            host, port = await server.start()
            try:
                refused = await arequest(host, port, delta_line(42, "whatever"))
                full = await arequest(host, port, "")
                return refused, full
            finally:
                await server.stop()

        refused, full = asyncio.run(scenario())
        assert "unknown request 'delta'" in refused["error"]
        assert refused["commands"] == []
        rep = SnapshotReplica()
        rep.apply(full)
        assert set(rep.document()["peers"]) == {"a"}
        assert rep.cursor is None  # keeps asking for full listings

    def test_delta_producer_error_served_not_raised(self):
        def boom(since=None, instance=None):
            raise RuntimeError("delta bug")

        async def scenario():
            server = StatusServer(
                {"": lambda: {"ok": True}, "delta": (boom, delta_argument)}
            )
            host, port = await server.start()
            try:
                return await arequest(host, port, delta_line())
            finally:
                await server.stop()

        assert "delta bug" in asyncio.run(scenario())["error"]

    def test_live_monitor_server_serves_deltas(self):
        """End to end on the real wiring: LiveMonitorServer's status
        endpoint speaks delta and stays equal to its full snapshots."""

        async def scenario():
            mon = _mon()
            server = LiveMonitorServer(mon, tick=0.02, status_port=0)
            await server.start()
            rep = SnapshotReplica()
            try:
                host, port = server.status.address
                for rnd in range(3):
                    t = mon.now()
                    _beat(mon, f"p{rnd}", 1, t)
                    rep.apply(
                        await arequest(
                            host, port, delta_line(rep.cursor, rep.instance)
                        )
                    )
                    # The full fetch races live time (trusting is
                    # predictive); compare the peer sets + counters.
                    full = await arequest(host, port, "")
                    assert set(rep.document()["peers"]) == set(full["peers"])
            finally:
                await server.stop()
            return rep

        rep = asyncio.run(scenario())
        assert rep.n_delta >= 2


class TestFamilyRenderIsolation:
    def test_removed_engine_rows_stay_out_of_exports(self):
        """Columnar adopt/export must skip tombstoned slots."""
        mon = _mon(ingest_mode="vectorized")
        for seq in (1, 2):
            _beat(mon, "keep", seq, 0.1 * seq)
            _beat(mon, "drop", seq, 0.1 * seq)
        mon.remove_peer("drop")
        for seq in (3, 4):
            _beat(mon, "keep", seq, 0.1 * seq)
        snap = mon.snapshot(now=0.5)
        assert set(snap["peers"]) == {"keep"}
        assert snap["peers"]["keep"]["n_accepted"] == 4
