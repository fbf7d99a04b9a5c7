"""Shard subsystem: snapshot merging (pure) + SO_REUSEPORT integration.

``merge_snapshots`` is a pure function, tested exhaustively without any
processes.  The integration tests spawn real fork workers behind one
SO_REUSEPORT UDP port and are skipped on platforms without the option
(the single-process fallback is tested everywhere).
"""

import asyncio
import socket
import time

import pytest

from repro.live.delta import SnapshotReplica, delta_line
from repro.live.shard import ShardedMonitor, merge_snapshots, reuseport_supported
from repro.live.status import SNAPSHOT_SCHEMA_VERSION, arequest
from repro.live.wire import Heartbeat

PARAMS = {"2w-fd": 0.3}


async def full_merge_reference(mon: ShardedMonitor) -> dict:
    """The reference the parent's merged view must equal: every worker's
    full snapshot fetched afresh and merged with ``merge_snapshots``."""
    snaps = await asyncio.gather(
        *(
            arequest(mon._status_host, port, "", retries=2)
            for port in mon._status_ports.values()
        )
    )
    merged = merge_snapshots(snaps)
    merged["n_shards"] = mon.n_shards
    return merged


def _snap(
    *,
    n_peers=1,
    peers=None,
    n_events=0,
    n_malformed=0,
    rate=10.0,
    poll=0.001,
    interval=0.1,
    detectors=("2w-fd",),
):
    if peers is None:
        peers = {f"p{i}": {"n_accepted": 5} for i in range(n_peers)}
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "now": 1.0,
        "interval": interval,
        "detectors": list(detectors),
        "n_malformed": n_malformed,
        "n_events": n_events,
        "monitor": {
            "n_peers": len(peers),
            "poll_mode": "heap",
            "estimation": "shared",
            "heap_size": len(peers),
            "heartbeat_rate": rate,
            "n_polls": 7,
            "n_batches": 3,
            "last_poll_duration": poll,
            "n_events_total": n_events,
            "n_events_dropped": 0,
            "n_listener_errors": 0,
        },
        "peers": peers,
    }


class TestMergeSnapshots:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_snapshots([])

    def test_single_snapshot_wraps(self):
        merged = merge_snapshots([_snap(n_peers=2, n_events=4)])
        assert merged["mode"] == "sharded"
        assert merged["n_shards"] == 1
        assert merged["schema"] == SNAPSHOT_SCHEMA_VERSION
        assert merged["n_events"] == 4
        assert merged["monitor"]["n_peers"] == 2
        assert len(merged["shards"]) == 1

    def test_counters_sum_and_peers_union(self):
        a = _snap(
            peers={"alpha": {"n_accepted": 10}, "beta": {"n_accepted": 3}},
            n_events=5,
            n_malformed=1,
            rate=20.0,
            poll=0.002,
        )
        b = _snap(
            peers={"gamma": {"n_accepted": 7}},
            n_events=2,
            n_malformed=4,
            rate=30.0,
            poll=0.009,
        )
        merged = merge_snapshots([a, b])
        assert merged["n_events"] == 7
        assert merged["n_malformed"] == 5
        assert sorted(merged["peers"]) == ["alpha", "beta", "gamma"]
        assert merged["monitor"]["n_peers"] == 3
        assert merged["monitor"]["heartbeat_rate"] == pytest.approx(50.0)
        # Worst-case poll latency, not the sum.
        assert merged["monitor"]["last_poll_duration"] == 0.009
        assert [s["shard"] for s in merged["shards"]] == [0, 1]

    def test_duplicate_peer_resolved_by_acceptance_count(self):
        stale = {"n_accepted": 3, "last_seq": 3}
        fresh = {"n_accepted": 40, "last_seq": 40}
        merged = merge_snapshots(
            [_snap(peers={"p": fresh}), _snap(peers={"p": stale})]
        )
        assert merged["peers"]["p"] == fresh
        assert merged["monitor"]["n_peers"] == 1

    def test_config_mismatch_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            merge_snapshots([_snap(interval=0.1), _snap(interval=0.2)])
        with pytest.raises(ValueError, match="detectors"):
            merge_snapshots(
                [_snap(detectors=("2w-fd",)), _snap(detectors=("chen",))]
            )

    def test_summary_snapshots_merge_without_peers(self):
        """Summary documents (no per-peer listing) still merge."""
        a = _snap(n_peers=2)
        b = _snap(n_peers=3)
        del a["peers"], b["peers"]
        merged = merge_snapshots([a, b])
        assert "peers" not in merged
        # Without listings the summed counts stand.
        assert merged["monitor"]["n_peers"] == 5


class TestMergeSnapshotsHeterogeneous:
    """Inputs that are *almost* replicas: version skew and partial blocks."""

    def test_mixed_schema_versions_rejected(self):
        """A rolling upgrade that leaves workers on different snapshot
        schemas must fail loudly, not merge incompatible documents."""
        old = _snap()
        old["schema"] = SNAPSHOT_SCHEMA_VERSION - 1
        with pytest.raises(ValueError, match="schema"):
            merge_snapshots([_snap(), old])

    def test_shard_missing_admission_block_tolerated(self):
        """fdaas workers carry an ``admission`` block; plain workers do
        not — a mixed group merges the blocks that exist."""
        with_adm = _snap(peers={"a": {"n_accepted": 1}})
        with_adm["admission"] = {
            "n_admitted": 10,
            "n_rejected": 2,
            "reject_reasons": {"auth": 2},
            "tenants": {"t1": {"admitted": 10, "rejected": {"auth": 2}}},
        }
        without = _snap(peers={"b": {"n_accepted": 1}})
        merged = merge_snapshots([with_adm, without])
        assert merged["admission"]["n_admitted"] == 10
        assert merged["admission"]["reject_reasons"] == {"auth": 2}
        assert sorted(merged["peers"]) == ["a", "b"]
        # No admission anywhere -> no block at all.
        assert "admission" not in merge_snapshots([without])

    def test_shard_missing_sla_block_tolerated(self):
        """``sla`` is an fdaas enrichment outside the merge contract: it
        neither merges nor breaks the merge."""
        enriched = _snap()
        enriched["sla"] = {"breaches": 0}
        merged = merge_snapshots([enriched, _snap()])
        assert merged["n_shards"] == 2
        assert "sla" not in merged

    def test_shard_missing_monitor_counters_tolerated(self):
        """Load blocks missing optional keys (older workers) contribute
        what they have; sums treat absent as zero."""
        sparse = _snap()
        del sparse["monitor"]["n_polls"]
        del sparse["monitor"]["heartbeat_rate"]
        merged = merge_snapshots([_snap(rate=10.0), sparse])
        assert merged["monitor"]["heartbeat_rate"] == pytest.approx(10.0)
        assert merged["monitor"]["n_polls"] == 7

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_snapshots([])


class TestSingleProcessFallback:
    def test_n_shards_one_runs_in_process(self):
        async def scenario():
            mon = ShardedMonitor(
                0.1, ["2w-fd"], PARAMS, n_shards=1, status_port=0
            )
            async with mon:
                assert mon.mode == "single"
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                try:
                    sock.sendto(
                        Heartbeat("p", 1, time.time()).encode(), mon.address
                    )
                    await asyncio.sleep(0.2)
                    doc = await mon.snapshot()
                finally:
                    sock.close()
            return doc

        doc = asyncio.run(scenario())
        assert doc["mode"] == "sharded"
        assert doc["n_shards"] == 1
        assert doc["schema"] == SNAPSHOT_SCHEMA_VERSION
        assert "p" in doc["peers"]

    def test_bad_detector_config_raises_in_parent(self):
        with pytest.raises(ValueError):
            ShardedMonitor(0.1, ["2w-fd"], n_shards=4)  # missing tuning param
        with pytest.raises(KeyError):
            ShardedMonitor(0.1, ["no-such-detector"], n_shards=4)

    def test_status_plane_kwargs_validated(self):
        with pytest.raises(ValueError, match="status_timeout"):
            ShardedMonitor(0.1, ["2w-fd"], PARAMS, status_timeout=0.0)
        with pytest.raises(ValueError, match="status_retries"):
            ShardedMonitor(0.1, ["2w-fd"], PARAMS, status_retries=-1)
        mon = ShardedMonitor(
            0.1, ["2w-fd"], PARAMS, status_timeout=0.5, status_retries=0
        )
        assert mon._status_timeout == 0.5
        assert mon._status_retries == 0

    def test_reference_modes_are_not_keywords(self):
        for kwarg in ("status_mode", "poll_mode", "estimation"):
            with pytest.raises(TypeError):
                ShardedMonitor(0.1, ["2w-fd"], PARAMS, **{kwarg: None})


@pytest.mark.skipif(
    not reuseport_supported(), reason="SO_REUSEPORT not available"
)
class TestShardedIntegration:
    def test_workers_split_load_and_merge(self):
        async def scenario():
            mon = ShardedMonitor(
                0.05, ["2w-fd"], PARAMS, n_shards=2, status_port=0
            )
            async with mon:
                assert mon.mode == "sharded"
                # Distinct source ports = distinct kernel hash inputs.
                socks = [
                    socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    for _ in range(6)
                ]
                for sock in socks:
                    sock.connect(mon.address)
                try:
                    for seq in range(1, 25):
                        for i, sock in enumerate(socks):
                            sock.send(
                                Heartbeat(f"w{i}", seq, time.time()).encode()
                            )
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.3)
                    via_endpoint = await arequest(
                        *mon.status.address, "", retries=2
                    )
                    direct = await mon.snapshot()
                finally:
                    for sock in socks:
                        sock.close()
            return via_endpoint, direct

        via_endpoint, direct = asyncio.run(scenario())
        for doc in (via_endpoint, direct):
            assert doc["schema"] == SNAPSHOT_SCHEMA_VERSION
            assert doc["mode"] == "sharded"
            assert doc["n_shards"] == 2
            assert sorted(doc["peers"]) == [f"w{i}" for i in range(6)]
            assert doc["monitor"]["n_peers"] == 6
            assert len(doc["shards"]) == 2
            # Every accepted heartbeat landed on exactly one shard.
            assert (
                sum(s["n_peers"] for s in doc["shards"])
                == doc["monitor"]["n_peers"]
            )

    def test_delta_mode_parent_serves_cursor_resumed_deltas(self):
        """The delta aggregation end to end: the parent folds per-worker
        deltas and serves its own delta protocol, and a downstream
        replica's reconstruction matches the full fetch."""

        async def scenario():
            mon = ShardedMonitor(
                0.05, ["2w-fd"], PARAMS, n_shards=2, status_port=0,
                status_retries=2,
            )
            async with mon:
                socks = [
                    socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    for _ in range(4)
                ]
                for sock in socks:
                    sock.connect(mon.address)
                rep = SnapshotReplica()
                try:
                    for seq in range(1, 15):
                        for i, sock in enumerate(socks):
                            sock.send(
                                Heartbeat(f"w{i}", seq, time.time()).encode()
                            )
                        await asyncio.sleep(0.01)
                    await asyncio.sleep(0.2)
                    first = await arequest(
                        *mon.status.address, delta_line(), retries=2
                    )
                    rep.apply(first)
                    for seq in range(15, 20):
                        for i, sock in enumerate(socks):
                            sock.send(
                                Heartbeat(f"w{i}", seq, time.time()).encode()
                            )
                        await asyncio.sleep(0.01)
                    second = await arequest(
                        *mon.status.address,
                        delta_line(rep.cursor, rep.instance),
                        retries=2,
                    )
                    rep.apply(second)
                    full = await arequest(*mon.status.address, "", retries=2)
                finally:
                    for sock in socks:
                        sock.close()
            return first, second, rep, full

        first, second, rep, full = asyncio.run(scenario())
        assert first["delta"]["full"] is True
        assert second["delta"]["full"] is False
        assert rep.n_delta == 1
        assert full["mode"] == "sharded" and full["n_shards"] == 2
        assert sorted(full["peers"]) == [f"w{i}" for i in range(4)]
        assert set(rep.document()["peers"]) == set(full["peers"])

    def test_parent_document_equals_full_merge_reference(self):
        """The parent's merged view equals a fresh full refetch-and-merge
        of every worker, and its ``summary`` is that document's head."""

        async def scenario():
            mon = ShardedMonitor(
                0.05, ["2w-fd"], PARAMS, n_shards=2, status_port=0,
                status_retries=2,
            )
            async with mon:
                socks = [
                    socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    for _ in range(4)
                ]
                for sock in socks:
                    sock.connect(mon.address)
                try:
                    for seq in range(1, 8):
                        for i, sock in enumerate(socks):
                            sock.send(
                                Heartbeat(f"w{i}", seq, time.time()).encode()
                            )
                        await asyncio.sleep(0.01)
                finally:
                    for sock in socks:
                        sock.close()
                # Let every peer's freshness point pass, so that no entry
                # changes between the two reads.
                await asyncio.sleep(1.0)
                doc = await arequest(*mon.status.address, "", retries=2)
                summary = await arequest(
                    *mon.status.address, "summary", retries=2
                )
                reference = await full_merge_reference(mon)
            return doc, summary, reference

        doc, summary, reference = asyncio.run(scenario())
        assert sorted(doc["peers"]) == [f"w{i}" for i in range(4)]
        assert doc["peers"] == reference["peers"]
        for key in ("schema", "mode", "n_shards", "interval", "detectors",
                    "n_malformed", "n_events"):
            assert doc[key] == reference[key], key
        assert doc["monitor"]["n_peers"] == reference["monitor"]["n_peers"]
        assert "peers" not in summary
        assert summary["monitor"]["n_peers"] == 4
        assert set(summary) == set(doc) - {"peers"}

    def test_parent_refuses_commands_it_does_not_serve(self):
        async def scenario():
            mon = ShardedMonitor(
                0.05, ["2w-fd"], PARAMS, n_shards=2, status_port=0
            )
            async with mon:
                return [
                    await arequest(*mon.status.address, line, retries=2)
                    for line in ("trace", "metrics", "bogus", "delta x")
                ]

        for doc in asyncio.run(scenario()):
            assert set(doc) == {"error", "commands"}
            assert doc["commands"] == ["delta", "summary"]

    def test_stop_terminates_workers(self):
        async def scenario():
            mon = ShardedMonitor(
                0.05, ["2w-fd"], PARAMS, n_shards=2, status_port=0
            )
            await mon.start()
            workers = list(mon._workers)
            assert all(p.is_alive() for p in workers)
            await mon.stop()
            return workers

        workers = asyncio.run(scenario())
        assert all(not p.is_alive() for p in workers)
