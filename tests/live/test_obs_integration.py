"""Observability wired through the live monitor and status endpoint.

Covers the PR's acceptance surface: the exposition parses as Prometheus
text with the required families, counters are monotone across scrapes,
the summary counters and the metrics endpoint agree (one source), the
poll tick's duration is recorded even when a listener raises, and the
``metrics`` / ``trace`` status commands round-trip over loopback.
"""

import asyncio

import pytest

from repro.live.monitor import LiveMonitor
from repro.live.status import StatusServer, arequest, cursor_argument
from repro.live.wire import Heartbeat
from repro.obs import Observability, parse_exposition

PARAMS = {"2w-fd": 0.1}


def _hb(seq, sender="p", ts=0.0):
    return Heartbeat(sender=sender, seq=seq, timestamp=ts).encode()


def _monitor(**obs_kwargs):
    """An instrumented monitor on a controllable clock.

    The tests feed synthetic arrival instants, so the scrape-time
    ``now()`` must live on the same timebase — otherwise the rolling QoS
    window sits before every recorded transition and comes back empty.
    """
    clock = [0.0]
    mon = LiveMonitor(
        0.1, ["2w-fd"], PARAMS,
        clock=lambda: clock[0],
        obs=Observability(**obs_kwargs),
    )
    mon.now()  # pin the epoch at t=0
    return mon, clock


def _drive(mon, clock=None):
    """Ten heartbeats, then silence long enough to force a suspicion."""
    for k in range(1, 11):
        mon.ingest(_hb(k), 0.1 * k)
    if clock is not None:
        clock[0] = 5.0
    mon.poll(5.0)


class TestExposition:
    def test_required_families_present(self):
        mon, clock = _monitor()
        _drive(mon, clock)
        mon.ingest_many([_hb(11), _hb(12)], [5.1, 5.2])
        fams = parse_exposition(mon.render_metrics())

        assert fams["repro_heartbeats_received_total"]["type"] == "counter"
        assert fams["repro_ingest_batch_size"]["type"] == "histogram"
        transitions = fams["repro_detector_transitions_total"]
        assert transitions["type"] == "counter"
        labels = (("detector", "2w-fd"), ("peer", "p"))
        key = ("repro_detector_transitions_total", labels)
        alt = ("repro_detector_transitions_total", tuple(reversed(labels)))
        assert transitions["samples"].get(key, transitions["samples"].get(alt, 0)) >= 2

        for name in ("repro_qos_t_m", "repro_qos_p_a", "repro_qos_t_mr", "repro_qos_t_d"):
            fam = fams[name]
            assert fam["type"] == "gauge"
            assert fam["samples"], f"{name} has no (peer, detector) series"

    def test_counters_monotonic_across_scrapes(self):
        mon, clock = _monitor()
        _drive(mon, clock)
        first = parse_exposition(mon.render_metrics())
        mon.ingest(_hb(11), 5.1)
        mon.ingest(_hb(11), 5.2)  # duplicate: stale, still received
        second = parse_exposition(mon.render_metrics())
        for name, family in first.items():
            if family["type"] != "counter":
                continue
            for key, value in family["samples"].items():
                assert second[name]["samples"][key] >= value, (name, key)

    def test_batch_size_histogram_observes_per_batch(self):
        mon, clock = _monitor()
        mon.ingest_many([_hb(1), _hb(2), _hb(3)], [0.1, 0.2, 0.3])
        mon.ingest_many([_hb(4)], [0.4])
        fams = parse_exposition(mon.render_metrics())
        samples = fams["repro_ingest_batch_size"]["samples"]
        assert samples[("repro_ingest_batch_size_count", ())] == 2.0
        assert samples[("repro_ingest_batch_size_sum", ())] == 4.0

    def test_summary_counters_match_the_exposition(self):
        """Satellite 6: one source — the summary cannot drift from /metrics."""
        mon, clock = _monitor()
        _drive(mon, clock)
        mon.ingest(b"garbage", 5.05)
        mon.ingest(_hb(3), 5.06)  # stale
        counters = mon.monitor_load()["counters"]
        fams = parse_exposition(mon.render_metrics())

        def scraped(name):
            return fams[name]["samples"][(name, ())]

        assert counters["received"] == scraped("repro_heartbeats_received_total")
        assert counters["accepted"] == scraped("repro_heartbeats_accepted_total")
        assert counters["stale"] == scraped("repro_heartbeats_stale_total")
        assert counters["malformed"] == scraped("repro_datagrams_malformed_total")
        assert counters["transitions"] == sum(
            fams["repro_detector_transitions_total"]["samples"].values()
        )

    def test_disabled_mode_has_no_metrics_surface(self):
        mon = LiveMonitor(0.1, ["2w-fd"], PARAMS)
        _drive(mon)
        with pytest.raises(RuntimeError, match="observability is off"):
            mon.render_metrics()
        assert mon.trace_document() == {
            "cursor": 0, "dropped": 0, "events": [], "tracing": False,
        }


class TestPollAccounting:
    def test_poll_duration_recorded_when_listener_raises(self):
        """Satellite 2: the tick's duration lands even on a raising listener."""
        mon, clock = _monitor()
        for k in range(1, 11):
            mon.ingest(_hb(k), 0.1 * k)
        mon.subscribe(lambda event: (_ for _ in ()).throw(KeyboardInterrupt()))
        mon.last_poll_duration = None
        polls_before = mon.n_polls
        with pytest.raises(KeyboardInterrupt):
            mon.poll(5.0)  # silence expired: the drain notifies the listener
        assert mon.last_poll_duration is not None
        assert mon.n_polls == polls_before + 1


class TestTracing:
    def test_lifecycle_spans_recorded(self):
        mon, clock = _monitor()
        _drive(mon, clock)
        mon.ingest(_hb(11), 5.1)  # trust renewal after the suspicion
        doc = mon.trace_document()
        kinds = {e["kind"] for e in doc["events"]}
        assert {"recv", "fresh", "suspect", "trust"} <= kinds
        recv = next(e for e in doc["events"] if e["kind"] == "recv")
        assert recv["span"] == f"p:{recv['hb_seq']}"

    def test_sampling_skips_stages_but_never_transitions(self):
        mon, clock = _monitor(trace_sample_every=4)
        _drive(mon, clock)
        doc = mon.trace_document()
        recv_seqs = {e["hb_seq"] for e in doc["events"] if e["kind"] == "recv"}
        assert recv_seqs == {4, 8}
        assert any(e["kind"] == "suspect" for e in doc["events"])

    def test_cursor_polling_is_incremental(self):
        mon, clock = _monitor()
        mon.ingest(_hb(1), 0.1)
        doc = mon.trace_document()
        cursor = doc["cursor"]
        assert doc["events"]
        mon.ingest(_hb(2), 0.2)
        follow_up = mon.trace_document(cursor)
        assert all(e["id"] > cursor for e in follow_up["events"])
        assert follow_up["events"]


class TestStatusEndpoint:
    def test_metrics_and_trace_commands_round_trip(self):
        mon, clock = _monitor()
        _drive(mon, clock)

        async def scenario():
            server = StatusServer(
                {
                    "": lambda: mon.snapshot(5.0),
                    "metrics": mon.render_metrics,
                    "trace": (mon.trace_document, cursor_argument),
                }
            )
            host, port = await server.start()
            try:
                text = await arequest(host, port, "metrics")
                doc = await arequest(host, port, "trace")
                return text, doc
            finally:
                await server.stop()

        text, doc = asyncio.run(scenario())
        fams = parse_exposition(text)
        assert "repro_heartbeats_received_total" in fams
        assert doc["cursor"] > 0
        assert any(e["kind"] == "suspect" for e in doc["events"])

    def test_metrics_against_plain_endpoint_is_loud(self):
        mon = LiveMonitor(0.1, ["2w-fd"], PARAMS)

        async def scenario():
            server = StatusServer({"": lambda: mon.snapshot(1.0)})
            host, port = await server.start()
            try:
                return await arequest(host, port, "metrics")
            finally:
                await server.stop()

        doc = asyncio.run(scenario())
        assert "unknown request 'metrics'" in doc["error"]
