"""Metrics and correctness checks from one run's raw records.

All instants are CLOCK_MONOTONIC seconds, which the generator and the
monitor process share.  A schedule time ``x`` maps to ``t0 + x``; a
monitor event time ``x`` (the monitor clock, zero at its first ``now()``)
maps to ``epoch + x``.  Latencies run from the instant a beat was *due*,
never from when it was sent, so a late generator shows up in them.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Generator lateness (p99, seconds) above which a run is flagged as one
#: where the generator, not the monitor, fell behind: half the monitor's
#: 20 ms poll tick, above the p99 of every validation run of `wide` and
#: `narrow` on the 2-CPU host the benchmark was set up on (1.2-8.9 ms).
GEN_LATE_FLAG = 0.010
#: Samples needed so that at least ten lie beyond the p95.
P95_SAMPLES = 200
#: End-to-end metrics every run prints but the result leaves out, so that
#: no bound covers them: wall-clock times of a millisecond or so, and
#: tails, swing too far between runs on a host whose vCPUs are preempted
#: in bursts.
UNBOUNDED = (
    "suspect_lag_ms.p95",
    "trust_ms.p50",
    "trust_ms.p95",
    "status_ms.p50",
    "status_ms.p95",
    "metrics_ms.p50",
)

LAYERS = {
    "ingest_many": "ingest",
    "ingest_arena": "ingest",
    "ingest": "ingest",
    "poll": "poll",
    "delta_snapshot": "delta",
    "render_metrics": "render",
    "admit": "admission",
    "filter_arena": "admission",
    "evaluate": "sla",
    "publish": "broker",
}


def pct(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ms(x: float) -> float:
    return x * 1e3


class Silences:
    """Matches each silence to its suspect and trust events."""

    def __init__(self, schedule, records):
        self.schedule = schedule
        w = schedule.workload
        t0 = records["t0"]
        epoch = records["ready"]["epoch"]
        by_peer = defaultdict(list)
        for s in schedule.silences:
            by_peer[s.peer].append(s)
        self.suspect = {}
        self.trust = {}
        self.false_suspects = []
        self.duplicates = []
        warm = t0 + w.warmup
        previous = {}  # peer -> silence matched by its last suspect, or None
        for received, ev in records["events"]:
            if ev.get("type") != "transition":
                continue
            if received < warm or received > records["t_stop"]:
                continue
            peer = int(ev["peer"][1:])
            at = epoch + ev["time"]
            if ev["kind"] == "suspect":
                match = None
                for s in by_peer.get(peer, ()):
                    if t0 + s.last_due < at < t0 + s.resume_due:
                        match = s
                        break
                if match is None:
                    self.false_suspects.append((peer, at))
                elif id(match) in self.suspect:
                    self.duplicates.append(("suspect", peer, at))
                else:
                    self.suspect[id(match)] = (received, at)
                previous[peer] = match
            else:
                if peer not in previous:
                    self.duplicates.append(("trust", peer, at))
                    continue
                match = previous.pop(peer)
                if match is not None:
                    self.trust[id(match)] = (received, at)
        self.t0 = t0

    def samples(self):
        """Per matched silence: detect, suspect lag, trust, receive queue."""
        detect, lag, trust, queue = [], [], [], []
        t0 = self.t0
        for s in self.schedule.silences:
            sus = self.suspect.get(id(s))
            if sus is not None:
                detect.append(sus[0] - (t0 + s.last_due))
                lag.append(sus[0] - sus[1])
            tr = self.trust.get(id(s))
            if tr is not None:
                trust.append(tr[0] - (t0 + s.resume_due))
                queue.append(tr[1] - (t0 + s.resume_due))
        return detect, lag, trust, queue

    @property
    def missed(self) -> int:
        n = 0
        for s in self.schedule.silences:
            n += id(s) not in self.suspect
            n += id(s) not in self.trust
        return n


def end_to_end(schedule, records) -> tuple:
    """``(metrics, sample counts, checks, attempted, failed, extra)``."""
    w = schedule.workload
    sil = Silences(schedule, records)
    detect, lag, trust, queue = sil.samples()
    begin, end = records["begin"], records["end"]
    cpu = end["cpu"] - begin["cpu"]
    accepted = end["accepted"] - begin["accepted"]
    op = records["operator"]
    delta_rtt = [r[1] for r in op["delta"]]
    metrics_rtt = [r[1] for r in op["metrics"]]
    metrics = {
        "setup_s": (pct(records["setup_s"], 50), "s"),
        "detect_ms.p50": (ms(pct(detect, 50)), "ms"),
        "suspect_lag_ms.p50": (ms(pct(lag, 50)), "ms"),
        "suspect_lag_ms.p95": (ms(pct(lag, 95)), "ms"),
        "trust_ms.p50": (ms(pct(trust, 50)), "ms"),
        "trust_ms.p95": (ms(pct(trust, 95)), "ms"),
        "server_cpu_us_per_beat": (cpu / max(accepted, 1) * 1e6, "us"),
        "status_ms.p50": (ms(pct(delta_rtt, 50)), "ms"),
        "status_ms.p95": (ms(pct(delta_rtt, 95)), "ms"),
        "metrics_ms.p50": (ms(pct(metrics_rtt, 50)), "ms"),
    }
    counts = {
        "setup_s": len(records["setup_s"]),
        "detect_ms.p50": len(detect),
        "suspect_lag_ms.p50": len(lag),
        "suspect_lag_ms.p95": len(lag),
        "trust_ms.p50": len(trust),
        "trust_ms.p95": len(trust),
        "server_cpu_us_per_beat": accepted,
        "status_ms.p50": len(delta_rtt),
        "status_ms.p95": len(delta_rtt),
        "metrics_ms.p50": len(metrics_rtt),
    }

    checks = []  # (name, ok, detail)
    snap = records["snapshot"]
    sent = records["sent"]
    sent_by_peer = [0] * w.n_peers
    for p in schedule.peer[:sent]:
        sent_by_peer[p] += 1
    drops = records["final_kernel"][2]
    peers = snap["peers"]
    lost = 0
    over = []
    stale = 0
    for p in range(w.n_peers):
        entry = peers.get(w.peer_name(p))
        got = entry["n_accepted"] if entry is not None else 0
        stale += entry["n_stale"] if entry is not None else 0
        if got > sent_by_peer[p]:
            over.append(w.peer_name(p))
        lost += sent_by_peer[p] - got
    checks.append((
        "accepted == sent - kernel drops",
        lost == drops and not over and len(peers) == w.n_peers and stale == 0,
        f"sent {sent} ({records['send_errors']} send errors), lost {lost}, "
        f"kernel drops {drops}, stale {stale}, "
        f"peers {len(peers)}/{w.n_peers}, over-counted {over[:5]}",
    ))
    n_sil = len(schedule.silences)
    checks.append((
        "one suspect and one trust per silence",
        sil.missed == 0 and not sil.duplicates,
        f"{n_sil} silences, {len(sil.suspect)} suspects, {len(sil.trust)} "
        f"trusts, duplicates {sil.duplicates[:5]}",
    ))
    checks.append((
        "no unsilenced peer suspected after warm-up",
        not sil.false_suspects,
        f"{len(sil.false_suspects)} false suspects {sil.false_suspects[:5]}",
    ))
    ids = [ev["id"] for _, ev in records["events"]]
    cursor = snap["events"]["cursor"]
    gaps = cursor - len(ids)
    checks.append((
        "subscriber ids contiguous, every published event received",
        ids == list(range(1, len(ids) + 1)) and gaps <= 0
        and records["subscriber_errors"] == 0,
        f"received {len(ids)}, broker cursor {cursor}, ring-aged "
        f"{snap['events']['dropped']}, unparsable {records['subscriber_errors']}",
    ))
    checks.append((
        "status requests answered",
        not op["errors"],
        f"{len(op['delta'])} delta, {len(op['metrics'])} metrics, "
        f"errors {op['errors'][:3]}",
    ))

    n_status = len(op["delta"]) + len(op["metrics"]) + len(op["errors"])
    attempted = sent + 2 * n_sil + n_status
    n_gap = max(gaps, 0) + sum(
        1 for a, b in zip(ids, ids[1:]) if b != a + 1
    )
    failed = (
        max(lost, 0)
        + sil.missed
        + len(sil.duplicates)
        + len(sil.false_suspects)
        + len(op["errors"])
        + n_gap
    )
    gen_cpu = (end["gen_cpu"] - begin["gen_cpu"]) / (end["t"] - begin["t"])
    extra = {
        "false_suspects": len(sil.false_suspects),
        "missed_detections": sil.missed,
        "fail_share": failed / attempted,
        "lost_beats": lost,
        "queue": queue,
        "gen_late_p99": pct(records["late_window"], 99),
        "gen_late_max": max(records["late_window"], default=math.nan),
        "gen_cpu_share": gen_cpu,
        "silences": sil,
    }
    return metrics, counts, checks, attempted, failed, extra


def per_layer(schedule, records, e2e: dict, extra: dict) -> dict:
    """Per-layer metrics of a traced run (see BENCHMARK.json)."""
    trace = records["trace"]
    spans = trace["spans"]
    names = spans["names"]
    begin, end = records["begin"], records["end"]
    lo, hi = begin["t"], end["t"]
    wall = hi - lo
    n = len(spans["start"])
    dur = [spans["end"][i] - spans["start"][i] for i in range(n)]
    layer_of = [LAYERS[names[k]] for k in spans["name"]]
    child = [0.0] * n
    n_child = [0] * n
    published = defaultdict(int)  # poll span -> events it published
    for i in range(n):
        p = spans["parent"][i]
        if p >= 0:
            child[p] += dur[i]
            n_child[p] += 1
            if layer_of[p] == "poll" and layer_of[i] == "broker":
                published[p] += 1
    # The tracer's own cost, timed in the monitor process at exit: each
    # span holds ``inside`` of it, and its parent (or, at the top, no
    # span) holds ``outside``.  Self times are net of both.
    cal = trace["calibration"]
    inside, outside = cal["wrapper"]["inside"], cal["wrapper"]["outside"]
    self_time = defaultdict(float)
    calls = defaultdict(int)
    items = defaultdict(int)
    whole = defaultdict(list)  # layer -> inclusive durations over the run
    n_window = 0
    expiring = []  # events published per poll call that published any
    for i in range(n):
        layer = layer_of[i]
        whole[layer].append(dur[i])
        if not lo <= spans["wall"][i] <= hi:
            continue
        n_window += 1
        self_time[layer] += dur[i] - child[i] - inside - n_child[i] * outside
        p = spans["parent"][i]
        if p < 0 or layer_of[p] != layer:
            calls[layer] += 1
            items[layer] += spans["items"][i]
        if published.get(i):
            expiring.append(published[i])
    cpu = end["cpu"] - begin["cpu"]
    accounted = sum(self_time.values())
    lags = [lag for t, lag in trace["lags"] if lo <= t <= hi]
    tracer = n_window * (inside + outside) + len(lags) * cal["probe"]
    unaccounted = cpu - accounted - tracer
    extra["accounting"] = {
        "layers": accounted,
        "tracer": tracer,
        "unaccounted": unaccounted,
        "cpu": cpu,
        "spans": n_window,
        "wrapper_us": (outside * 1e6, inside * 1e6),
        "probe_us": cal["probe"] * 1e6,
    }
    waits = [w for t, w in trace["waits"] if lo <= t <= hi]
    gc_pauses = [d for t, d, _ in trace["gc"] if lo <= t <= hi]
    publish_at = trace["published"]
    deliver = [
        received - publish_at[str(ev["id"])]
        for received, ev in records["events"]
        if lo <= received <= hi and str(ev["id"]) in publish_at
    ]
    kernel = records["kernel"]
    adm = records["snapshot"]["admission"]
    screened = adm["n_admitted"] + adm["n_rejected"]
    op = records["operator"]
    queue = extra["queue"]

    def per(layer, scale):
        return self_time[layer] / calls[layer] * scale if calls[layer] else 0.0

    out = {
        "kernel.udp_drops": (records["final_kernel"][2], "count"),
        "kernel.rx_queue_peak_bytes": (max(s[1] for s in kernel), "bytes"),
        "live.receive.queue_ms.p50": (ms(pct(queue, 50)), "ms"),
        "live.receive.queue_ms.p95": (ms(pct(queue, 95)), "ms"),
        "fdaas.admission.us_per_beat": (
            self_time["admission"] / max(items["admission"], 1) * 1e6, "us"),
        "fdaas.admission.reject_share": (
            adm["n_rejected"] / max(screened, 1), "share"),
        "live.monitor.ingest.us_per_beat": (
            self_time["ingest"] / max(items["ingest"], 1) * 1e6, "us"),
        "live.monitor.ingest.beats_per_call": (
            items["ingest"] / max(calls["ingest"], 1), "count"),
        "live.monitor.ingest.busy_share": (self_time["ingest"] / wall, "share"),
        "live.monitor.poll.ms_per_call": (per("poll", 1e3), "ms"),
        "live.monitor.poll.busy_share": (self_time["poll"] / wall, "share"),
        "live.monitor.poll.wait_ms.p50": (ms(pct(waits, 50)), "ms"),
        "live.monitor.poll.wait_ms.p95": (ms(pct(waits, 95)), "ms"),
        "live.monitor.poll.events_per_expiring_call": (
            sum(expiring) / max(len(expiring), 1), "count"),
        "fdaas.subscribe.deliver_ms.p50": (ms(pct(deliver, 50)), "ms"),
        "fdaas.subscribe.deliver_ms.p95": (ms(pct(deliver, 95)), "ms"),
        "fdaas.broker.publish_us": (per("broker", 1e6), "us"),
        "fdaas.sla.evaluate_ms": (per("sla", 1e3), "ms"),
        "fdaas.sla.busy_share": (self_time["sla"] / wall, "share"),
        "live.status.delta_ms": (ms(pct(whole["delta"], 50)), "ms"),
        "live.status.delta_bytes": (pct([r[2] for r in op["delta"]], 50), "bytes"),
        "obs.render_ms": (ms(pct(whole["render"], 50)), "ms"),
        "obs.metrics_bytes": (pct([r[2] for r in op["metrics"]], 50), "bytes"),
        "asyncio.loop_lag_ms.p99": (ms(pct(lags, 99)), "ms"),
        "asyncio.loop_lag_ms.max": (ms(max(lags)), "ms"),
        "python.gc.pause_ms.max": (ms(max(gc_pauses, default=0.0)), "ms"),
        "python.gc.busy_share": (sum(gc_pauses) / wall, "share"),
        "server.unaccounted_share": (unaccounted / cpu, "share"),
        "trace.overhead_share": (tracer / cpu, "share"),
        "trace.overhead_us_per_beat": (
            tracer / max(end["accepted"] - begin["accepted"], 1) * 1e6, "us"),
        "gen.late_ms.p99": (ms(extra["gen_late_p99"]), "ms"),
        "gen.cpu_share": (extra["gen_cpu_share"], "share"),
        "check.false_suspects": (extra["false_suspects"], "count"),
        "check.missed_detections": (extra["missed_detections"], "count"),
        "check.fail_share": (extra["fail_share"], "share"),
    }
    for name, (value, unit) in e2e.items():
        out["traced." + name] = (value, unit)
    return out
