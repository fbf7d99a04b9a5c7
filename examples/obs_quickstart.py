#!/usr/bin/env python3
"""Observability quickstart: scrape a live monitor like an operator would.

Boots the real loopback runtime with the :mod:`repro.obs` bundle attached
and exercises every telemetry surface this repository exposes:

- one :class:`repro.obs.Observability` shared by sender and monitor: the
  heartbeater counts sends into the same registry the monitor counts
  receipts into, and both record into one heartbeat lifecycle tracer;
- the status endpoint's ``metrics`` command returns a Prometheus text
  exposition (the exact document a scraper would ingest), parsed here
  with :func:`repro.obs.parse_exposition` and checked for the metric
  families the dashboards rely on;
- the ``trace`` command returns ring-buffered lifecycle events
  (send → recv → fresh → suspect/trust) correlated by ``peer:seq`` spans;
- the rolling QoS health gauges (T_D/T_MR/T_M/P_A per peer × detector)
  report the paper's §II-A metrics over the recent window, live.

Run:  python examples/obs_quickstart.py

Exits non-zero if a required metric family is missing from the scrape —
CI runs this script as its ``obs-smoke`` gate.
"""

import asyncio
import sys
from collections import Counter

from repro.live import (
    ChaosSpec,
    Heartbeater,
    LiveMonitor,
    LiveMonitorServer,
    arequest,
)
from repro.obs import Observability, parse_exposition

INTERVAL = 0.05  # Δi: p heartbeats every 50 ms
CRASH_AT = 1.2  # p dies 1.2 s in, so the trace ends in a suspicion

#: The families the Grafana-style dashboards key on; a scrape missing any
#: of these is a broken deliverable, not a degraded one.
REQUIRED_FAMILIES = (
    "repro_heartbeats_sent_total",
    "repro_heartbeats_received_total",
    "repro_heartbeats_accepted_total",
    "repro_detector_transitions_total",
    "repro_ingest_batch_size",
    "repro_last_poll_seconds",
    "repro_qos_t_d",
    "repro_qos_t_mr",
    "repro_qos_t_m",
    "repro_qos_p_a",
)


async def run() -> int:
    obs = Observability()
    monitor = LiveMonitor(
        INTERVAL,
        detectors=["2w-fd", "bertier"],
        params={"2w-fd": 0.3},
        obs=obs,
    )

    async with LiveMonitorServer(monitor, port=0, tick=0.01, status_port=0) as server:
        host, port = server.status.address
        print(f"q: monitoring UDP {server.address[0]}:{server.address[1]}, "
              f"status endpoint on TCP {port}\n")

        heartbeater = Heartbeater(
            server.address,
            sender_id="p",
            interval=INTERVAL,
            chaos=ChaosSpec(crash_at=CRASH_AT, seed=7),
            obs=obs,  # sender-side telemetry lands in the same registry
        )
        sent = await heartbeater.run()
        print(f"p: crashed after sending {sent} heartbeats")

        # Wait until every detector has noticed the silence.
        while not all(
            not d["trusting"]
            for d in monitor.snapshot()["peers"]["p"]["detectors"].values()
        ):
            await asyncio.sleep(0.02)

        # Scrape exactly as an operator (or Prometheus) would: over TCP.
        text = await arequest(host, port, "metrics")
        trace = await arequest(host, port, "trace")

    families = parse_exposition(text)
    missing = [name for name in REQUIRED_FAMILIES if name not in families]
    if missing:
        print(f"SMOKE FAILED — families missing from scrape: {missing}")
        return 1

    def sample(name, *, suffix=""):
        return families[name]["samples"][(name + suffix, ())]

    print(f"\nscraped {len(families)} metric families "
          f"({len(text.splitlines())} exposition lines); spot checks:")
    print(f"  heartbeats received: {sample('repro_heartbeats_received_total'):.0f}")
    print(f"  ingest batches:      {sample('repro_ingest_batch_size', suffix='_count'):.0f}")
    for (name, labels), value in sorted(families["repro_qos_p_a"]["samples"].items()):
        key = ", ".join(f"{k}={v}" for k, v in labels)
        print(f"  rolling P_A [{key}]: {value:.4f}")

    kinds = Counter(e["kind"] for e in trace["events"])
    print(f"\ntrace ring holds {len(trace['events'])} events "
          f"(cursor {trace['cursor']}): {dict(sorted(kinds.items()))}")
    if "suspect" not in kinds:
        print("SMOKE FAILED — the crash left no suspect event in the trace")
        return 1
    span = next(e["span"] for e in trace["events"] if e["kind"] == "recv")
    stages = [e["kind"] for e in trace["events"] if e.get("span") == span]
    print(f"one heartbeat's lifecycle (span {span}): {' → '.join(stages)}")

    print("\nobs-smoke ok: all required families present, lifecycle traced")
    return 0


def main() -> None:
    print(__doc__.split("\n")[0])
    print("=" * 60, "\n")
    raise SystemExit(asyncio.run(run()))


if __name__ == "__main__":
    main()
