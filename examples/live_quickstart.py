#!/usr/bin/env python3
"""Live quickstart: real UDP heartbeats, an injected crash, a real T_D.

Everything else in this repository evaluates detectors over *recorded*
arrival times.  This example runs the actual runtime on 127.0.0.1:

- process q (:class:`repro.live.monitor.LiveMonitorServer`) binds a UDP
  socket and runs three detectors from the registry over every peer it
  hears, plus the JSON status endpoint on a local TCP port;
- process p (:class:`repro.live.heartbeater.Heartbeater`) sends a
  heartbeat every 50 ms through a chaos link that drops 5% of packets,
  skews p's clock by 3 s (invisible to detection — DESIGN.md invariant 4),
  and crashes p 2.5 s in;
- the suspicion/trust event stream prints as it happens, the status
  endpoint is polled mid-run like an operator would, and the finished run
  is scored with the same `repro.qos.metrics` as a replayed trace.

Run:  python examples/live_quickstart.py
"""

import asyncio
import json

from repro.live import (
    ChaosSpec,
    Heartbeater,
    LiveMonitor,
    LiveMonitorServer,
    arequest,
)
from repro.net.clock import DriftingClock
from repro.net.loss import BernoulliLoss
from repro.qos.metrics import compute_metrics

INTERVAL = 0.05  # Δi: p heartbeats every 50 ms
CRASH_AT = 2.5  # p dies 2.5 s in (p's clock)


async def run() -> None:
    monitor = LiveMonitor(
        INTERVAL,
        detectors=["2w-fd", "bertier", "fixed-timeout"],
        params={"2w-fd": 0.3, "fixed-timeout": 0.4},
    )
    monitor.subscribe(
        lambda e: print(f"  [{e.time:6.3f}s] {e.peer}/{e.detector}: {e.kind.upper()}")
    )

    async with LiveMonitorServer(monitor, port=0, tick=0.01, status_port=0) as server:
        print(f"q: monitoring UDP {server.address[0]}:{server.address[1]}")
        print(f"q: status endpoint on TCP port {server.status.address[1]}\n")

        heartbeater = Heartbeater(
            server.address,
            sender_id="p",
            interval=INTERVAL,
            chaos=ChaosSpec(
                loss=BernoulliLoss(0.05),
                clock=DriftingClock(offset=3.0),
                crash_at=CRASH_AT,
                seed=7,
            ),
        )
        sender = asyncio.create_task(heartbeater.run())

        # Mid-run, ask the status endpoint what q currently believes.
        await asyncio.sleep(CRASH_AT / 2)
        status = await arequest(*server.status.address, "")
        peer = status["peers"]["p"]
        print("\nq's status at half-time (via the TCP endpoint):")
        print(f"  accepted {peer['n_accepted']} heartbeats, last seq {peer['last_seq']}")
        print(f"  estimated p-q clock offset: {peer['clock_offset_estimate']:+.2f}s "
              "(chaos skew + monotonic epoch gap; detection never sees it)")
        print(json.dumps(peer["detectors"], indent=2, sort_keys=True), "\n")

        sent = await sender
        print(f"\np: crashed after sending {sent} heartbeats "
              f"({heartbeater.n_dropped} chaos-dropped)\n")

        # Wait until every detector has noticed the silence.
        while not all(
            not d["trusting"]
            for d in monitor.snapshot()["peers"]["p"]["detectors"].values()
        ):
            await asyncio.sleep(0.02)

    # Score the live run exactly like a replayed one.
    end = monitor.now()
    print("final verdicts (same QoS metrics as trace replay):")
    for name, timeline in monitor.timelines(end)["p"].items():
        m = compute_metrics(timeline)
        crash_suspect = max(
            e.time for e in monitor.events if e.detector == name and not e.trusting
        )
        print(f"  {name:13s} P_A={m.query_accuracy:.4f}  "
              f"suspicions={m.n_mistakes}  "
              f"final suspicion at {crash_suspect:.3f}s")


def main() -> None:
    print(__doc__.split("\n")[0])
    print("=" * 60, "\n")
    asyncio.run(run())


if __name__ == "__main__":
    main()
