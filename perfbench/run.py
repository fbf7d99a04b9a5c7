"""Socket-to-subscriber benchmark of the live failure-detection service.

Measures the path a user of the service sees: a sender's UDP datagram
through the socket, admission, ingest and the deadline heap to a suspect
or trust event received on an fdaas ``subscribe`` stream, plus the
status reads beside it.  Two processes share the host: the monitor
process (``monitor.py``, built from library defaults) and this one, a
single-threaded asyncio generator that sends every beat open loop at its
due instant.

Run from the repository root::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

``--workload`` is ``wide``, ``narrow`` or ``scrape`` (see
``workloads.py``); ``--seed`` draws the send phases and silences;
``--seconds`` is the length of the measured window.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the library's entry
points in the monitor process and reports the per-layer split instead.
Every run checks the service's outputs and prints them, a table of the
metrics and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits non-zero, without that line, when the library sources are
not beside it or the monitor cannot be started.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import analyze  # noqa: E402
from workloads import WORKLOADS, make_schedule  # noqa: E402


def context(schedule, records, seed: int) -> dict:
    w = schedule.workload
    ready = records["ready"]
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    def sysctl(name):
        with open(f"/proc/sys/net/core/{name}", encoding="ascii") as fh:
            return int(fh.read())

    return {
        "workload": w.name,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "ingest_mode": ready["ingest_mode"],
        "detector": "2w-fd",
        "margin_s": w.margin,
        "interval_s": w.interval,
        "tick_s": ready["tick"],
        "peers": w.n_peers,
        "sent_beats_per_s": schedule.sent_rate,
        "silences": len(schedule.silences),
        "setup_parts_s": [
            {"startup": round(a, 4), "discovery_tail": round(b, 4)}
            for a, b in records["setup_parts"]
        ],
        "rmem_default": sysctl("rmem_default"),
        "rmem_max": sysctl("rmem_max"),
        "so_rcvbuf": ready["rcvbuf"],
        "cpus": {"generator": sorted(os.sched_getaffinity(0)),
                 "monitor": ready["cpus"]},
        "loopback": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "fdaas", "service.py")):
        print(
            "error: the repro sources (src/repro) are not beside perfbench/",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 5:
        print("error: --seconds must be at least 5", file=sys.stderr)
        return 2

    from generator import measure

    try:
        schedule = make_schedule(WORKLOADS[args.workload], args.seed, args.seconds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The schedule is long-lived; keep collections of the generator's own
    # heap from scanning it mid-run.
    gc.collect()
    gc.freeze()
    try:
        records = asyncio.run(measure(schedule, bool(args.trace)))
    except (OSError, RuntimeError, ValueError, asyncio.TimeoutError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    e2e, counts, checks, attempted, failed, extra = analyze.end_to_end(
        schedule, records
    )
    print("context " + json.dumps(context(schedule, records, args.seed)))
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    print(
        f"failures: {failed} of {attempted} operations "
        f"(fail_share {extra['fail_share']:.3g}; lost beats "
        f"{extra['lost_beats']}, missed detections "
        f"{extra['missed_detections']}, false suspects "
        f"{extra['false_suspects']})"
    )
    print(
        f"generator: late p99 {extra['gen_late_p99'] * 1e3:.2f} ms, max "
        f"{extra['gen_late_max'] * 1e3:.2f} ms, cpu share "
        f"{extra['gen_cpu_share']:.3f}"
    )
    if extra["gen_late_p99"] > analyze.GEN_LATE_FLAG:
        print(
            f"FLAG: the generator fell behind (late p99 "
            f"{extra['gen_late_p99'] * 1e3:.2f} ms, cpu share "
            f"{extra['gen_cpu_share']:.2f}); latencies include its delay"
        )
    for name, n in counts.items():
        if name.endswith(".p95") and n < analyze.P95_SAMPLES:
            print(f"FLAG: {name} rests on {n} samples (< {analyze.P95_SAMPLES})")

    if args.trace:
        metrics = analyze.per_layer(schedule, records, e2e, extra)
        shown = metrics
        a = extra["accounting"]
        print(
            f"trace accounting: server CPU {a['cpu']:.3f} s over the window = "
            f"layer self times {a['layers']:.3f} s + tracer {a['tracer']:.3f} s "
            f"({a['spans']} spans at {a['wrapper_us'][0]:.2f} us outside + "
            f"{a['wrapper_us'][1]:.2f} us inside each, lag probe "
            f"{a['probe_us']:.1f} us per iteration; timed at exit) + "
            f"unaccounted {a['unaccounted']:.3f} s (the remainder)"
        )
        if a["unaccounted"] < 0:
            print(
                "FLAG: layer self times and the tracer's timed cost exceed "
                "the monitor's CPU time; the tracer calibration is off"
            )
    else:
        metrics = {k: v for k, v in e2e.items() if k not in analyze.UNBOUNDED}
        shown = e2e
    for name, (value, unit) in shown.items():
        n = f"  n={counts[name]}" if name in counts else ""
        note = name not in metrics and "  (printed, not bounded)" or ""
        print(f"{name:38s} {value:14.6g} {unit}{n}{note}")
    empty = [name for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if empty:
        print(f"error: no samples for {', '.join(empty)}", file=sys.stderr)
        return 1
    result = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
