"""Command-line interface.

::

    repro-fd list                      # available experiments
    repro-fd run fig6 --scale 0.02     # regenerate one figure/table
    repro-fd run all --scale 0.01      # regenerate everything
    repro-fd trace wan --scale 0.01 -o wan.npz   # export a synthetic trace
    repro-fd configure --td 30 --recurrence 600 --tm 10 --loss 0.01 --vd 1e-3
    repro-fd detectors                 # registered detectors + tuning knobs
    repro-fd simulate --detector 2w-fd --param 0.2 --crash 60 --duration 90
    repro-fd live monitor --port 9999 --detector 2w-fd=0.3 --status-port 9998
    repro-fd live heartbeat --target 127.0.0.1:9999 --interval 0.1 --crash 30
    repro-fd live status --port 9998           # JSON snapshot of a monitor
    repro-fd live metrics --port 9998 --watch  # Prometheus text exposition
    repro-fd live trace --port 9998 --follow   # heartbeat lifecycle trace
    repro-fd live diag --port 9998 --watch     # runtime diagnostics plane
    repro-fd report -o report.md --jobs 4      # parallel over experiments
    repro-fd cache info                        # on-disk trace/kernel cache

``--jobs`` (or the REPRO_JOBS environment variable) sets the worker-process
count for seed sweeps, multi-curve sweeps, and the full report; 0 means all
cores.  See docs/performance.md.

(Equivalently: ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fd",
        description=(
            "Reproduction of '2W-FD: A Failure Detector Algorithm with QoS' — "
            "experiment runner and utilities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    p_run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="fraction of the paper's trace sizes to generate (default 0.02)",
    )
    p_run.add_argument("--seed", type=int, default=None, help="RNG seed")
    p_run.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each result as <DIR>/<experiment>.json",
    )
    p_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for parallelizable stages (0 = all cores)",
    )

    p_trace = sub.add_parser("trace", help="generate and save a synthetic trace")
    p_trace.add_argument("scenario", choices=["wan", "lan"])
    p_trace.add_argument("--scale", type=float, default=0.01)
    p_trace.add_argument("--seed", type=int, default=2015)
    p_trace.add_argument("-o", "--output", required=True, help="output .npz path")

    sub.add_parser(
        "detectors",
        help="list registered failure detectors and their tuning parameters",
    )

    p_sim = sub.add_parser(
        "simulate", help="run a live monitoring simulation with crash injection"
    )
    p_sim.add_argument(
        "--detector",
        default="2w-fd",
        help="detector name ('repro-fd detectors' lists names and tuning knobs)",
    )
    p_sim.add_argument(
        "--param",
        type=float,
        default=None,
        help="tuning parameter (safety margin / threshold / timeout); "
        "rejected for self-configuring detectors",
    )
    p_sim.add_argument("--interval", type=float, default=0.1, help="Δi [s]")
    p_sim.add_argument("--duration", type=float, default=60.0, help="run length [s]")
    p_sim.add_argument("--crash", type=float, default=None, help="crash time [s]")
    p_sim.add_argument("--delay", type=float, default=0.1, help="mean one-way delay [s]")
    p_sim.add_argument(
        "--jitter", type=float, default=0.1, help="log-normal sigma of the delay"
    )
    p_sim.add_argument("--loss", type=float, default=0.01, help="loss probability")
    p_sim.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser(
        "report", help="regenerate every experiment into one Markdown report"
    )
    p_rep.add_argument("-o", "--output", required=True, help="output .md path")
    p_rep.add_argument("--scale", type=float, default=None)
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes, one experiment each (0 = all cores)",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk trace/kernel cache"
    )
    p_cache.add_argument("action", choices=["info", "clear"])

    p_live = sub.add_parser(
        "live", help="real asyncio/UDP failure-detection runtime"
    )
    live_sub = p_live.add_subparsers(dest="live_command", required=True)

    p_mon = live_sub.add_parser(
        "monitor", help="monitor UDP heartbeats with online detectors"
    )
    p_mon.add_argument("--host", default="127.0.0.1", help="UDP bind address")
    p_mon.add_argument("--port", type=int, default=9999, help="UDP bind port")
    p_mon.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="NAME[=PARAM]",
        help="detector to run per peer, e.g. '2w-fd=0.3' or 'bertier'; "
        "repeatable ('repro-fd detectors' lists names and tuning knobs)",
    )
    p_mon.add_argument("--interval", type=float, default=0.1, help="expected Δi [s]")
    p_mon.add_argument("--tick", type=float, default=0.02, help="longest gap between polls [s]")
    p_mon.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help="ring-buffer the retained event history to N entries "
        "(default: unbounded; totals/drop counts stay exact)",
    )
    p_mon.add_argument(
        "--retain-transitions",
        type=int,
        default=None,
        metavar="N",
        help="compact each detector's transition log to its last N entries "
        "(default: full history; suspicion counters stay exact)",
    )
    p_mon.add_argument(
        "--duration",
        type=float,
        default=None,
        help="stop after this many seconds (default: run until interrupted)",
    )
    p_mon.add_argument(
        "--status-port",
        type=int,
        default=None,
        help="also serve the JSON status endpoint on this local TCP port",
    )
    p_mon.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run N SO_REUSEPORT worker processes behind the UDP port, one "
        "monitor per core; the status endpoint serves the merged document "
        "(default 1 = single process; falls back to 1 where SO_REUSEPORT "
        "is unavailable)",
    )
    p_mon.add_argument(
        "--status-timeout",
        type=float,
        default=2.0,
        metavar="S",
        help="sharded only: per-attempt timeout for the parent's fetches "
        "from each worker's status endpoint (default 2)",
    )
    p_mon.add_argument(
        "--status-retries",
        type=int,
        default=1,
        metavar="N",
        help="sharded only: retry failed worker status fetches N more "
        "times before reporting that shard as errored (default 1)",
    )
    p_mon.add_argument(
        "--ingest-mode",
        choices=["scalar", "batched", "vectorized", "adaptive"],
        default="batched",
        help="datagram intake: 'scalar' = one decode+update per datagram "
        "(reference), 'batched' = drain the socket burst into one "
        "ingest_many call (default), 'vectorized' = zero-copy arena drain "
        "+ columnar numpy estimation over each batch, 'adaptive' = pick "
        "batched vs vectorized per drain from observed fan-in and drain "
        "cost (all registry detectors have vectorized kernels; all modes "
        "emit bitwise-identical outputs)",
    )
    p_mon.add_argument(
        "--obs",
        choices=["on", "off"],
        default="on",
        help="observability: metrics registry + heartbeat tracing + QoS "
        "health estimators, served via the status endpoint's 'metrics' "
        "and 'trace' commands (default on; 'off' = zero instrumentation, "
        "the benchmark configuration)",
    )
    p_mon.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="trace only every Nth heartbeat's send/recv/fresh stages "
        "(suspect/trust transitions are always traced; default 1 = all)",
    )
    p_mon.add_argument(
        "--diag",
        choices=["on", "off"],
        default="off",
        help="runtime diagnostics: sampled pipeline stage timing, the "
        "event-loop stall watchdog, and the drain flight recorder, served "
        "via the status endpoint's 'diag' command and dumped to stderr on "
        "SIGUSR1 (needs --obs on; default off)",
    )
    p_mon.add_argument(
        "--diag-sample",
        type=int,
        default=64,
        metavar="N",
        help="time pipeline stages on every Nth drain/datagram only "
        "(default 64; the flight recorder and watchdog are unsampled)",
    )
    p_mon.add_argument(
        "--stall-threshold",
        type=float,
        default=0.1,
        metavar="S",
        help="event-loop lag that counts as a runtime stall and emits a "
        "repro_runtime_stalled event (default 0.1s)",
    )
    p_mon.add_argument(
        "--tenants",
        default=None,
        metavar="CONFIG",
        help="run multi-tenant: screen datagrams against the tenant "
        "registry in this JSON config (see 'repro-fd fdaas register') — "
        "HMAC authentication, replay rejection, namespacing, rate limits, "
        "and (single-process) live SLA enforcement with push events",
    )

    p_hb = live_sub.add_parser(
        "heartbeat", help="send UDP heartbeats (optionally through chaos)"
    )
    p_hb.add_argument(
        "--target", default="127.0.0.1:9999", help="monitor address host:port"
    )
    p_hb.add_argument("--id", default="p", help="sender id carried in each heartbeat")
    p_hb.add_argument("--interval", type=float, default=0.1, help="Δi [s]")
    p_hb.add_argument(
        "--count", type=int, default=None, help="stop after N heartbeats"
    )
    p_hb.add_argument(
        "--crash", type=float, default=None, help="crash (stop sending) after [s]"
    )
    p_hb.add_argument("--loss", type=float, default=0.0, help="chaos drop probability")
    p_hb.add_argument(
        "--delay", type=float, default=0.0, help="chaos mean one-way delay [s]"
    )
    p_hb.add_argument(
        "--jitter",
        type=float,
        default=0.0,
        help="log-normal sigma of the chaos delay (0 = constant)",
    )
    p_hb.add_argument(
        "--skew", type=float, default=0.0, help="sender clock offset [s]"
    )
    p_hb.add_argument(
        "--drift", type=float, default=0.0, help="sender clock drift (e.g. 50e-6)"
    )
    p_hb.add_argument("--seed", type=int, default=0, help="chaos RNG seed")
    p_hb.add_argument(
        "--tenant",
        default=None,
        metavar="ID",
        help="fdaas tenant id: heartbeats carry the namespaced sender "
        "'ID/<--id>' a multi-tenant monitor expects",
    )
    p_hb.add_argument(
        "--auth-key",
        default=None,
        metavar="HEX",
        help="per-tenant HMAC key (hex): emit authenticated wire-v2 "
        "heartbeats with an HMAC-SHA256 trailer",
    )

    p_st = live_sub.add_parser(
        "status", help="fetch and print a monitor's JSON status snapshot"
    )
    p_st.add_argument("--host", default="127.0.0.1")
    p_st.add_argument("--port", type=int, required=True)
    p_st.add_argument(
        "--summary",
        action="store_true",
        help="fetch only the constant-size monitor-load summary "
        "(peer count, heartbeat rate, poll cost, heap size)",
    )
    p_st.add_argument(
        "--watch",
        nargs="?",
        type=float,
        const=2.0,
        default=None,
        metavar="SECONDS",
        help="re-fetch and re-print every SECONDS (default 2) until "
        "interrupted; uses cursor-resumed delta fetches when the server "
        "supports them (only changed peers travel per refresh)",
    )
    p_st.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="S",
        help="per-attempt connect/read timeout in seconds (default 5)",
    )
    p_st.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry failed fetches N more times with exponential backoff "
        "(0.1s, 0.2s, 0.4s, ...; default 0 = fail immediately)",
    )

    p_met = live_sub.add_parser(
        "metrics",
        help="fetch a monitor's Prometheus text exposition (needs a "
        "monitor running with observability on)",
    )
    p_met.add_argument("--host", default="127.0.0.1")
    p_met.add_argument("--port", type=int, required=True, help="status port")
    p_met.add_argument(
        "--watch",
        nargs="?",
        type=float,
        const=2.0,
        default=None,
        metavar="SECONDS",
        help="re-scrape and re-print every SECONDS (default 2) until "
        "interrupted, instead of one shot",
    )
    p_met.add_argument("--timeout", type=float, default=5.0, metavar="S")
    p_met.add_argument("--retries", type=int, default=0, metavar="N")

    p_tr = live_sub.add_parser(
        "trace",
        help="fetch a monitor's heartbeat lifecycle trace as JSON lines",
    )
    p_tr.add_argument("--host", default="127.0.0.1")
    p_tr.add_argument("--port", type=int, required=True, help="status port")
    p_tr.add_argument(
        "--since",
        type=int,
        default=0,
        metavar="CURSOR",
        help="only events with id > CURSOR (default 0 = everything retained)",
    )
    p_tr.add_argument(
        "--follow",
        action="store_true",
        help="poll for new events until interrupted (cursor-based: each "
        "event is printed exactly once; ring-buffer gaps are reported)",
    )
    p_tr.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="S",
        help="poll period with --follow (default 1s)",
    )
    p_tr.add_argument("--timeout", type=float, default=5.0, metavar="S")
    p_tr.add_argument("--retries", type=int, default=0, metavar="N")

    p_diag = live_sub.add_parser(
        "diag",
        help="fetch a monitor's runtime diagnostics (pipeline stage "
        "timing, stall watchdog, flight recorder) as JSON",
    )
    p_diag.add_argument("--host", default="127.0.0.1")
    p_diag.add_argument("--port", type=int, required=True, help="status port")
    p_diag.add_argument(
        "--since",
        type=int,
        default=0,
        metavar="CURSOR",
        help="only flight-recorder records with id > CURSOR (default 0; "
        "ignored by a sharded parent endpoint, which reports per-shard "
        "cursors instead)",
    )
    p_diag.add_argument(
        "--watch",
        nargs="?",
        type=float,
        const=2.0,
        default=None,
        metavar="SECONDS",
        help="re-fetch and re-print every SECONDS (default 2) until "
        "interrupted; the flight-recorder cursor is carried forward so "
        "each record prints once",
    )
    p_diag.add_argument("--timeout", type=float, default=5.0, metavar="S")
    p_diag.add_argument("--retries", type=int, default=0, metavar="N")

    p_fdaas = sub.add_parser(
        "fdaas", help="multi-tenant failure-detection-as-a-service tools"
    )
    fdaas_sub = p_fdaas.add_subparsers(dest="fdaas_command", required=True)

    p_reg = fdaas_sub.add_parser(
        "register",
        help="add (or update) a tenant in a JSON tenants config file",
    )
    p_reg.add_argument(
        "--config", required=True, metavar="FILE",
        help="tenants config path (created if missing)",
    )
    p_reg.add_argument("--tenant", required=True, metavar="ID", help="tenant id")
    p_reg.add_argument(
        "--gen-key",
        action="store_true",
        help="generate a fresh 32-byte HMAC key (printed once, as hex)",
    )
    p_reg.add_argument(
        "--key", default=None, metavar="HEX",
        help="use this HMAC key instead of generating one",
    )
    p_reg.add_argument(
        "--rate", type=float, default=None, metavar="HZ",
        help="token-bucket rate limit in heartbeats/second (default: none)",
    )
    p_reg.add_argument(
        "--burst", type=float, default=None, metavar="N",
        help="token-bucket burst capacity (default: 2x rate)",
    )
    p_reg.add_argument("--td", type=float, default=None, help="SLA T_D^U [s]")
    p_reg.add_argument(
        "--tmr", type=float, default=None, help="SLA mistake-rate bound [1/s]"
    )
    p_reg.add_argument("--tm", type=float, default=None, help="SLA T_M^U [s]")
    p_reg.add_argument(
        "--pa", type=float, default=None, help="SLA query-accuracy floor (0..1]"
    )

    p_ten = fdaas_sub.add_parser(
        "tenants", help="list the tenants in a config file (keys redacted)"
    )
    p_ten.add_argument("--config", required=True, metavar="FILE")

    p_sla = fdaas_sub.add_parser(
        "sla", help="fetch per-tenant SLA standing from a running service"
    )
    p_sla.add_argument("--host", default="127.0.0.1")
    p_sla.add_argument("--port", type=int, required=True, help="status port")
    p_sla.add_argument(
        "--tenant", default=None, metavar="ID", help="only this tenant"
    )
    p_sla.add_argument("--timeout", type=float, default=5.0, metavar="S")
    p_sla.add_argument("--retries", type=int, default=0, metavar="N")

    p_subev = fdaas_sub.add_parser(
        "subscribe",
        help="stream transition and SLA events from a running service "
        "(push: one JSON line per event, no polling)",
    )
    p_subev.add_argument("--host", default="127.0.0.1")
    p_subev.add_argument("--port", type=int, required=True, help="status port")
    p_subev.add_argument(
        "--since",
        type=int,
        default=0,
        metavar="CURSOR",
        help="resume after this event id (default 0 = everything retained)",
    )
    p_subev.add_argument(
        "--once",
        action="store_true",
        help="one-shot: fetch retained events past the cursor and exit "
        "instead of streaming",
    )
    p_subev.add_argument("--timeout", type=float, default=5.0, metavar="S")

    p_cfg = sub.add_parser(
        "configure", help="run Chen's QoS configuration procedure (Eq. 14-16)"
    )
    p_cfg.add_argument("--td", type=float, required=True, help="T_D^U [s]")
    p_cfg.add_argument(
        "--recurrence", type=float, required=True, help="required mistake recurrence [s]"
    )
    p_cfg.add_argument("--tm", type=float, required=True, help="T_M^U [s]")
    p_cfg.add_argument("--loss", type=float, default=0.0, help="p_L")
    p_cfg.add_argument("--vd", type=float, default=0.0, help="V(D) [s^2]")
    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for key in sorted(EXPERIMENTS):
        print(f"{key.ljust(width)}  {EXPERIMENTS[key][1]}")
    return 0


def _cmd_run(
    experiment: str,
    scale: float | None,
    seed: int | None,
    json_dir: str | None = None,
) -> int:
    import json
    from pathlib import Path

    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.experiments.report import render_result

    kwargs: dict = {}
    if scale is not None:
        kwargs["scale"] = scale
    if seed is not None:
        kwargs["seed"] = seed
    ids = sorted(EXPERIMENTS) if experiment == "all" else [experiment]
    # Figure pairs share a runner; avoid running the same runner twice.
    seen = set()
    failed = False
    for exp_id in ids:
        runner = EXPERIMENTS.get(exp_id, (None,))[0] if exp_id in EXPERIMENTS else None
        if runner is not None and runner in seen:
            continue
        result = run_experiment(exp_id, **kwargs)
        seen.add(EXPERIMENTS[exp_id][0])
        print(render_result(result))
        print()
        if json_dir is not None:
            out = Path(json_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{exp_id}.json"
            path.write_text(json.dumps(result.as_dict(), indent=2))
            print(f"(wrote {path})\n")
        failed |= not result.all_checks_passed
    return 1 if failed else 0


def _cmd_cache(action: str) -> int:
    from repro.runtime.cache import cache_info, clear_cache

    if action == "clear":
        freed = clear_cache()
        print(f"cleared cache ({freed / 1e6:.1f} MB freed)")
        return 0
    info = cache_info()
    state = "enabled" if info["enabled"] else "disabled (set REPRO_CACHE=1)"
    print(f"cache dir: {info['dir']}  [{state}]")
    if not info["categories"]:
        print("(empty)")
    for name, stats in info["categories"].items():
        print(f"  {name}: {stats['entries']} entries, {stats['bytes'] / 1e6:.1f} MB")
    print(f"total: {info['total_bytes'] / 1e6:.1f} MB")
    return 0


def _cmd_trace(scenario: str, scale: float, seed: int, output: str) -> int:
    from repro.traces import make_lan_trace, make_wan_trace, save_trace

    maker = make_wan_trace if scenario == "wan" else make_lan_trace
    trace = maker(scale=scale, seed=seed)
    path = save_trace(trace, output)
    print(f"wrote {trace} to {path}")
    return 0


def _cmd_configure(td: float, recurrence: float, tm: float, loss: float, vd: float) -> int:
    from repro.qos import NetworkBehavior, QoSSpec, configure
    from repro.qos.configurator import ConfigurationError

    spec = QoSSpec.from_recurrence_time(td, recurrence, tm)
    behavior = NetworkBehavior(loss_probability=loss, delay_variance=vd)
    try:
        cfg = configure(spec, behavior)
    except ConfigurationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"Δi  = {cfg.interval:.6g} s   ({cfg.message_rate:.4g} heartbeats/s)")
    print(f"Δto = {cfg.safety_margin:.6g} s")
    print(f"guaranteed mistake-rate bound f(Δi) = {cfg.mistake_rate_bound:.4g} /s")
    return 0


def _cmd_detectors() -> int:
    from repro.detectors.registry import available_detectors, tuning_parameter

    names = available_detectors()
    width = max(len(n) for n in names)
    for name in names:
        knob = tuning_parameter(name)
        knob_text = f"--param sets {knob}" if knob else "self-configuring (no --param)"
        print(f"{name.ljust(width)}  {knob_text}")
    return 0


def _detector_factory(name: str, param: float | None):
    """Validate (name, param) early; return a detector factory or an error.

    The single construction path for ``simulate`` and ``live monitor``:
    everything routes through :func:`repro.detectors.registry.make_tuned`,
    so a bad name or a misused ``--param`` is a friendly message up front,
    never a constructor ``TypeError`` mid-run.  Returns ``(factory, None)``
    on success, ``(None, message)`` on error.
    """
    from repro.detectors.registry import available_detectors, make_tuned, tuning_parameter

    if name not in available_detectors():
        return None, (
            f"unknown detector {name!r}; available: "
            f"{', '.join(available_detectors())}"
        )
    knob = tuning_parameter(name)
    if knob is not None and param is None:
        return None, f"detector {name!r} needs --param (its {knob})"
    if knob is None and param is not None:
        return None, (
            f"detector {name!r} is self-configuring and takes no --param"
        )
    return (lambda dt: make_tuned(name, dt, param)), None


def _cmd_simulate(args) -> int:
    import math

    from repro.experiments.ascii_plot import ascii_timeline
    from repro.net.delays import LogNormalDelay
    from repro.net.loss import BernoulliLoss
    from repro.sim import simulate

    factory, error = _detector_factory(args.detector, args.param)
    if factory is None:
        print(error, file=sys.stderr)
        return 2

    result = simulate(
        {args.detector: factory},
        interval=args.interval,
        duration=args.duration,
        delay_model=LogNormalDelay(
            log_mu=math.log(args.delay), log_sigma=max(args.jitter, 1e-6)
        ),
        loss_model=BernoulliLoss(args.loss),
        crash_time=args.crash,
        seed=args.seed,
    )
    metrics = result.metrics[args.detector]
    print(
        f"{result.n_sent} heartbeats sent, {result.n_lost} lost; "
        f"monitored for {metrics.duration:.1f}s"
    )
    print(
        f"accuracy: P_A={metrics.query_accuracy:.6f}  "
        f"mistakes={metrics.n_mistakes}  T_MR={metrics.mistake_rate:.3g}/s  "
        f"T_M={metrics.mistake_duration:.3f}s"
    )
    print(ascii_timeline(result.timelines[args.detector]))
    if args.crash is not None:
        report = result.crash_reports[args.detector]
        if report.permanently_suspecting:
            print(
                f"crash at {report.crash_time:.1f}s detected at "
                f"{report.suspected_at:.3f}s (T_D = {report.detection_time:.3f}s)"
            )
        else:
            print("crash NOT (permanently) detected within the horizon")
            return 1
    return 0


def _parse_detector_specs(specs):
    """Parse ``NAME[=PARAM]`` CLI specs into (names, params) or an error."""
    names, params = [], {}
    for spec in specs:
        name, sep, raw = spec.partition("=")
        name = name.strip()
        if sep:
            try:
                params[name] = float(raw)
            except ValueError:
                return None, None, f"bad tuning value in {spec!r} (need NAME=FLOAT)"
        names.append(name)
    return names, params, None


def _parse_address(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        return None, f"bad address {text!r} (need HOST:PORT)"
    return (host or "127.0.0.1", int(port)), None


def _cmd_live_monitor(args) -> int:
    import asyncio

    from repro.live.monitor import LiveMonitor, LiveMonitorServer
    from repro.qos.metrics import compute_metrics

    names, params, error = _parse_detector_specs(args.detector or ["2w-fd=0.3"])
    if error is None:
        for name in names:
            _, error = _detector_factory(name, params.get(name))
            if error:
                break
    if error:
        print(error, file=sys.stderr)
        return 2
    for knob, value in (
        ("--max-events", args.max_events),
        ("--retain-transitions", args.retain_transitions),
        ("--shards", args.shards),
        ("--trace-sample", args.trace_sample),
        ("--diag-sample", args.diag_sample),
    ):
        if value is not None and value < 1:
            print(f"{knob} must be positive, got {value}", file=sys.stderr)
            return 2
    if args.stall_threshold <= 0:
        print(f"--stall-threshold must be positive, got {args.stall_threshold}",
              file=sys.stderr)
        return 2
    if args.diag == "on" and args.obs == "off":
        print("--diag records into the observability registry; it requires "
              "--obs on", file=sys.stderr)
        return 2
    if args.status_timeout <= 0:
        print(f"--status-timeout must be positive, got {args.status_timeout}",
              file=sys.stderr)
        return 2
    if args.status_retries < 0:
        print(f"--status-retries must be non-negative, got {args.status_retries}",
              file=sys.stderr)
        return 2
    if args.ingest_mode in ("vectorized", "adaptive"):
        # Fail fast (and readably) on detector classes without a vectorized
        # kernel (every registry detector has one; this guards custom sets).
        try:
            LiveMonitor(
                args.interval, names, params, ingest_mode=args.ingest_mode
            )
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    registry = None
    if args.tenants is not None:
        from repro.fdaas.tenants import TenantRegistry

        try:
            registry = TenantRegistry.load(args.tenants)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load tenants config {args.tenants!r}: {exc}",
                  file=sys.stderr)
            return 2
        if args.obs == "off" and args.shards == 1:
            print("--tenants runs SLA enforcement against the rolling QoS "
                  "estimators; it requires --obs on", file=sys.stderr)
            return 2
    if args.shards > 1:
        return _run_sharded_monitor(args, names, params, registry)

    async def run() -> int:
        obs = None
        if args.obs == "on":
            from repro.obs import Observability

            obs = Observability(
                trace_sample_every=args.trace_sample,
                diagnostics=args.diag == "on",
                diag_sample_every=args.diag_sample,
                stall_threshold=args.stall_threshold,
            )
        monitor = LiveMonitor(
            args.interval,
            names,
            params,
            ingest_mode=args.ingest_mode,
            max_events=args.max_events,
            transition_retention=args.retain_transitions,
            obs=obs,
        )
        monitor.subscribe(
            lambda e: print(f"[{e.time:9.3f}s] {e.peer}/{e.detector}: {e.kind}")
        )
        if registry is not None:
            from repro.fdaas.service import FdaasServer

            server = FdaasServer(
                monitor,
                registry,
                args.host,
                args.port,
                tick=args.tick,
                status_port=args.status_port,
                ingest_mode=args.ingest_mode,
            )
        else:
            server = LiveMonitorServer(
                monitor,
                args.host,
                args.port,
                tick=args.tick,
                status_port=args.status_port,
                ingest_mode=args.ingest_mode,
            )
        async with server:
            host, port = server.address
            print(f"monitoring UDP {host}:{port} (Δi={args.interval}s, "
                  f"detectors: {', '.join(names)})")
            if registry is not None:
                print(f"fdaas: {len(registry)} tenant(s) registered, "
                      "admission + SLA enforcement on")
            if server.status is not None:
                print(f"status endpoint: TCP {server.status.address[0]}:"
                      f"{server.status.address[1]}")
                if obs is not None:
                    print("  (send 'metrics' for Prometheus text, 'trace' "
                          "for the heartbeat trace)")
                if obs is not None and obs.diag is not None:
                    print("  (send 'diag' for runtime diagnostics; SIGUSR1 "
                          "dumps them to stderr)")
                if registry is not None:
                    print("  (send 'events <cursor>' or 'subscribe "
                          "<cursor>' for fdaas events)")
            try:
                if args.duration is not None:
                    await asyncio.sleep(args.duration)
                else:
                    await asyncio.Event().wait()
            except (KeyboardInterrupt, asyncio.CancelledError):
                pass
            end = monitor.now()
            for peer, per_det in monitor.timelines(end).items():
                for det, timeline in per_det.items():
                    m = compute_metrics(timeline)
                    print(
                        f"{peer}/{det}: {m.n_mistakes} suspicions, "
                        f"P_A={m.query_accuracy:.6f} over {m.duration:.1f}s"
                    )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _run_sharded_monitor(args, names, params, registry=None) -> int:
    import asyncio

    from repro.live.shard import ShardedMonitor, reuseport_supported

    if not reuseport_supported():
        print(
            "SO_REUSEPORT unavailable on this platform; "
            "running a single monitor process",
            file=sys.stderr,
        )
    if registry is not None:
        # Workers rebuild their own registries from the picklable config;
        # admission runs per shard (SLA enforcement + push events are the
        # single-process FdaasServer's job).
        print(
            "fdaas: admission enforced per shard "
            f"({len(registry)} tenant(s)); SLA enforcement needs --shards 1",
            file=sys.stderr,
        )

    async def run() -> int:
        sharded = ShardedMonitor(
            args.interval,
            names,
            params,
            host=args.host,
            port=args.port,
            n_shards=args.shards,
            tick=args.tick,
            status_port=args.status_port,
            ingest_mode=args.ingest_mode,
            max_events=args.max_events,
            transition_retention=args.retain_transitions,
            obs=args.obs == "on",
            trace_sample_every=args.trace_sample,
            diagnostics=args.diag == "on",
            diag_sample_every=args.diag_sample,
            stall_threshold=args.stall_threshold,
            tenants_config=registry.to_config() if registry is not None else None,
            status_timeout=args.status_timeout,
            status_retries=args.status_retries,
        )
        async with sharded:
            host, port = sharded.address
            print(f"monitoring UDP {host}:{port} with {sharded.n_shards} "
                  f"shard worker(s) (Δi={args.interval}s, detectors: "
                  f"{', '.join(names)})")
            if sharded.status is not None:
                print(f"status endpoint: TCP {sharded.status.address[0]}:"
                      f"{sharded.status.address[1]} (merged document)")
            try:
                if args.duration is not None:
                    await asyncio.sleep(args.duration)
                else:
                    await asyncio.Event().wait()
            except (KeyboardInterrupt, asyncio.CancelledError):
                pass
            snap = await sharded.snapshot()
            load = snap.get("monitor", {})
            print(
                f"stopped: {load.get('n_peers', 0)} peer(s), "
                f"{snap.get('n_events', 0)} event(s) across "
                f"{snap.get('n_shards', '?')} shard(s)"
            )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_live_heartbeat(args) -> int:
    import asyncio
    import math

    from repro.live.chaos import ChaosSpec
    from repro.live.heartbeater import Heartbeater
    from repro.net.clock import DriftingClock
    from repro.net.delays import ConstantDelay, LogNormalDelay
    from repro.net.loss import BernoulliLoss, NoLoss

    target, error = _parse_address(args.target)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.jitter > 0 and args.delay <= 0:
        print("--jitter needs a positive --delay", file=sys.stderr)
        return 2
    auth_key = None
    if args.auth_key is not None:
        try:
            auth_key = bytes.fromhex(args.auth_key)
        except ValueError:
            print(f"--auth-key must be hex, got {args.auth_key!r}",
                  file=sys.stderr)
            return 2
    delay = (
        LogNormalDelay(log_mu=math.log(args.delay), log_sigma=args.jitter)
        if args.jitter > 0
        else ConstantDelay(args.delay)
    )
    chaos = ChaosSpec(
        loss=BernoulliLoss(args.loss) if args.loss > 0 else NoLoss(),
        delay=delay,
        clock=DriftingClock(offset=args.skew, drift=args.drift),
        crash_at=args.crash,
        seed=args.seed,
    )

    async def run() -> int:
        hb = Heartbeater(
            target,
            sender_id=args.id,
            interval=args.interval,
            count=args.count,
            chaos=chaos,
            tenant=args.tenant,
            auth_key=auth_key,
        )
        signed = " (signed)" if auth_key is not None else ""
        print(f"sending heartbeats to {target[0]}:{target[1]} every "
              f"{args.interval}s as {hb.sender_id!r}{signed}")
        sent = await hb.run()
        print(
            f"sent {sent} heartbeats ({hb.n_dropped} chaos-dropped"
            + (", crashed" if hb.crashed else "")
            + ")"
        )
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_live_status(args) -> int:
    import json
    import time

    from repro.live.delta import SnapshotReplica, delta_line

    if args.timeout <= 0:
        print(f"--timeout must be positive, got {args.timeout}", file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"--retries must be non-negative, got {args.retries}", file=sys.stderr)
        return 2
    if args.watch is not None and args.watch <= 0:
        print(f"--watch must be positive, got {args.watch}", file=sys.stderr)
        return 2
    # Under --watch, refreshes ride the delta protocol: only the peers
    # whose entries changed travel each round, and the replica rebuilds
    # the full document locally.  (--summary requests are already
    # constant-size; no replica needed.)
    replica = SnapshotReplica() if args.watch is not None and not args.summary else None
    while True:
        if replica is not None:
            line = delta_line(replica.cursor, replica.instance)
        else:
            line = "summary" if args.summary else ""
        try:
            doc = _request(args, line)
        except (ConnectionError, OSError, TimeoutError) as exc:
            return _reach_error(args, exc)
        if "error" in doc and "schema" not in doc:
            print(f"status error: {doc['error']}", file=sys.stderr)
            return 1
        if replica is not None:
            replica.apply(doc)
            doc = replica.document()
        print(json.dumps(doc, indent=2, sort_keys=True))
        if args.watch is None:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _request(args, line: str):
    """One request line to the endpoint at ``args.host``/``args.port``."""
    from repro.live.status import request

    return request(
        args.host,
        args.port,
        line,
        timeout=args.timeout,
        retries=args.retries,
    )


def _reach_error(args, exc) -> int:
    attempts = f" after {args.retries + 1} attempts" if args.retries else ""
    reason = str(exc) or type(exc).__name__
    print(
        f"cannot reach {args.host}:{args.port}{attempts}: {reason}",
        file=sys.stderr,
    )
    return 1


def _cmd_live_metrics(args) -> int:
    import time

    if args.timeout <= 0:
        print(f"--timeout must be positive, got {args.timeout}", file=sys.stderr)
        return 2
    if args.watch is not None and args.watch <= 0:
        print(f"--watch must be positive, got {args.watch}", file=sys.stderr)
        return 2
    while True:
        try:
            text = _request(args, "metrics")
        except (ConnectionError, OSError, TimeoutError) as exc:
            return _reach_error(args, exc)
        if not isinstance(text, str):
            print(
                "the endpoint serves no metrics exposition — is the monitor "
                f"running with observability on? ({text.get('error')})",
                file=sys.stderr,
            )
            return 1
        print(text, end="" if text.endswith("\n") else "\n")
        if args.watch is None:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_live_trace(args) -> int:
    import json
    import time

    if args.timeout <= 0:
        print(f"--timeout must be positive, got {args.timeout}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"--interval must be positive, got {args.interval}", file=sys.stderr)
        return 2
    if args.since < 0:
        print(f"--since must be non-negative, got {args.since}", file=sys.stderr)
        return 2
    cursor = args.since
    while True:
        try:
            doc = _request(args, f"trace {cursor}")
        except (ConnectionError, OSError, TimeoutError) as exc:
            return _reach_error(args, exc)
        if doc.get("tracing") is False or "events" not in doc:
            # An explicit "no tracer" document, or the error envelope of
            # an endpoint without a trace command.
            print(
                "the monitor is running without a tracer (observability "
                "off, or a sharded parent endpoint — per-shard trace is "
                "served on each worker's own status port)",
                file=sys.stderr,
            )
            return 1
        if doc.get("dropped"):
            print(
                f"# {doc['dropped']} event(s) aged out of the ring buffer "
                "before this fetch",
                file=sys.stderr,
            )
        for event in doc.get("events", ()):
            print(json.dumps(event, sort_keys=True))
        cursor = doc.get("cursor", cursor)
        if not args.follow:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_live_diag(args) -> int:
    import json
    import time

    if args.timeout <= 0:
        print(f"--timeout must be positive, got {args.timeout}", file=sys.stderr)
        return 2
    if args.watch is not None and args.watch <= 0:
        print(f"--watch must be positive, got {args.watch}", file=sys.stderr)
        return 2
    if args.since < 0:
        print(f"--since must be non-negative, got {args.since}", file=sys.stderr)
        return 2
    cursor = args.since
    while True:
        try:
            doc = _request(args, f"diag {cursor}")
        except (ConnectionError, OSError, TimeoutError) as exc:
            return _reach_error(args, exc)
        if not doc.get("diagnostics"):
            # An explicit diagnostics-off document, or the error envelope
            # of an endpoint without a diag command.
            print(
                "the monitor is running without runtime diagnostics "
                "(start it with --obs on --diag on)",
                file=sys.stderr,
            )
            return 1
        print(json.dumps(doc, sort_keys=True))
        recorder = doc.get("recorder", {})
        if "cursor" in recorder:
            cursor = recorder["cursor"]
        if args.watch is None:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0


def _cmd_fdaas_register(args) -> int:
    import os
    import secrets

    from repro.fdaas.tenants import SLATargets, Tenant, TenantRegistry

    if args.gen_key and args.key is not None:
        print("--gen-key and --key are mutually exclusive", file=sys.stderr)
        return 2
    key = None
    generated = False
    if args.gen_key:
        key = secrets.token_bytes(32)
        generated = True
    elif args.key is not None:
        try:
            key = bytes.fromhex(args.key)
        except ValueError:
            print(f"--key must be hex, got {args.key!r}", file=sys.stderr)
            return 2
    sla = None
    if any(v is not None for v in (args.td, args.tmr, args.tm, args.pa)):
        try:
            sla = SLATargets(t_d=args.td, t_mr=args.tmr, t_m=args.tm, p_a=args.pa)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    registry = TenantRegistry()
    if os.path.exists(args.config):
        try:
            registry = TenantRegistry.load(args.config)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load tenants config {args.config!r}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        tenant = Tenant(
            tenant_id=args.tenant,
            key=key,
            rate=args.rate,
            burst=args.burst,
            sla=sla,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    updating = args.tenant in registry
    registry.register(tenant)
    registry.save(args.config)
    action = "updated" if updating else "registered"
    auth = "authenticated" if tenant.authenticated else "unauthenticated"
    print(f"{action} tenant {tenant.tenant_id!r} ({auth}) in {args.config}")
    if generated:
        print(f"key (hex, also stored in the config): {key.hex()}")
    return 0


def _cmd_fdaas_tenants(args) -> int:
    import json

    from repro.fdaas.tenants import TenantRegistry

    try:
        registry = TenantRegistry.load(args.config)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load tenants config {args.config!r}: {exc}",
              file=sys.stderr)
        return 1
    doc = [tenant.as_dict(redact=True) for tenant in registry]
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_fdaas_sla(args) -> int:
    import json

    try:
        snap = _request(args, "summary")
    except (ConnectionError, OSError, TimeoutError) as exc:
        return _reach_error(args, exc)
    sla = snap.get("sla")
    if sla is None:
        print(
            "the endpoint served no SLA block — is the monitor running "
            "with --tenants (single process)?",
            file=sys.stderr,
        )
        return 1
    if args.tenant is not None:
        doc = sla.get("tenants", {}).get(args.tenant)
        if doc is None:
            print(f"no SLA registered for tenant {args.tenant!r}",
                  file=sys.stderr)
            return 1
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(json.dumps(sla, indent=2, sort_keys=True))
    return 0


def _cmd_fdaas_subscribe(args) -> int:
    import asyncio
    import json

    from repro.fdaas.subscribe import asubscribe_events
    from repro.live.status import arequest

    if args.since < 0:
        print(f"--since must be non-negative, got {args.since}", file=sys.stderr)
        return 2

    async def run() -> int:
        if args.once:
            doc = await arequest(
                args.host, args.port, f"events {args.since}", timeout=args.timeout
            )
            if "events" not in doc:
                print(
                    "the endpoint served no events document — is the "
                    "monitor running with --tenants (single process)?",
                    file=sys.stderr,
                )
                return 1
            if doc.get("dropped"):
                print(f"# {doc['dropped']} event(s) aged out of the ring "
                      "before this fetch", file=sys.stderr)
            for event in doc.get("events", ()):
                print(json.dumps(event, sort_keys=True))
            return 0
        async for event in asubscribe_events(
            args.host, args.port, args.since, connect_timeout=args.timeout
        ):
            print(json.dumps(event, sort_keys=True))
            sys.stdout.flush()
        return 0

    try:
        return asyncio.run(run())
    except (ConnectionError, OSError, TimeoutError) as exc:
        setattr(args, "retries", 0)
        return _reach_error(args, exc)
    except KeyboardInterrupt:
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", None) is not None:
        # Route --jobs through the environment so every pmap() call site
        # (seed sweeps, multi-curve sweeps, nested runners) picks it up.
        import os

        os.environ["REPRO_JOBS"] = str(args.jobs)
    else:
        # Fail fast on a malformed REPRO_JOBS instead of deep in a sweep.
        from repro.runtime.parallel import resolve_jobs

        try:
            resolve_jobs(None)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return _dispatch(args)
    except BrokenPipeError:  # e.g. `repro-fd cache info | head -1`
        return 0


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.scale, args.seed, args.json)
    if args.command == "trace":
        return _cmd_trace(args.scenario, args.scale, args.seed, args.output)
    if args.command == "configure":
        return _cmd_configure(args.td, args.recurrence, args.tm, args.loss, args.vd)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "detectors":
        return _cmd_detectors()
    if args.command == "live":
        if args.live_command == "monitor":
            return _cmd_live_monitor(args)
        if args.live_command == "heartbeat":
            return _cmd_live_heartbeat(args)
        if args.live_command == "status":
            return _cmd_live_status(args)
        if args.live_command == "metrics":
            return _cmd_live_metrics(args)
        if args.live_command == "trace":
            return _cmd_live_trace(args)
        if args.live_command == "diag":
            return _cmd_live_diag(args)
        raise AssertionError(f"unhandled live command {args.live_command}")
    if args.command == "fdaas":
        if args.fdaas_command == "register":
            return _cmd_fdaas_register(args)
        if args.fdaas_command == "tenants":
            return _cmd_fdaas_tenants(args)
        if args.fdaas_command == "sla":
            return _cmd_fdaas_sla(args)
        if args.fdaas_command == "subscribe":
            return _cmd_fdaas_subscribe(args)
        raise AssertionError(f"unhandled fdaas command {args.fdaas_command}")
    if args.command == "cache":
        return _cmd_cache(args.action)
    if args.command == "report":
        from pathlib import Path

        from repro.experiments.full_report import build_report

        text = build_report(scale=args.scale, seed=args.seed, jobs=args.jobs)
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path} ({len(text.splitlines())} lines)")
        return 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
