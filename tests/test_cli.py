"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig9", "--scale", "0.01"])
        assert args.experiment == "fig9"
        assert args.scale == 0.01


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "shared" in out

    def test_run_fig9(self, capsys):
        code = main(["run", "fig9", "--scale", "0.005"])
        out = capsys.readouterr().out
        assert "Mistake sets" in out
        assert code == 0  # all shape checks pass

    def test_run_unknown(self):
        with pytest.raises(KeyError):
            main(["run", "nope"])

    def test_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "wan.npz"
        assert main(["trace", "wan", "--scale", "0.001", "-o", str(out_file)]) == 0
        assert out_file.exists()
        from repro.traces import load_trace

        trace = load_trace(out_file)
        assert trace.interval == 0.1

    def test_configure_feasible(self, capsys):
        code = main(
            ["configure", "--td", "30", "--recurrence", "600", "--tm", "10",
             "--loss", "0.01", "--vd", "0.001"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Δi" in out and "Δto" in out

    def test_configure_infeasible(self, capsys):
        code = main(
            ["configure", "--td", "1", "--recurrence", "10", "--tm", "1",
             "--loss", "1.0", "--vd", "0.001"]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().err


class TestDetectors:
    def test_lists_every_registered_detector(self, capsys):
        from repro.detectors.registry import available_detectors, tuning_parameter

        assert main(["detectors"]) == 0
        out = capsys.readouterr().out
        for name in available_detectors():
            assert name in out
            knob = tuning_parameter(name)
            if knob is not None:
                assert knob in out
        assert "self-configuring" in out  # bertier / adaptive-2w-fd rows

    def test_simulate_help_points_here(self):
        parser = build_parser()
        help_text = parser.format_help()
        # The subcommand is discoverable from the top-level help.
        assert "detectors" in help_text


class TestSimulate:
    def test_basic_run(self, capsys):
        code = main(
            ["simulate", "--detector", "2w-fd", "--param", "0.3",
             "--duration", "20", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy" in out and "heartbeats sent" in out

    def test_crash_detected(self, capsys):
        code = main(
            ["simulate", "--detector", "chen", "--param", "0.3",
             "--duration", "30", "--crash", "20", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "T_D =" in out

    def test_missing_param(self, capsys):
        code = main(["simulate", "--detector", "chen", "--duration", "5"])
        assert code == 2
        assert "needs --param" in capsys.readouterr().err

    def test_bertier_needs_no_param(self, capsys):
        code = main(
            ["simulate", "--detector", "bertier", "--duration", "20", "--seed", "2"]
        )
        assert code == 0

    def test_adaptive_detector(self, capsys):
        code = main(
            ["simulate", "--detector", "adaptive-2w-fd", "--duration", "20",
             "--seed", "2"]
        )
        assert code == 0

    def test_unknown_detector_friendly_error(self, capsys):
        code = main(["simulate", "--detector", "nope", "--duration", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown detector" in err
        assert "2w-fd" in err  # the error lists what IS available

    def test_param_rejected_for_bertier(self, capsys):
        code = main(
            ["simulate", "--detector", "bertier", "--param", "0.3",
             "--duration", "5"]
        )
        assert code == 2
        assert "self-configuring" in capsys.readouterr().err

    def test_param_rejected_for_adaptive(self, capsys):
        code = main(
            ["simulate", "--detector", "adaptive-2w-fd", "--param", "0.3",
             "--duration", "5"]
        )
        assert code == 2
        assert "self-configuring" in capsys.readouterr().err

    def test_mw_fd_builds_from_registry_defaults(self, capsys):
        code = main(
            ["simulate", "--detector", "mw-fd", "--param", "0.3",
             "--duration", "20", "--seed", "1"]
        )
        assert code == 0
        assert "accuracy" in capsys.readouterr().out


class TestLiveCli:
    def test_monitor_rejects_bad_detector_spec(self, capsys):
        code = main(["live", "monitor", "--detector", "2w-fd=abc"])
        assert code == 2
        assert "NAME=FLOAT" in capsys.readouterr().err

    def test_monitor_rejects_unknown_detector(self, capsys):
        code = main(["live", "monitor", "--detector", "nope=1"])
        assert code == 2
        assert "unknown detector" in capsys.readouterr().err

    def test_monitor_rejects_missing_param(self, capsys):
        code = main(["live", "monitor", "--detector", "chen"])
        assert code == 2
        assert "needs --param" in capsys.readouterr().err

    def test_heartbeat_rejects_bad_address(self, capsys):
        code = main(["live", "heartbeat", "--target", "nowhere"])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_status_unreachable(self, capsys):
        # Port 1 on loopback: nothing listens there.
        code = main(["live", "status", "--port", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_monitor_runs_for_duration(self, capsys):
        code = main(
            ["live", "monitor", "--port", "0", "--duration", "0.2",
             "--detector", "bertier"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "monitoring UDP" in out

    def test_monitor_scale_knobs_parse(self):
        args = build_parser().parse_args(
            ["live", "monitor", "--max-events", "1000",
             "--retain-transitions", "64"]
        )
        assert args.max_events == 1000
        assert args.retain_transitions == 64

    def test_monitor_defaults_heap_unbounded(self):
        args = build_parser().parse_args(["live", "monitor"])
        assert args.max_events is None
        assert args.retain_transitions is None

    def test_monitor_help_lists_no_reference_modes(self, capsys):
        """The reference oracles (sweep polling, private estimation, full
        shard refetch) are test/bench helpers, not runtime flags."""
        with pytest.raises(SystemExit):
            main(["live", "monitor", "--help"])
        out = capsys.readouterr().out
        for flag in ("--poll-mode", "--estimation", "--status-mode"):
            assert flag not in out
        for flag in ("--poll-mode", "--estimation", "--status-mode"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["live", "monitor", flag, "x"])

    def test_monitor_rejects_nonpositive_max_events(self, capsys):
        code = main(["live", "monitor", "--max-events", "0"])
        assert code == 2
        assert "--max-events must be positive" in capsys.readouterr().err

    def test_monitor_rejects_nonpositive_retention(self, capsys):
        code = main(["live", "monitor", "--retain-transitions", "-3"])
        assert code == 2
        assert "--retain-transitions must be positive" in capsys.readouterr().err

    def test_monitor_runs_with_scale_knobs(self, capsys):
        code = main(
            ["live", "monitor", "--port", "0", "--duration", "0.2",
             "--detector", "bertier", "--max-events", "16",
             "--retain-transitions", "32"]
        )
        assert code == 0
        assert "monitoring UDP" in capsys.readouterr().out

    def test_clients_report_refused_commands(self, capsys):
        """Against a monitor without observability, ``metrics``, ``trace``
        and ``diag`` are refused with an error envelope, which each
        client reports on stderr with exit code 1."""
        import asyncio
        import json
        import threading

        from repro.live.monitor import LiveMonitor, LiveMonitorServer

        server = LiveMonitorServer(
            LiveMonitor(0.1, ["2w-fd"], {"2w-fd": 0.05}), status_port=0
        )
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
            port = str(server.status.address[1])
            for command, hint in (
                ("metrics", "observability"),
                ("trace", "without a tracer"),
                ("diag", "without runtime diagnostics"),
            ):
                assert main(["live", command, "--port", port]) == 1
                assert hint in capsys.readouterr().err
            assert main(["live", "status", "--port", port, "--summary"]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert "peers" not in summary and "monitor" in summary
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.close()

    def test_status_summary_flag_parses(self):
        args = build_parser().parse_args(
            ["live", "status", "--port", "9998", "--summary"]
        )
        assert args.summary is True


class TestJsonExport:
    def test_run_writes_json(self, tmp_path, capsys):
        code = main(["run", "fig9", "--scale", "0.004", "--json", str(tmp_path)])
        assert code == 0
        import json

        data = json.loads((tmp_path / "fig9.json").read_text())
        assert data["experiment_id"] == "fig9"
        assert data["checks"] and all(c["passed"] for c in data["checks"])
        assert "mistake_sets" in data["tables"]


class TestReport:
    def test_full_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", "-o", str(out), "--scale", "0.004"])
        assert code == 0
        text = out.read_text()
        assert "# 2W-FD reproduction report" in text
        assert "Shape checks:" in text
        # Every distinct experiment section is present.
        for exp_id in ("fig4-5", "fig6-7", "fig9", "fig10-12", "shared", "adaptive"):
            assert exp_id in text
        # Checks rendered with pass marks.
        assert "✅" in text


class TestTraceLan:
    def test_lan_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "lan.npz"
        code = main(["trace", "lan", "--scale", "0.0005", "-o", str(out_file)])
        assert code == 0
        from repro.traces import load_trace

        trace = load_trace(out_file)
        assert trace.interval == 0.02
        assert trace.loss_rate == 0.0
