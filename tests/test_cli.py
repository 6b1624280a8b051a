"""Tests for the command-line interface and the ASCII chart renderer."""

import json

import pytest

from repro.cli import build_parser, main
from repro.metrics import ascii_chart


class TestParser:
    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.seed == 0
        assert args.servers == 2
        assert not args.sync_wal

    def test_workload_mix_choices(self):
        args = build_parser().parse_args(["workload", "--mix", "A"])
        assert args.mix == "A"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--mix", "Z"])

    def test_failover_args(self):
        args = build_parser().parse_args(
            ["failover", "--crash-at", "10", "--tps", "100"]
        )
        assert args.crash_at == 10.0
        assert args.tps == 100.0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_chaos_args(self):
        args = build_parser().parse_args(["chaos", "--seeds", "4"])
        assert args.seeds == 4 and args.seed is None and not args.trace
        args = build_parser().parse_args(["chaos", "--seed", "9", "--trace"])
        assert args.seed == 9 and args.trace


class TestCommands:
    def test_demo_reports_no_loss(self, capsys):
        rc = main(["demo", "--rows", "2000", "--regions", "4", "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "NO DATA LOST" in out

    def test_workload_summary_printed(self, capsys):
        rc = main([
            "workload", "--rows", "2000", "--regions", "4", "--clients", "5",
            "--duration", "3", "--tps", "40", "--warmup", "0", "--seed", "6",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "workload summary" in out
        assert "committed" in out

    def test_failover_prints_charts(self, capsys):
        rc = main([
            "failover", "--rows", "3000", "--regions", "4", "--clients", "8",
            "--duration", "20", "--crash-at", "6", "--tps", "40", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "throughput (tps)" in out
        assert "response time (ms)" in out
        assert "fragments replayed" in out

    def test_chaos_single_seed_reports_ok(self, capsys):
        rc = main(["chaos", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed    2: OK" in out
        assert "all seeds upheld the guarantee" in out

    def test_chaos_json_report_creates_its_directory(self, tmp_path, capsys):
        # The report is written after the last seed: a missing directory
        # must not cost the whole sweep.
        path = tmp_path / "no" / "such-dir" / "report.json"
        rc = main(["chaos", "--seed", "3", "--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert report["seeds"] == [3] and report["failed_seeds"] == []
        assert f"wrote report JSON to {path}" in capsys.readouterr().out

    def test_chaos_flags_compose_into_one_settings(self, monkeypatch, capsys):
        from repro.sim import chaos

        seen = []

        def fake_run(seed, settings=None, **_kw):
            seen.append(settings)
            return chaos.ChaosReport(seed=seed, converged=True, acknowledged=1)

        monkeypatch.setattr(chaos, "run_chaos", fake_run)
        S = chaos.ChaosSettings
        for argv, expected in [
            ([], S()),
            (["--disk-faults", "--kill-during-recovery"],
             S(disk_faults=True, kill_during_recovery=True)),
            (["--tm-shards", "3"], S(tm_shards=3)),
            # --isolation ssi means a sharded TM in every combination...
            (["--isolation", "ssi"], S(tm_shards=2, isolation="ssi")),
            (["--isolation", "ssi", "--disk-faults"],
             S(disk_faults=True, tm_shards=2, isolation="ssi")),
            # ...unless --tm-shards N > 1 says otherwise.
            (["--isolation", "ssi", "--tm-shards", "4"],
             S(tm_shards=4, isolation="ssi")),
        ]:
            assert main(["chaos", "--seed", "1"] + argv) == 0
            assert seen.pop() == expected, argv


class TestAsciiChart:
    def test_renders_points(self):
        chart = ascii_chart([(0, 1.0), (1, 5.0), (2, 3.0)], height=5, width=20)
        assert "*" in chart
        assert "5.0" in chart and "1.0" in chart

    def test_handles_gaps(self):
        chart = ascii_chart([(0, 1.0), (1, None), (2, 2.0)], height=4, width=10)
        assert "*" in chart

    def test_empty_series(self):
        assert ascii_chart([]) == "(no data)"
        assert ascii_chart([(0, None)]) == "(no data)"

    def test_flat_series_does_not_divide_by_zero(self):
        chart = ascii_chart([(0, 2.0), (1, 2.0)], height=3, width=8)
        assert "*" in chart

    def test_title_and_label(self):
        chart = ascii_chart([(0, 1.0)], title="T", y_label="x-axis")
        assert chart.splitlines()[0] == "T"
        assert "x-axis" in chart
