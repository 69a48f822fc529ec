"""Tests for repro.cli."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])


class TestCommands:
    def test_footprint(self, capsys):
        assert main(["footprint"]) == 0
        out = capsys.readouterr().out
        assert "datacenter countries: 21" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "Cloud gaming" in out
        assert "edge feasibility zone" in out

    def test_whatif(self, capsys):
        assert main(["whatif"]) == 0
        out = capsys.readouterr().out
        assert "5g-promised" in out
        assert "ar-vr" in out

    def test_figure_1(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "eras:" in out

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "Q1" in capsys.readouterr().out

    def test_figure_8(self, capsys):
        assert main(["figure", "8"]) == 0
        assert "cloud-gaming" in capsys.readouterr().out

    def test_store_info_lists_column_encodings(self, capsys, tmp_path):
        import re

        import numpy as np

        from repro.atlas.results.ping import PingColumns
        from repro.store import StoreWriter

        rows = np.arange(100)
        writer = StoreWriter(tmp_path / "s", rows_per_shard=64)
        writer.append_batch(3, PingColumns(
            rows // 10, 1_500_000_000 + rows * 60,
            np.round(np.linspace(1, 9, 100), 3), np.linspace(1, 9, 100) / 3,
            np.full(100, 3), np.full(100, 3),
        ))
        writer.finalize()
        assert main(["store", "info", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "format: v4  bytes/sample:" in out
        assert re.search(r"rtt_min +4\.000 of 8 B/sample  milli x2", out)
        assert re.search(r"rtt_avg +8\.000 of 8 B/sample  raw x2", out)


class TestCampaignCommands:
    """Commands that run a (tiny) campaign — slower, but end-to-end."""

    def test_run(self, capsys):
        assert main(["run", "--scale", "tiny", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "wireless penalty" in out
        assert "paper=" in out

    def test_figure_5(self, capsys):
        assert main(["figure", "5", "--scale", "tiny", "--seed", "5"]) == 0
        assert "RTT (ms)" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(
            ["export", "--scale", "tiny", "--seed", "5", "--out", str(out_dir)]
        ) == 0
        assert (out_dir / "dataset.csv").exists()
        assert (out_dir / "fig5.json").exists()

    def test_validate_returns_status(self, capsys):
        # TINY misses a couple of band checks by design; the command
        # reports them and signals via the exit code.
        code = main(["validate", "--scale", "tiny", "--seed", "5"])
        out = capsys.readouterr().out
        assert "paper-shape checks passed" in out
        assert code in (0, 1)

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(
            ["report", "--scale", "tiny", "--seed", "5", "--out", str(path)]
        ) == 0
        text = path.read_text(encoding="utf-8")
        assert "# Latency Shears" in text
        assert "Figure 6" in text


class TestChaosFlags:
    def test_faults_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults", "apocalyptic"])

    def test_run_with_faults_reports_health(self, capsys):
        assert main(
            ["run", "--scale", "tiny", "--seed", "5", "--faults", "flaky"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos profile flaky" in out
        assert "retries" in out
        assert "wireless penalty" in out  # the report still renders

    def test_resume_clean_run_leaves_no_state(self, tmp_path, capsys):
        state = tmp_path / "state"
        assert main(
            ["run", "--scale", "tiny", "--seed", "5",
             "--resume", str(state)]
        ) == 0
        assert not (state / "checkpoint.json").exists()
        assert not (state / "partial.csv").exists()

    def test_corrupt_resume_state_reported_cleanly(self, tmp_path, capsys):
        state = tmp_path / "state"
        state.mkdir()
        (state / "checkpoint.json").write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scale", "tiny", "--seed", "5",
                  "--resume", str(state)])
        assert excinfo.value.code == 2
        assert "corrupt resume state" in capsys.readouterr().err

    def test_interrupt_then_resume_recovers_everything(self, tmp_path, capsys):
        """Drive the CLI's resume helper through an interruption and
        verify the resumed dataset matches a fault-free run."""
        import numpy as np

        from repro.atlas.api.retry import RetryPolicy
        from repro.atlas.api.transport import Transport
        from repro.cli import _resume_collect
        from repro.core.campaign import Campaign, CampaignScale

        baseline_campaign = Campaign.from_paper(
            scale=CampaignScale.TINY, seed=5
        )
        baseline = baseline_campaign.run()

        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=5)
        campaign.create_measurements()
        campaign.transport = Transport(
            campaign.platform,
            faults="flaky",
            retry=RetryPolicy(max_attempts=2, retry_budget=4),
        )
        state = tmp_path / "state"
        assert _resume_collect(campaign, state) is None
        assert (state / "checkpoint.json").exists()
        assert (state / "partial.csv").exists()

        # Second invocation, as a fresh process would run it.
        campaign = Campaign.from_paper(scale=CampaignScale.TINY, seed=5)
        campaign.create_measurements()
        campaign.transport = Transport(campaign.platform, faults="flaky")
        resumed = _resume_collect(campaign, state)
        assert resumed is not None
        assert not (state / "checkpoint.json").exists()
        assert resumed.num_samples == baseline.num_samples
        key = lambda ds: sorted(
            zip(ds.column("probe_id"), ds.column("timestamp"),
                ds.column("target_index"))
        )
        assert key(resumed) == key(baseline)
        assert np.array_equal(
            np.sort(resumed.column("rtt_min")),
            np.sort(baseline.column("rtt_min")),
            equal_nan=True,
        )


class TestObservabilityFlags:
    def test_log_level_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--log-level", "chatty"])

    def test_common_flags_parse_on_every_subcommand(self):
        parser = build_parser()
        for command in (["run"], ["report"], ["obs", "report"]):
            args = parser.parse_args(
                command + ["--log-level", "debug", "--json-logs"]
            )
            assert args.log_level == "debug"
            assert args.json_logs is True

    def test_collect_alias(self, capsys):
        assert main(["collect", "--scale", "tiny", "--seed", "5"]) == 0
        assert "wireless penalty" in capsys.readouterr().out

    def test_metrics_out_writes_snapshot_and_prometheus(self, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main(
            ["run", "--scale", "tiny", "--seed", "5",
             "--metrics-out", str(out)]
        ) == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["campaign_measurements_collected_total"] > 0
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE campaign_measurements_collected_total counter" in prom

    def test_report_health_emits_json(self, capsys):
        import json

        assert main(
            ["report", "--scale", "tiny", "--seed", "5", "--health"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"collection", "fleet", "metrics"}
        assert report["fleet"]["delivery_rate"] == pytest.approx(1.0)

    def test_obs_report_with_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["obs", "report", "--scale", "tiny", "--seed", "5",
             "--faults", "flaky", "--trace-out", str(trace)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        counters = report["metrics"]["counters"]
        fault_keys = [k for k in counters if k.startswith("faults_injected_total")]
        assert fault_keys, "chaos run must record injected faults"
        lines = trace.read_text().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert {"campaign.collect", "campaign.fetch"} <= names

    def test_json_logs_shape_warnings(self, tmp_path, capsys):
        # A clean tiny run emits no warnings; the flag must still be
        # accepted and leave stdout parseable for --health consumers.
        import json

        assert main(
            ["report", "--scale", "tiny", "--seed", "5", "--health",
             "--log-level", "info", "--json-logs"]
        ) == 0
        assert "collection" in json.loads(capsys.readouterr().out)
