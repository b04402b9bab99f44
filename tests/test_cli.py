"""Smoke tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.cli.results import SCHEMA_VERSION


class TestCli:
    def test_info(self, capsys):
        assert main(["--seed", "3", "info"]) == 0
        out = capsys.readouterr().out
        assert "relays:" in out
        assert "tor prefixes:" in out

    def test_attack(self, capsys):
        assert main(["attack", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "surveillance coverage" in out
        assert "interception" in out

    def test_transfer(self, capsys):
        assert main(["transfer", "--size", "500000"]) == 0
        out = capsys.readouterr().out
        assert "correlations" in out
        assert "guard to client" in out

    def test_transfer_plot(self, capsys):
        assert main(["transfer", "--size", "500000", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2 (right)" in out
        assert "series:" in out

    def test_rov(self, capsys):
        assert main(["rov"]) == 0
        out = capsys.readouterr().out
        assert "ROV adoption" in out
        assert "forged origin" in out

    def test_users(self, capsys):
        assert main(["users", "--clients", "3", "--days", "4"]) == 0
        out = capsys.readouterr().out
        assert "users compromised" in out
        assert "median time to first compromise" in out

    def test_population(self, capsys):
        assert main([
            "population", "--users", "200", "--client-ases", "8",
            "--days", "5", "--circuits-per-day", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "200 users over 8 client ASes" in out
        assert "user-days/sec" in out
        assert "time to compromise" in out

    def test_population_json(self, capsys):
        assert main([
            "population", "--users", "150", "--days", "4", "--skew",
            "uniform", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "population"
        result = doc["result"]
        assert result["users"] == 150
        assert "backend" not in result
        assert result["skew"] == "uniform"
        assert len(result["fraction_compromised_by_day"]) == 4
        assert result["user_days_per_sec"] > 0
        assert {"q", "rate"} == set(result["compromise_rate_percentiles"][0])

    def test_resilience(self, capsys):
        assert main(["resilience", "--attackers", "10", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "resilience" in out
        assert "alpha" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["--scale", "huge", "info"])


class TestJsonOutput:
    def test_info_json_schema(self, capsys):
        assert main(["--seed", "3", "info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "info"
        assert doc["seed"] == 3  # top-level flag survives the subparser
        assert doc["scale"] == "small"
        result = doc["result"]
        assert result["ases"]["total"] > 0
        assert result["relays"]["total"] > 0
        assert set(result["weights"]) == {"Wgg", "Wgd", "Wee", "Wed"}

    def test_trace_json_schema_and_obs_out(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["trace", "--obs-out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "trace"
        result = doc["result"]
        assert result["sessions"] > 0
        assert result["records_after_reset_removal"] > 0
        assert 0.0 <= result["path_change_ratio"]["p_greater_1"] <= 1.0
        assert result["path_change_ratio"]["ccdf"]  # plottable points ride along

        records = [json.loads(line) for line in out.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["cli.trace"]
        root = roots[0]
        children = {s["name"] for s in spans if s["parent"] == root["id"]}
        assert {"scenario.build", "trace.run", "trace.analysis"} <= children
        # every span nests inside its parent's window
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            parent = by_id.get(s["parent"])
            if parent is not None:
                assert parent["start"] <= s["start"] + 1e-6
                assert (
                    s["start"] + s["duration"]
                    <= parent["start"] + parent["duration"] + 1e-6
                )
        assert records[-1]["type"] == "manifest"
        assert [r for r in records if r["type"] == "metrics"]

        manifest = json.loads((tmp_path / "run.jsonl.manifest.json").read_text())
        assert manifest["command"] == "trace"
        assert manifest["params"]["seed"] == 0
        assert manifest["wall_seconds"] > 0

    def test_trace_stream_json_schema(self, capsys):
        assert main(
            ["trace", "--stream", "--days", "2", "--rfd-vendor", "cisco", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "trace-stream"
        result = doc["result"]
        assert result["duration_days"] == 2.0
        assert result["rfd_vendor"] == "cisco"
        assert result["replay"]["windows"] == 2
        assert result["replay"]["records"] > 0
        assert result["replay"]["peak_window_events"] > 0
        assert result["rfd"]["suppressed_records"] >= 0
        assert result["exposure"]["final_exposed_ases"] > 0
        assert len(result["exposure"]["curve"]) == 2

    def test_trace_stream_human_render(self, capsys):
        assert main(["trace", "--stream", "--days", "2"]) == 0
        out = capsys.readouterr().out
        assert "streamed 2 days" in out
        assert "RFD: off" in out
        assert "exposed ASes" in out

    def test_trace_stream_checkpoint_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "trace.ckpt")
        assert main(
            ["trace", "--stream", "--days", "2", "--checkpoint", ckpt, "--json"]
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(
            [
                "trace",
                "--stream",
                "--days",
                "2",
                "--checkpoint",
                ckpt,
                "--resume",
                "--json",
            ]
        ) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["result"]["replay"]["resumed_windows"] == 2
        assert (
            second["result"]["exposure"]["curve"]
            == first["result"]["exposure"]["curve"]
        )

    def test_transfer_json(self, capsys):
        assert main(["transfer", "--size", "500000", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "transfer"
        assert doc["result"]["bytes_delivered"] == 500000
        assert doc["result"]["correlations"]

    def test_resilience_json(self, capsys):
        assert main(["resilience", "--attackers", "10", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "resilience"
        result = doc["result"]
        assert 0.0 <= result["resilience"]["mean"] <= 1.0
        assert result["top_guards"]
        assert result["selection_tradeoff"]


class TestRunnerFlags:
    def test_checkpoint_then_resume_identical(self, tmp_path, capsys):
        ckpt = str(tmp_path / "resilience.ckpt")
        args = ["resilience", "--attackers", "10", "--checkpoint", ckpt, "--json"]
        assert main(args + ["--jobs", "2"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args + ["--resume"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["result"] == second["result"]

        from repro.persist import read_checkpoint

        header, records = read_checkpoint(ckpt)
        assert header["experiment"] == "resilience"
        assert len(records) == header["total_trials"]

    def test_jobs_match_serial(self, capsys):
        assert main(["resilience", "--attackers", "10", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["resilience", "--attackers", "10", "--jobs", "2", "--json"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert serial["result"] == sharded["result"]


class TestObsFlags:
    def test_obs_summary_prints_table(self, capsys):
        assert main(["info", "--obs-summary"]) == 0
        err = capsys.readouterr().err
        assert "obs summary" in err
        assert "scenario.build" in err
        assert "engine.queries" in err

    def test_engine_stats_alias_removed(self, capsys):
        # The deprecated --obs-summary alias is gone; argparse rejects it.
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "--engine-stats"])
        assert excinfo.value.code == 2
        assert "--engine-stats" in capsys.readouterr().err

    def test_global_flags_accepted_before_subcommand(self, capsys):
        assert main(["--json", "--seed", "7", "info"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7
