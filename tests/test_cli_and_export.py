"""CLI entry point and result export helpers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.export import export_csv, export_json, load_json
from repro.cli import EXPERIMENTS, main


class TestExport:
    def test_export_and_load_json_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": [1, 2]}, {"a": 2.5, "b": {"x": 1}}]
        path = export_json(rows, tmp_path / "out" / "rows.json")
        assert path.exists()
        assert load_json(path) == [{"a": 1, "b": [1, 2]}, {"a": 2.5, "b": {"x": 1}}]

    def test_export_json_handles_result_mappings(self, tmp_path):
        result = {"rows": [{"a": 1}], "summary": (1, 2)}
        path = export_json(result, tmp_path / "result.json")
        loaded = load_json(path)
        assert loaded["rows"] == [{"a": 1}]
        assert loaded["summary"] == [1, 2]

    def test_export_csv_union_of_columns(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "c": [4, 5]}]
        path = export_csv(rows, tmp_path / "rows.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["a", "b", "c"]
        assert len(lines) == 3
        assert json.loads(lines[2].split(",", 2)[2].replace('""', '"').strip('"')) == [4, 5]


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table2" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "malicious_filtering" in out and "P2" in out

    def test_run_small_experiment_and_export(self, tmp_path, capsys):
        out_file = tmp_path / "fig19.json"
        assert main(["run", "fig19", "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "Model memory footprints" in printed
        assert out_file.exists()
        assert load_json(out_file)["num_models"] == 23

    def test_run_with_rounds_override(self, capsys):
        assert main(["run", "fig12", "--rounds", "6"]) == 0
        out = capsys.readouterr().out
        assert "Scalability" in out

    def test_run_csv_export(self, tmp_path, capsys):
        out_file = tmp_path / "sec55.csv"
        assert main(["run", "sec55", "--out", str(out_file)]) == 0
        assert out_file.exists()
        assert "concurrent_requests" in out_file.read_text()

    def test_run_scenario_sweep_accepts_seed_and_workers(self, tmp_path, capsys):
        out_file = tmp_path / "load.json"
        assert (
            main(
                [
                    "run-scenario",
                    "--name", "engine-baseline",
                    "--set", "num_rounds=5",
                    "--set", "workload.num_requests=12",
                    "--set", "seed=9",
                    "--workers", "1",
                    "--sweep", "arrival.kind=poisson",
                    "--sweep", "arrival.utilization=1.0",
                    "--out", str(out_file),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "Scenario sweep: engine-baseline" in printed
        result = load_json(out_file)
        assert result["spec"]["seed"] == 9
        assert len(result["rows"]) == 1
        assert "shed_rate" in result["rows"][0] and "violation_rate" in result["rows"][0]

    def test_run_scenario_shard_sweep_with_degrade(self, tmp_path, capsys):
        out_file = tmp_path / "shards.json"
        assert (
            main(
                [
                    "run-scenario",
                    "--name", "sharded-burst",
                    "--set", "num_rounds=5",
                    "--set", "workload.num_requests=12",
                    "--set", "arrival.utilization=2.0",
                    "--set", "tier.admission.max_queue_depth=3",
                    "--set", "tier.admission.shed_policy=degrade-to-objstore",
                    "--sweep", "tier.shards=1,2",
                    "--out", str(out_file),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "Scenario sweep: sharded-burst" in printed
        result = load_json(out_file)
        assert result["spec"]["tier"]["admission"]["shed_policy"] == "degrade-to-objstore"
        rows = result["rows"]
        assert [row["tier.shards"] for row in rows] == [1, 2]
        assert [row["shards"] for row in rows] == [1, 2]
        for row in rows:
            assert row["conserved"] is True
            assert row["served"] + row["shed"] + row["degraded"] == 12

    def test_run_scenario_sweep_prints_columns_only_later_rows_have(self, capsys):
        # Controller-off runs carry no remediation columns; the table must
        # still show them for the controller-on row that follows.
        assert (
            main(
                [
                    "run-scenario",
                    "--name", "fault-recovery",
                    "--smoke",
                    "--sweep", "remediation.enabled=false,true",
                ]
            )
            == 0
        )
        header = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("scenario ")
        )
        assert "remediation.enabled" in header
        assert "actions_taken" in header and "shadow_accepts" in header

    def test_run_scenario_list(self, capsys):
        assert main(["run-scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "engine-baseline" in out and "autoscale-diurnal" in out

    def test_run_scenario_by_name_with_overrides(self, tmp_path, capsys):
        out_file = tmp_path / "scenario.json"
        assert (
            main(
                [
                    "run-scenario",
                    "--name", "engine-baseline",
                    "--smoke",
                    "--set", "arrival.utilization=0.5",
                    "--set", "seed=9",
                    "--out", str(out_file),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "Scenario: engine-baseline" in printed
        result = load_json(out_file)
        assert result["spec"]["arrival"]["utilization"] == 0.5
        assert result["spec"]["seed"] == 9
        (row,) = result["rows"]
        assert row["conserved"] is True
        # --smoke caps the trace at 12 requests; all accounted for.
        assert row["served"] + row["shed"] + row["degraded"] == 12
        assert result["mean_service_seconds"] > 0

    def test_run_scenario_from_file_with_sweep_axes(self, tmp_path, capsys):
        from repro.scenario import get_scenario, smoke_spec

        spec_file = smoke_spec(get_scenario("sharded-burst")).save(tmp_path / "spec.json")
        out_file = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "run-scenario",
                    "--spec", str(spec_file),
                    "--sweep", "tier.router_kind=consistent-hash,jsq",
                    "--out", str(out_file),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "Scenario sweep" in printed
        rows = load_json(out_file)["rows"]
        assert [row["router"] for row in rows] == ["consistent-hash", "jsq"]
        assert all(row["conserved"] for row in rows)

    def test_run_scenario_rejects_bad_input(self, capsys):
        # Exactly one of --spec/--name.
        assert main(["run-scenario"]) == 2
        assert main(["run-scenario", "--name", "no-such-scenario"]) == 2
        assert main(["run-scenario", "--name", "engine-baseline", "--set", "tier.bogus=1"]) == 2
        assert main(["run-scenario", "--name", "engine-baseline", "--set", "nonsense"]) == 2
        # Sweep-axis errors exit cleanly too: unknown field, bad value, and
        # a grid point that fails cross-field validation.
        assert main(["run-scenario", "--name", "engine-baseline", "--sweep", "tier.bogus=1,2"]) == 2
        assert (
            main(["run-scenario", "--name", "engine-baseline", "--sweep", "arrival.kind=poisson,bogus"])
            == 2
        )
        assert main(["run-scenario", "--name", "engine-baseline", "--sweep", "tier.shards=2,4"]) == 2
        # Streaming metrics keep no rows to score a faulted run's recovery from.
        streaming = ["--set", "metrics=streaming"]
        assert main(["run-scenario", "--name", "fault-recovery", "--smoke", *streaming]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_every_registered_experiment_has_description(self):
        for name, (runner, description) in EXPERIMENTS.items():
            assert callable(runner)
            assert description
