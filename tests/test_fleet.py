"""The evaluation fleet: content hash, run manifest, incremental runner, report.

Covers the PR's acceptance criteria directly: ``run-missing`` twice back to
back executes zero cells the second time with a byte-identical report, and
editing one registered spec marks exactly that scenario's cells stale.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import (
    ArtifactStore,
    FleetError,
    FleetExperiment,
    RunManifest,
    code_fingerprint,
    collect_rows,
    default_fleet,
    fix_command,
    generate_report,
    load_fleet,
    plan,
    plan_cells,
    run_missing,
)
from repro.cli import main
from repro.scenario import (
    ScenarioSpec,
    apply_overrides,
    get_scenario,
    list_scenarios,
    register_scenario,
    smoke_spec,
    sweep,
)


def tiny_fleet(*scenarios: str) -> list[FleetExperiment]:
    """A one-experiment fleet over explicit scenarios (smoke cells run in ms)."""
    return [
        FleetExperiment(
            name="exp",
            title="Tiny fleet",
            scenarios=scenarios or ("engine-baseline",),
        )
    ]


def _reorder(value):
    """Recursively rebuild dicts with reversed key insertion order."""
    if isinstance(value, dict):
        return {key: _reorder(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reorder(item) for item in value]
    return value


#: Every registered scenario's content hash.  The fleet reuses recorded
#: artifacts by these hashes across code versions, so a refactor of the
#: spec's dict form must leave them where they are.
REGISTERED_SPEC_HASHES = {
    "autoscale-diurnal": "2a960f3daf8a9717fefa134c5961b2f1d52b565872c8ff45201cf459d4091961",
    "engine-baseline": "db466f39c1bcd8508105ff1c7eda2b128edded9fb2fda14c524ab1b344507d22",
    "fault-recovery": "21e1760ef062ea2a78a913815cae6d4aa81d1fd7db307c146dfa22985aa12f2a",
    "hotkey-replicated": "d06c13b3255de95c9f950912e2d2e492429b474dd32db100eee3edd2357a4856",
    "jsq-hotkey": "e9c2e2d9d9471a9d2b3f34c60efee03bd4c7fb93649fc98a1b25ec5803e69509",
    "million-request": "54369661e25ef3f08b1ae2d90340cf6a809ed110ec4d0eafbc0653794b55631f",
    "noisy-neighbor": "ca486f8580cc7515a1cd1b1298c85b408490efd3bd59a688c7dc6c95633cdaf2",
    "priority-overload": "d8a85dfcc4e79d1d39fbd6824b75ac48f5131b137740e8a9dd4886a7bfed638c",
    "sharded-burst": "093c781955e1bdac46ad1fbbf3ef069143e39acc87d152f049c4b7c873d0ba08",
}


class TestContentHash:
    def test_registered_hashes_are_pinned(self):
        hashes = {name: get_scenario(name).content_hash() for name in list_scenarios()}
        assert hashes == REGISTERED_SPEC_HASHES

    def test_stable_across_dict_key_order(self):
        spec = get_scenario("sharded-burst")
        shuffled = ScenarioSpec.from_dict(_reorder(spec.to_dict()))
        assert shuffled.content_hash() == spec.content_hash()

    def test_stable_across_toml_and_json_round_trips(self, tmp_path):
        spec = get_scenario("autoscale-diurnal")
        json_path = tmp_path / "spec.json"
        toml_path = tmp_path / "spec.toml"
        json_path.write_text(spec.to_json())
        toml_path.write_text(spec.to_toml())
        assert ScenarioSpec.load(json_path).content_hash() == spec.content_hash()
        assert ScenarioSpec.load(toml_path).content_hash() == spec.content_hash()

    def test_noop_override_preserves_hash(self):
        spec = get_scenario("sharded-burst")
        same = apply_overrides(
            spec,
            {
                "tier.shards": str(spec.tier.shards),
                "arrival.kind": spec.arrival.kind,
                "seed": str(spec.seed),
            },
        )
        assert same.content_hash() == spec.content_hash()

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": "8"},
            {"tier.shards": "8"},
            {"arrival.utilization": "1.5"},
            {"workload.num_requests": "99"},
            {"tier.queue_discipline": "wfq"},
        ],
    )
    def test_semantic_knob_changes_hash(self, override):
        spec = get_scenario("sharded-burst")
        assert apply_overrides(spec, override).content_hash() != spec.content_hash()

    def test_distinct_scenarios_have_distinct_hashes(self):
        hashes = {get_scenario(name).content_hash() for name in list_scenarios()}
        assert len(hashes) == len(list_scenarios())


class TestManifest:
    def test_empty_store_loads_and_round_trips(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.manifest.cells == {}
        store.manifest.save()
        assert RunManifest.load(tmp_path).cells == {}

    def test_corrupt_manifest_raises_fleet_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(FleetError, match="corrupt"):
            RunManifest.load(tmp_path)
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(FleetError, match="expected a JSON object"):
            RunManifest.load(tmp_path)

    def test_unchanged_resave_is_byte_identical_and_leaves_no_temp_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_cell(
            "exp/s#full",
            experiment="exp",
            scenario="s",
            axes={},
            variant="full",
            spec_hash="abc",
            seed=7,
            artifact_relpath="exp/s.json",
            report_json="{}",
        )
        first = (tmp_path / "manifest.json").read_bytes()
        store.manifest.save()
        assert (tmp_path / "manifest.json").read_bytes() == first
        assert not list(tmp_path.rglob("*.tmp"))

    def test_load_cell_json_errors_are_loud(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(FleetError, match="no recorded artifact"):
            store.load_cell_json("exp/s#full")
        entry = store.record_cell(
            "exp/s#full",
            experiment="exp",
            scenario="s",
            axes={},
            variant="full",
            spec_hash="abc",
            seed=7,
            artifact_relpath="exp/s.json",
            report_json='{"ok": true}',
        )
        assert store.load_cell_json("exp/s#full") == '{"ok": true}'
        store.manifest.artifact_path(entry).unlink()
        with pytest.raises(FleetError, match="missing"):
            store.load_cell_json("exp/s#full")

    def test_entry_round_trips_and_ignores_unknown_keys(self, tmp_path):
        store = ArtifactStore(tmp_path)
        entry = store.record_cell(
            "exp/s#full",
            experiment="exp",
            scenario="s",
            axes={"tier.shards": 2},
            variant="full",
            spec_hash="abc",
            seed=7,
            artifact_relpath="exp/s.json",
            report_json="{}",
        )
        data = entry.to_dict()
        assert list(data) == [
            "experiment",
            "scenario",
            "axes",
            "variant",
            "spec_hash",
            "seed",
            "fingerprint",
            "artifact",
        ]
        assert type(entry).from_dict({**data, "a_future_field": 1}) == entry

    def test_manifest_with_a_legacy_sweeps_key_still_loads(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_cell(
            "exp/s#full",
            experiment="exp",
            scenario="s",
            axes={"tier.shards": 2},
            variant="full",
            spec_hash="abc",
            seed=7,
            artifact_relpath="exp/s.json",
            report_json='{"ok": true}',
        )
        path = tmp_path / "manifest.json"
        payload = json.loads(path.read_text())
        payload["sweeps"] = {
            "old-sweep@0123456789ab": {
                "command": "old-sweep",
                "params_hash": "0" * 64,
                "fingerprint": "0" * 64,
                "artifact": "sweeps/old-sweep-0123456789ab.json",
            }
        }
        path.write_text(json.dumps(payload))
        manifest = RunManifest.load(tmp_path)
        assert manifest.cells == store.manifest.cells
        assert manifest.cells["exp/s#full"].axes == {"tier.shards": 2}
        assert ArtifactStore(tmp_path).load_cell_json("exp/s#full") == '{"ok": true}'


class TestPlanning:
    def test_default_fleet_covers_registry_and_standing_sweeps(self):
        experiments = default_fleet()
        names = [experiment.name for experiment in experiments]
        assert names[0] == "scenarios"
        cells = plan_cells(experiments, smoke=True)
        headline = [cell for cell in cells if cell.experiment == "scenarios"]
        assert {cell.scenario for cell in headline} == set(list_scenarios())
        assert all(cell.variant == "smoke" for cell in cells)

    def test_plan_is_deterministic_and_smoke_variant_is_separate(self):
        fleet = tiny_fleet()
        smoke_ids = [cell.cell_id for cell in plan_cells(fleet, smoke=True)]
        assert smoke_ids == [cell.cell_id for cell in plan_cells(fleet, smoke=True)]
        full_ids = [cell.cell_id for cell in plan_cells(fleet, smoke=False)]
        assert set(smoke_ids).isdisjoint(full_ids)

    def test_axes_produce_grid_cells_with_stable_artifact_paths(self):
        fleet = [
            FleetExperiment(
                name="grid",
                title="grid",
                scenarios=("sharded-burst",),
                axes=(("tier.shards", (1, 2)),),
            )
        ]
        cells = plan_cells(fleet, smoke=True)
        assert [cell.axes for cell in cells] == [{"tier.shards": 1}, {"tier.shards": 2}]
        assert len({cell.artifact_relpath for cell in cells}) == 2
        for cell in cells:
            assert cell.spec.tier.shards == cell.axes["tier.shards"]

    def test_load_fleet_validates_shape(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps(
                {
                    "experiments": [
                        {"name": "a", "scenarios": ["engine-baseline"]},
                        {"name": "b", "axes": {"tier.shards": [1, 2]}},
                    ]
                }
            )
        )
        experiments = load_fleet(path)
        assert [e.name for e in experiments] == ["a", "b"]
        assert experiments[1].scenarios is None
        assert experiments[1].axes == (("tier.shards", (1, 2)),)
        for bad in (
            {},
            {"experiments": []},
            {"experiments": [{"title": "no name"}]},
            {"experiments": [{"name": "a"}, {"name": "a"}]},
            {"experiments": [{"name": "a", "bogus": 1}]},
        ):
            path.write_text(json.dumps(bad))
            with pytest.raises(FleetError):
                load_fleet(path)
        with pytest.raises(FleetError, match="does not exist"):
            load_fleet(tmp_path / "nope.json")


class TestIncrementalRunner:
    def test_second_run_executes_zero_cells_and_report_is_byte_identical(self, tmp_path):
        fleet = tiny_fleet("engine-baseline", "priority-overload")
        store = ArtifactStore(tmp_path / "artifacts")
        first = run_missing(fleet, store, smoke=True)
        assert (first["planned"], first["ran"], first["reused"]) == (2, 2, 0)
        generate_report(fleet, store, tmp_path / "report", smoke=True)
        report_bytes = (tmp_path / "report" / "report.md").read_bytes()
        csv_bytes = (tmp_path / "report" / "csv" / "exp.csv").read_bytes()

        # A fresh store (fresh process, same artifacts dir) must reuse everything.
        second_store = ArtifactStore(tmp_path / "artifacts")
        second = run_missing(fleet, second_store, smoke=True)
        assert (second["planned"], second["ran"], second["reused"]) == (2, 0, 2)
        generate_report(fleet, second_store, tmp_path / "report", smoke=True)
        assert (tmp_path / "report" / "report.md").read_bytes() == report_bytes
        assert (tmp_path / "report" / "csv" / "exp.csv").read_bytes() == csv_bytes

    def test_dry_run_writes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        summary = run_missing(tiny_fleet(), store, smoke=True, dry_run=True)
        assert summary["ran"] == 0
        assert summary["cells"][0]["action"] == "would-run"
        assert not (tmp_path / "manifest.json").exists()

    def test_editing_one_registered_spec_stales_exactly_that_scenarios_cells(self, tmp_path):
        fleet = tiny_fleet("engine-baseline", "priority-overload")
        store = ArtifactStore(tmp_path)
        run_missing(fleet, store, smoke=True)
        original = get_scenario("engine-baseline")
        try:
            register_scenario(
                apply_overrides(original, {"seed": str(original.seed + 1)}),
                replace_existing=True,
            )
            statuses = {cell.scenario: cell.status for cell in plan(fleet, store, smoke=True)}
            assert statuses == {
                "engine-baseline": "stale-spec",
                "priority-overload": "fresh",
            }
            summary = run_missing(fleet, store, smoke=True)
            assert (summary["ran"], summary["reused"], summary["stale"]) == (1, 1, 1)
        finally:
            register_scenario(original, replace_existing=True)
        # Restoring the original spec restores freshness: the artifact path is
        # stable per cell id, so the stale re-run overwrote in place and the
        # original's recorded entry is simply stale again.
        assert {cell.status for cell in plan(fleet, store, smoke=True)} == {
            "fresh",
            "stale-spec",
        }

    def test_code_fingerprint_mismatch_marks_cells_stale_code(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_missing(tiny_fleet(), store, smoke=True)
        for entry in store.manifest.cells.values():
            entry.fingerprint = "0" * 64
        store.manifest.save()
        reopened = ArtifactStore(tmp_path)
        cells = plan(tiny_fleet(), reopened, smoke=True)
        assert [cell.status for cell in cells] == ["stale-code"]
        summary = run_missing(tiny_fleet(), reopened, smoke=True)
        assert summary["ran"] == 1
        entries = reopened.manifest.cells.values()
        assert all(entry.fingerprint == code_fingerprint() for entry in entries)

    def test_deleted_artifact_counts_as_missing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_missing(tiny_fleet(), store, smoke=True)
        for entry in store.manifest.cells.values():
            store.manifest.artifact_path(entry).unlink()
        cells = plan(tiny_fleet(), store, smoke=True)
        assert [cell.status for cell in cells] == ["missing"]


class TestReport:
    def test_report_fails_loudly_with_fix_command_until_cells_exist(self, tmp_path):
        fleet = tiny_fleet()
        store = ArtifactStore(tmp_path / "artifacts")
        with pytest.raises(FleetError) as excinfo:
            generate_report(fleet, store, tmp_path / "report", smoke=True)
        message = str(excinfo.value)
        assert "exp/engine-baseline#smoke [missing]" in message
        assert fix_command(store.root, smoke=True) in message
        assert not (tmp_path / "report" / "report.md").exists()
        run_missing(fleet, store, smoke=True)
        result = generate_report(fleet, store, tmp_path / "report", smoke=True)
        assert result["cells"] == 1
        report_text = (tmp_path / "report" / "report.md").read_text()
        assert "engine-baseline" in report_text
        assert "no scenario was re-run" in report_text

    def test_report_rows_come_from_artifacts_not_reruns(self, tmp_path):
        fleet = tiny_fleet()
        store = ArtifactStore(tmp_path / "artifacts")
        run_missing(fleet, store, smoke=True)
        # Doctor the stored artifact; the report must reflect the doctored
        # value, proving it never re-ran the scenario.
        (cell,) = plan(fleet, store, smoke=True)
        entry = store.manifest.cells[cell.cell_id]
        payload = json.loads(store.load_cell_json(cell.cell_id))
        payload["load"]["served"] = 424242
        store.manifest.artifact_path(entry).write_text(json.dumps(payload))
        generate_report(fleet, store, tmp_path / "report", smoke=True)
        assert "424242" in (tmp_path / "report" / "report.md").read_text()

    def test_stored_rows_match_a_live_sweep_of_the_same_grid(self, tmp_path):
        """One projection: a recorded cell reads exactly like the live
        ``sweep()`` row of the same grid point — same columns, same order."""
        axes = {"tier.shards": (1, 2)}
        fleet = [
            FleetExperiment(
                name="grid",
                title="grid",
                scenarios=("sharded-burst",),
                axes=tuple(axes.items()),
            )
        ]
        store = ArtifactStore(tmp_path)
        run_missing(fleet, store, smoke=True)
        stored = collect_rows(plan(fleet, store, smoke=True), store)
        live = sweep(smoke_spec(get_scenario("sharded-burst")), axes)
        assert [list(row) for row in stored] == [list(row) for row in live]
        assert stored == live

    def test_report_renders_the_controller_comparison_from_artifacts(self, tmp_path):
        fleet = [
            FleetExperiment(
                name="fault-recovery",
                title="Fault recovery",
                scenarios=("fault-recovery",),
                axes=(("remediation.enabled", (True, False)),),
            )
        ]
        store = ArtifactStore(tmp_path / "artifacts")
        run_missing(fleet, store, smoke=True)
        generate_report(fleet, store, tmp_path / "report", smoke=True)
        report_text = (tmp_path / "report" / "report.md").read_text()
        assert "### Controller on vs off (same fault, same capacity)" in report_text
        assert "| fault | ttr_controller | ttr_baseline |" in report_text
        assert "| shard-crash |" in report_text
        # Nothing in this section pairs autoscaler policies or disciplines.
        assert "Predictive vs reactive" not in report_text
        assert "Weighted fairness vs FIFO" not in report_text


class TestFleetCLI:
    def _fleet_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps({"experiments": [{"name": "exp", "scenarios": ["engine-baseline"]}]})
        )
        return str(path)

    def test_run_missing_then_report_end_to_end(self, tmp_path, capsys):
        fleet = self._fleet_file(tmp_path)
        artifacts = str(tmp_path / "artifacts")
        assert main(["run-missing", "--artifacts", artifacts, "--fleet", fleet, "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "'ran': 1" in out
        assert main(["run-missing", "--artifacts", artifacts, "--fleet", fleet, "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "'ran': 0" in out and "'reused': 1" in out
        assert main(["report", "--artifacts", artifacts, "--fleet", fleet, "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "report.md" in out and "exp.csv" in out

    def test_dry_run_plans_without_running(self, tmp_path, capsys):
        fleet = self._fleet_file(tmp_path)
        artifacts = str(tmp_path / "artifacts")
        code = main(
            ["run-missing", "--artifacts", artifacts, "--fleet", fleet, "--smoke", "--dry-run"]
        )
        assert code == 0
        assert "would-run" in capsys.readouterr().out
        assert not (tmp_path / "artifacts" / "manifest.json").exists()

    def test_report_without_artifacts_exits_nonzero_with_fix_command(self, tmp_path, capsys):
        fleet = self._fleet_file(tmp_path)
        artifacts = str(tmp_path / "artifacts")
        code = main(["report", "--artifacts", artifacts, "--fleet", fleet, "--smoke"])
        assert code == 1
        err = capsys.readouterr().err
        assert "run-missing" in err and "--smoke" in err

    def test_bad_fleet_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run-missing", "--fleet", missing, "--dry-run"]) == 2
        assert "does not exist" in capsys.readouterr().err
