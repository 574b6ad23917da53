"""The fleet report's headline comparisons, decided from run reports alone.

Each reducer in :mod:`repro.fleet.report` pairs the reports whose specs
differ only in the compared field, skips a group that lacks its
counterpart, and reads the compared columns off the paired reports' rows.
These tests build small smoke grids and pin that pairing: which groups
compare, which are skipped, the row order, that every delta comes from the
paired rows, and that the report renders each comparison under the section
whose stored reports support it.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.comparison import percent_reduction
from repro.analysis.tables import format_markdown_table
from repro.fleet import (
    ArtifactStore,
    FleetExperiment,
    compare_autoscale_policies,
    compare_fault_recovery,
    compare_tenant_disciplines,
    generate_report,
    plan,
    run_missing,
)
from repro.fleet.report import load_reports
from repro.scenario import expand_axes, get_scenario, run, smoke_spec

RECLAMATION_STORM = {
    "tier.router_kind": "consistent-hash",
    "faults.0.kind": "reclamation-storm",
    "faults.0.duration_seconds": 90,
    "faults.0.magnitude": 2,
    "faults.0.interval_seconds": 5,
}


def _grid(name: str, axes: dict, overrides: dict | None = None) -> list:
    """Run a smoke-size grid of registered scenario ``name``; one report per cell."""
    base = smoke_spec(get_scenario(name)).with_overrides(overrides or {})
    return [run(spec) for spec in expand_axes(base, axes)]


# ---------------------------------------------------------------------------
# Predictive vs reactive
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def autoscale_reports():
    """autoscale-diurnal: utilization 1.0, 2.5 x policy reactive, predictive."""
    return _grid(
        "autoscale-diurnal",
        {"arrival.utilization": (1.0, 2.5), "tier.autoscaler.policy": ("reactive", "predictive")},
    )


def test_autoscale_rows_pair_policies_per_utilization_in_order(autoscale_reports):
    comparisons = compare_autoscale_policies(list(reversed(autoscale_reports)))
    assert [row["utilization"] for row in comparisons] == [1.0, 2.5]
    for row, (reactive, predictive) in zip(
        comparisons, (autoscale_reports[0:2], autoscale_reports[2:4])
    ):
        reactive, predictive = reactive.row(), predictive.row()
        assert (reactive["autoscaler"], predictive["autoscaler"]) == ("reactive", "predictive")
        assert row["p99_reactive"] == reactive["p99_sojourn_seconds"]
        assert row["p99_predictive"] == predictive["p99_sojourn_seconds"]
        assert row["p99_reduction_pct"] == percent_reduction(
            reactive["p99_sojourn_seconds"], predictive["p99_sojourn_seconds"]
        )
        assert row["shed_rate_reactive"] == reactive["shed_rate"]
        assert row["shed_rate_predictive"] == predictive["shed_rate"]
        assert reactive["capacity_unit_seconds"] > 0
        assert row["capacity_cost_ratio"] == (
            predictive["capacity_unit_seconds"] / reactive["capacity_unit_seconds"]
        )


def test_autoscale_group_with_one_policy_is_skipped(autoscale_reports):
    reactive_only = [r for r in autoscale_reports if r.spec.tier.autoscaler.policy == "reactive"]
    assert len(reactive_only) == 2
    assert compare_autoscale_policies(reactive_only) == []


def test_autoscale_policies_at_different_loads_are_not_counterparts(autoscale_reports):
    reactive_low, _, _, predictive_high = autoscale_reports
    assert reactive_low.spec.arrival.utilization != predictive_high.spec.arrival.utilization
    assert compare_autoscale_policies([reactive_low, predictive_high]) == []


def test_autoscale_ignores_runs_without_an_autoscaler():
    static = _grid(
        "autoscale-diurnal",
        {"tier.autoscaler.policy": ("reactive", "predictive")},
        {"tier.autoscaler.enabled": False},
    )
    assert all(report.autoscale is None for report in static)
    assert compare_autoscale_policies(static) == []


# ---------------------------------------------------------------------------
# Controller on vs off
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fault_reports():
    """fault-recovery: shard crash and reclamation storm x controller on, off."""
    axes = {"remediation.enabled": (True, False)}
    return _grid("fault-recovery", axes) + _grid("fault-recovery", axes, RECLAMATION_STORM)


def test_fault_rows_pair_controller_on_and_off_per_fault_in_order(fault_reports):
    comparisons = compare_fault_recovery(fault_reports)
    assert [row["fault"] for row in comparisons] == ["reclamation-storm", "shard-crash"]
    for row in comparisons:
        on, off = (
            next(
                r.row()
                for r in fault_reports
                if r.spec.faults[0].kind == row["fault"] and r.spec.remediation.enabled is enabled
            )
            for enabled in (True, False)
        )
        assert row["ttr_controller"] == on["time_to_recovery_seconds"]
        assert row["ttr_baseline"] == off["time_to_recovery_seconds"]
        assert row["ttr_reduction_pct"] == percent_reduction(
            off["time_to_recovery_seconds"], on["time_to_recovery_seconds"]
        )
        assert row["dip_controller"] == on["goodput_dip_area"]
        assert row["dip_baseline"] == off["goodput_dip_area"]
        for column in ("actions_taken", "shadow_accepts", "shadow_rejects"):
            assert row[column] == on[column]


def test_fault_group_without_its_counterpart_is_skipped(fault_reports):
    controller_on = [r for r in fault_reports if r.spec.remediation.enabled]
    assert {r.spec.faults[0].kind for r in controller_on} == {"shard-crash", "reclamation-storm"}
    assert compare_fault_recovery(controller_on) == []


def test_fault_runs_with_different_faults_are_not_counterparts(fault_reports):
    crash_on, _, _, storm_off = fault_reports
    assert crash_on.spec.remediation.enabled and not storm_off.spec.remediation.enabled
    assert compare_fault_recovery([crash_on, storm_off]) == []


def test_fault_comparison_ignores_unfaulted_runs():
    clean = _grid("fault-recovery", {"remediation.enabled": (True, False)}, {"faults": []})
    assert all(report.recovery is None for report in clean)
    assert compare_fault_recovery(clean) == []


# ---------------------------------------------------------------------------
# Weighted fairness vs FIFO
# ---------------------------------------------------------------------------


def _steady_weight(report) -> float:
    return next(t.weight for t in report.spec.tenants if t.name == "steady")


@pytest.fixture(scope="module")
def tenant_reports():
    """noisy-neighbor: steady weight 4.0, 1.0 x discipline fifo, wfq, drr."""
    return _grid(
        "noisy-neighbor",
        {"tenants.steady.weight": (4.0, 1.0), "tier.queue_discipline": ("fifo", "wfq", "drr")},
    )


def test_tenant_rows_compare_each_fair_discipline_with_the_shared_fifo(tenant_reports):
    comparisons = compare_tenant_disciplines(tenant_reports)
    assert [(row["steady_weight"], row["discipline"]) for row in comparisons] == [
        (1.0, "wfq"),
        (1.0, "drr"),
        (4.0, "wfq"),
        (4.0, "drr"),
    ]
    for row in comparisons:
        at_weight = [r for r in tenant_reports if _steady_weight(r) == row["steady_weight"]]
        fifo = next(r for r in at_weight if r.spec.tier.queue_discipline == "fifo").row()
        fair = next(r for r in at_weight if r.spec.tier.queue_discipline == row["discipline"]).row()
        assert row["steady_p99_fifo"] == fifo["steady_p99"]
        assert row["steady_p99_fair"] == fair["steady_p99"]
        assert row["steady_p99_reduction_pct"] == percent_reduction(
            fifo["steady_p99"], fair["steady_p99"]
        )
        assert row["steady_violations_fifo"] == fifo["steady_violations"]
        assert row["steady_violations_fair"] == fair["steady_violations"]
        assert row["steady_share_fair"] == fair["steady_share"]


def test_tenant_group_without_fifo_is_skipped(tenant_reports):
    fair_only = [r for r in tenant_reports if r.spec.tier.queue_discipline != "fifo"]
    assert len(fair_only) == 4
    assert compare_tenant_disciplines(fair_only) == []


def test_tenant_disciplines_at_different_weights_are_not_counterparts(tenant_reports):
    fifo_heavy = tenant_reports[0]
    wfq_light = tenant_reports[4]
    assert fifo_heavy.spec.tier.queue_discipline == "fifo"
    assert wfq_light.spec.tier.queue_discipline == "wfq"
    assert fifo_heavy.spec.tenants != wfq_light.spec.tenants
    assert compare_tenant_disciplines([fifo_heavy, wfq_light]) == []


def test_tenant_comparison_ignores_runs_without_a_steady_tenant():
    untenanted = _grid("engine-baseline", {"tier.queue_discipline": ("fifo", "wfq")})
    assert all(not report.spec.tenants for report in untenanted)
    assert compare_tenant_disciplines(untenanted) == []


# ---------------------------------------------------------------------------
# Rendering in the fleet report
# ---------------------------------------------------------------------------


def _section(text: str, heading: str) -> str:
    """The body of Markdown section ``heading`` up to the next ``## `` heading."""
    start = text.index(heading) + len(heading)
    end = text.find("\n## ", start)
    return text[start:] if end == -1 else text[start:end]


def test_report_renders_each_comparison_under_the_section_that_supports_it(tmp_path):
    fleet = [
        FleetExperiment(
            name="autoscale",
            title="Autoscale",
            scenarios=("autoscale-diurnal",),
            axes=(("tier.autoscaler.policy", ("reactive", "predictive")),),
        ),
        FleetExperiment(
            name="tenants",
            title="Tenants",
            scenarios=("noisy-neighbor",),
            axes=(("tier.queue_discipline", ("fifo", "wfq")),),
        ),
        FleetExperiment(
            name="load",
            title="Load",
            scenarios=("engine-baseline",),
            axes=(("arrival.utilization", (0.5, 2.0)),),
        ),
    ]
    store = ArtifactStore(tmp_path / "artifacts")
    run_missing(fleet, store, smoke=True)
    generate_report(fleet, store, tmp_path / "report", smoke=True)
    text = (tmp_path / "report" / "report.md").read_text()
    autoscale = _section(text, "## Autoscale\n")
    tenants = _section(text, "## Tenants\n")
    load = _section(text, "## Load\n")
    assert "### Predictive vs reactive (same offered load)" in autoscale
    assert "### Weighted fairness vs FIFO (steady tenant)" not in autoscale
    assert "### Weighted fairness vs FIFO (steady tenant)" in tenants
    assert "### Predictive vs reactive (same offered load)" not in tenants
    assert "###" not in load
    assert "Controller on vs off" not in text


def test_report_comparison_is_computed_from_the_stored_artifacts(tmp_path):
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
    # Doctor the controller-off cell's stored recovery time; the comparison
    # must carry the doctored value, proving it reads artifacts, not reruns.
    cells = plan(fleet, store, smoke=True)
    (off,) = [cell for cell in cells if cell.axes == {"remediation.enabled": False}]
    payload = json.loads(store.load_cell_json(off.cell_id))
    payload["recovery"]["time_to_recovery_seconds"] = 4242.0
    store.manifest.artifact_path(store.manifest.cells[off.cell_id]).write_text(
        json.dumps(payload)
    )
    comparisons = compare_fault_recovery(load_reports(cells, store))
    assert [row["ttr_baseline"] for row in comparisons] == [4242.0]
    generate_report(fleet, store, tmp_path / "report", smoke=True)
    text = (tmp_path / "report" / "report.md").read_text()
    title = "### Controller on vs off (same fault, same capacity)\n\n"
    assert format_markdown_table(comparisons) in _section(text, title)
