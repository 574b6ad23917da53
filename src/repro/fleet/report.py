"""Programmatic report generation from recorded fleet artifacts.

The read side of the fleet: :func:`generate_report` renders the evaluation
report — the registered-scenario headline table plus every sweep section
(shard, autoscale, fault-recovery, replication, tenants) — as Markdown and
per-experiment CSV files, **purely from stored artifacts**.  It never runs a
scenario: a missing or stale cell fails the report loudly with the exact
``run-missing`` command that repairs it, which is what keeps the report an
honest function of the recorded artifact set.

Under each section's row table the report renders every headline comparison
(:data:`COMPARISONS`) the section's reports support: predictive vs reactive
scaling, remediation controller on vs off, weighted fairness vs FIFO.  Each
reducer takes the stored :class:`~repro.scenario.build.RunReport` objects
and pairs those whose specs differ only in the compared field, so a section
without such a pair renders no comparison.

Determinism is a feature, not an accident: rows render in plan order,
numbers format through the shared table formatter, and nothing time- or
machine-dependent enters the output — so two reports over the same artifacts
are byte-identical, and a report regenerated after an incremental
``run-missing`` changes only where the artifacts changed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.analysis.comparison import percent_reduction
from repro.analysis.export import export_csv
from repro.analysis.tables import format_markdown_table
from repro.fleet.manifest import ArtifactStore, FleetError
from repro.fleet.runner import FleetCell, FleetExperiment, plan
from repro.scenario.build import RunReport
from repro.scenario.sweep import sweep_row

#: Filename of the rendered Markdown report inside the output directory.
REPORT_FILENAME = "report.md"


def fix_command(artifacts_dir: str | Path, smoke: bool = False) -> str:
    """The exact CLI invocation that repairs a failed report."""
    command = f"PYTHONPATH=src python -m repro.cli run-missing --artifacts {artifacts_dir}"
    if smoke:
        command += " --smoke"
    return command


def load_reports(cells: Sequence[FleetCell], store: ArtifactStore) -> list[RunReport]:
    """Each cell's recorded report, in cell order.

    Artifacts are parsed through :meth:`RunReport.from_json`, so
    schema-versioned payloads with unknown future keys still load.
    """
    return [RunReport.from_json(store.load_cell_json(cell.cell_id)) for cell in cells]


def collect_rows(cells: Sequence[FleetCell], store: ArtifactStore) -> list[dict]:
    """One flat result row per cell, loaded from its recorded artifact.

    Each row is the cell's :func:`~repro.scenario.sweep.sweep_row` — its
    axes first (so sweep tables read axis-first), then the stored report's
    :meth:`~repro.scenario.build.RunReport.row` — the same projection
    ``repro.scenario.sweep`` gives a live grid.
    """
    reports = load_reports(cells, store)
    return [sweep_row(report, cell.axes) for cell, report in zip(cells, reports)]


# ---------------------------------------------------------------------------
# Headline comparisons
# ---------------------------------------------------------------------------


def _counterparts(reports: Sequence[RunReport], key: str) -> list[dict[Any, RunReport]]:
    """Group ``reports`` whose specs differ at most in the dotted field ``key``.

    One ``{value at key: report}`` mapping per group, in first-seen order:
    two reports land in one group exactly when their specs are equal once
    ``key`` is left out.
    """
    *parents, leaf = key.split(".")
    groups: dict[str, dict[Any, RunReport]] = {}
    for report in reports:
        tree = report.spec.to_dict()
        node = tree
        for part in parents:
            node = node[part]
        value = node.pop(leaf)
        groups.setdefault(json.dumps(tree, sort_keys=True), {})[value] = report
    return list(groups.values())


def compare_autoscale_policies(reports: Sequence[RunReport]) -> list[dict]:
    """Predictive-vs-reactive deltas per utilization level.

    The comparison the autoscaler sweep exists to make: at each offered
    utilization, how much p99 sojourn and shed rate does forecast-ahead
    scaling buy, and at what relative warm-capacity cost.
    """
    comparisons = []
    scaled = [report for report in reports if report.spec.tier.autoscaler.enabled]
    for by_policy in _counterparts(scaled, "tier.autoscaler.policy"):
        if "reactive" not in by_policy or "predictive" not in by_policy:
            continue
        reactive, predictive = by_policy["reactive"].row(), by_policy["predictive"].row()
        reactive_cost = reactive["capacity_unit_seconds"]
        comparisons.append(
            {
                "utilization": predictive["utilization"],
                "p99_reactive": reactive["p99_sojourn_seconds"],
                "p99_predictive": predictive["p99_sojourn_seconds"],
                "p99_reduction_pct": percent_reduction(
                    reactive["p99_sojourn_seconds"], predictive["p99_sojourn_seconds"]
                ),
                "shed_rate_reactive": reactive["shed_rate"],
                "shed_rate_predictive": predictive["shed_rate"],
                "capacity_cost_ratio": (
                    predictive["capacity_unit_seconds"] / reactive_cost
                    if reactive_cost
                    else float("inf")
                ),
            }
        )
    return sorted(comparisons, key=lambda row: row["utilization"])


def compare_fault_recovery(reports: Sequence[RunReport]) -> list[dict]:
    """Controller-on vs controller-off deltas per injected fault.

    The comparison the fault-recovery sweep exists to make: for each
    injected fault, how much time-to-recovery and goodput-dip area does
    closed-loop remediation buy, and how many shadow-verified actions it
    took to buy it.
    """
    comparisons = []
    faulted = [report for report in reports if report.spec.faults]
    for by_controller in _counterparts(faulted, "remediation.enabled"):
        if True not in by_controller or False not in by_controller:
            continue
        on, off = by_controller[True].row(), by_controller[False].row()
        comparisons.append(
            {
                "fault": by_controller[True].spec.faults[0].kind,
                "ttr_controller": on["time_to_recovery_seconds"],
                "ttr_baseline": off["time_to_recovery_seconds"],
                "ttr_reduction_pct": percent_reduction(
                    off["time_to_recovery_seconds"], on["time_to_recovery_seconds"]
                ),
                "dip_controller": on["goodput_dip_area"],
                "dip_baseline": off["goodput_dip_area"],
                "dip_reduction_pct": percent_reduction(
                    off["goodput_dip_area"], on["goodput_dip_area"]
                ),
                "actions_taken": on["actions_taken"],
                "shadow_accepts": on["shadow_accepts"],
                "shadow_rejects": on["shadow_rejects"],
            }
        )
    return sorted(comparisons, key=lambda row: row["fault"])


def compare_tenant_disciplines(reports: Sequence[RunReport]) -> list[dict]:
    """WFQ/DRR-vs-FIFO deltas on the steady tenant, per steady-tenant weight.

    The comparison the tenant sweep exists to make: at each steady-tenant
    weight, how much of the steady tenant's p99 and violation rate does
    weighted fairness claw back from the noisy neighbour, relative to FIFO.
    """
    comparisons = []
    steady = [
        report for report in reports if any(t.name == "steady" for t in report.spec.tenants)
    ]
    for by_discipline in _counterparts(steady, "tier.queue_discipline"):
        if "fifo" not in by_discipline:
            continue
        fifo = by_discipline["fifo"].row()
        weight = next(t.weight for t in by_discipline["fifo"].spec.tenants if t.name == "steady")
        for discipline in ("wfq", "drr"):
            if discipline not in by_discipline:
                continue
            fair = by_discipline[discipline].row()
            comparisons.append(
                {
                    "steady_weight": weight,
                    "discipline": discipline,
                    "steady_p99_fifo": fifo["steady_p99"],
                    "steady_p99_fair": fair["steady_p99"],
                    "steady_p99_reduction_pct": percent_reduction(
                        fifo["steady_p99"], fair["steady_p99"]
                    ),
                    "steady_violations_fifo": fifo["steady_violations"],
                    "steady_violations_fair": fair["steady_violations"],
                    "steady_share_fair": fair["steady_share"],
                }
            )
    return sorted(comparisons, key=lambda row: row["steady_weight"])


#: The headline comparisons the report renders under each section that
#: supports them: (table title, reducer over the section's reports).
COMPARISONS = (
    ("Predictive vs reactive (same offered load)", compare_autoscale_policies),
    ("Controller on vs off (same fault, same capacity)", compare_fault_recovery),
    ("Weighted fairness vs FIFO (steady tenant)", compare_tenant_disciplines),
)


def generate_report(
    experiments: Sequence[FleetExperiment],
    store: ArtifactStore,
    out_dir: str | Path,
    smoke: bool = False,
) -> dict:
    """Render the fleet's Markdown + CSV report from stored artifacts only.

    Raises :class:`FleetError` — listing every missing/stale cell and the
    ``run-missing`` command that computes them — rather than silently
    re-running or rendering a partial report.  Returns a summary dict with
    the written paths and per-experiment row counts.
    """
    cells = plan(experiments, store, smoke=smoke)
    broken = [cell for cell in cells if cell.status != "fresh"]
    if broken:
        listing = "\n".join(f"  - {cell.cell_id} [{cell.status}]" for cell in broken)
        raise FleetError(
            f"{len(broken)} of {len(cells)} fleet cells have no fresh artifact:\n"
            f"{listing}\n"
            f"run them first:\n  {fix_command(store.root, smoke=smoke)}"
        )
    out_dir = Path(out_dir)
    csv_dir = out_dir / "csv"
    titles = {experiment.name: experiment.title for experiment in experiments}
    by_experiment: dict[str, list[FleetCell]] = {}
    for cell in cells:
        by_experiment.setdefault(cell.experiment, []).append(cell)

    lines = [
        "# Evaluation fleet report",
        "",
        f"Variant: `{cells[0].variant if cells else 'full'}` · "
        f"{len(cells)} cells across {len(by_experiment)} experiments, "
        "rendered entirely from recorded artifacts (no scenario was re-run).",
        "",
    ]
    csv_paths: dict[str, str] = {}
    row_counts: dict[str, int] = {}
    for experiment_name, experiment_cells in by_experiment.items():
        reports = load_reports(experiment_cells, store)
        rows = [sweep_row(report, cell.axes) for cell, report in zip(experiment_cells, reports)]
        lines.append(f"## {titles.get(experiment_name, experiment_name)}")
        lines.append("")
        lines.append(format_markdown_table(rows))
        lines.append("")
        for title, reducer in COMPARISONS:
            comparisons = reducer(reports)
            if comparisons:
                lines.extend([f"### {title}", "", format_markdown_table(comparisons), ""])
        csv_path = export_csv(rows, csv_dir / f"{experiment_name}.csv")
        csv_paths[experiment_name] = str(csv_path)
        row_counts[experiment_name] = len(rows)

    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / REPORT_FILENAME
    report_path.write_text("\n".join(lines).rstrip("\n") + "\n", encoding="utf-8")
    return {
        "report": str(report_path),
        "csv": csv_paths,
        "cells": len(cells),
        "rows": row_counts,
    }
