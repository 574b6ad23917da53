"""The incremental fleet runner: plan the registry's cells, run what's stale.

A *fleet* is a list of :class:`FleetExperiment` rows — each one a set of
registered scenarios crossed with optional sweep axes.  :func:`default_fleet`
derives the standing fleet from the scenario registry: every registered
scenario as one headline cell, plus the canonical sweeps (shard count,
autoscaler policy, fault-recovery controller on/off, replication factor,
tenant queue discipline) the repo's evaluation reports.

:func:`plan` resolves a fleet to concrete :class:`FleetCell`\\ s and classifies
each against the recorded manifest — ``fresh`` (hash and fingerprint match,
artifact on disk), ``missing`` (never recorded or artifact gone),
``stale-spec`` (the spec changed), or ``stale-code`` (the code fingerprint
changed).  :func:`run_missing` executes exactly the non-fresh cells through
:func:`repro.scenario.build.run`, fanning independent cells out to worker
processes via the same :func:`~repro.analysis.runner.map_tasks` pool the
figure experiments use, and records each artifact atomically as it lands —
an interrupted fleet resumes where it stopped.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.runner import map_tasks
from repro.fleet.manifest import ArtifactStore, FleetError, code_fingerprint
from repro.scenario.build import run
from repro.scenario.registry import get_scenario, list_scenarios, smoke_spec
from repro.scenario.spec import ScenarioSpec
from repro.scenario.sweep import axis_points, expand_axes

#: Cell statuses, in the order the plan table reports them.
CELL_STATUSES = ("fresh", "missing", "stale-spec", "stale-code")


@dataclass(frozen=True)
class FleetExperiment:
    """One fleet row: a set of scenarios crossed with optional sweep axes.

    ``scenarios=None`` means "every registered scenario at plan time" — the
    headline experiment tracks the registry without being edited.
    """

    name: str
    title: str
    scenarios: tuple[str, ...] | None = None
    #: Dotted spec paths -> value tuples (first axis varies slowest).
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def resolved_scenarios(self) -> tuple[str, ...]:
        if self.scenarios is None:
            return tuple(list_scenarios())
        return self.scenarios

    def axes_mapping(self) -> dict[str, tuple[Any, ...]]:
        return {key: values for key, values in self.axes}


@dataclass(frozen=True)
class FleetCell:
    """One planned run: a fully resolved spec plus its manifest coordinates."""

    experiment: str
    scenario: str
    #: This cell's point on the experiment's axes (dotted path -> value).
    axes: dict[str, Any] = field(hash=False)
    #: ``"full"`` or ``"smoke"`` — smoke cells are shrunk for CI and live
    #: under their own manifest ids, so a smoke fleet never evicts real runs.
    variant: str
    spec: ScenarioSpec = field(hash=False)
    spec_hash: str
    status: str = "missing"

    @property
    def cell_id(self) -> str:
        return cell_id(self.experiment, self.scenario, self.axes, self.variant)

    @property
    def artifact_relpath(self) -> str:
        """Stable artifact path for this cell (independent of the spec hash,
        so a re-run of a stale cell overwrites its artifact in place)."""
        parts = [_slug(self.scenario)]
        parts.extend(
            f"{_slug(key.rsplit('.', 1)[-1])}-{_slug(value)}" for key, value in self.axes.items()
        )
        if self.variant != "full":
            parts.append(self.variant)
        tag = hashlib.sha256(self.cell_id.encode("utf-8")).hexdigest()[:8]
        return f"{_slug(self.experiment)}/{'-'.join(parts)}-{tag}.json"


def cell_id(experiment: str, scenario: str, axes: Mapping[str, Any], variant: str) -> str:
    """The stable identity of a cell: what it *is*, not what it computed.

    Two plans of the same fleet produce the same ids regardless of code or
    spec edits — which is exactly what lets the manifest detect that a
    recorded cell went stale rather than treating it as a brand-new one.
    """
    suffix = ""
    if axes:
        suffix = "?" + "&".join(f"{key}={value}" for key, value in axes.items())
    return f"{experiment}/{scenario}{suffix}#{variant}"


def _slug(value: Any) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", str(value)).strip("-") or "x"


# ---------------------------------------------------------------------------
# Fleet definitions
# ---------------------------------------------------------------------------


def default_fleet() -> list[FleetExperiment]:
    """The standing evaluation fleet, derived from the scenario registry.

    Always includes the ``scenarios`` headline experiment (one cell per
    registered scenario); each canonical sweep joins only when its base
    scenario is registered, so a project that prunes the registry prunes the
    fleet with it.
    """
    experiments = [
        FleetExperiment(
            name="scenarios",
            title="Registered scenarios (one headline run each)",
            scenarios=None,
        )
    ]
    registered = set(list_scenarios())
    for experiment in (
        FleetExperiment(
            name="shard-sweep",
            title="Shard count sweep (sharded-burst)",
            scenarios=("sharded-burst",),
            axes=(("tier.shards", (1, 2, 4)),),
        ),
        FleetExperiment(
            name="autoscale",
            title="Autoscaler policy comparison (autoscale-diurnal)",
            scenarios=("autoscale-diurnal",),
            axes=(("tier.autoscaler.policy", ("none", "reactive", "predictive")),),
        ),
        FleetExperiment(
            name="fault-recovery",
            title="Fault recovery: remediation controller on vs off",
            scenarios=("fault-recovery",),
            axes=(("remediation.enabled", (True, False)),),
        ),
        FleetExperiment(
            name="replication",
            title="Hot-key replication factor (hotkey-replicated)",
            scenarios=("hotkey-replicated",),
            axes=(("tier.replication.factor", (1, 2)),),
        ),
        FleetExperiment(
            name="tenants",
            title="Tenant isolation by queue discipline (noisy-neighbor)",
            scenarios=("noisy-neighbor",),
            axes=(("tier.queue_discipline", ("fifo", "wfq", "drr")),),
        ),
    ):
        if set(experiment.resolved_scenarios()) <= registered:
            experiments.append(experiment)
    return experiments


def load_fleet(path: str | Path) -> list[FleetExperiment]:
    """Read a fleet definition from a JSON file.

    The file holds ``{"experiments": [{"name": ..., "scenarios": [...],
    "axes": {...}, "title": ...}, ...]}``; ``scenarios`` may be omitted (or
    ``null``) for "every registered scenario", and ``title`` defaults to the
    name.
    """
    path = Path(path)
    if not path.exists():
        raise FleetError(f"fleet file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FleetError(f"invalid fleet file {path}: {exc}") from exc
    rows = data.get("experiments") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not rows:
        raise FleetError(f"fleet file {path} must hold a non-empty 'experiments' list")
    experiments = []
    seen: set[str] = set()
    for index, row in enumerate(rows):
        if not isinstance(row, dict) or "name" not in row:
            raise FleetError(f"fleet file {path}: experiments[{index}] needs a 'name'")
        unknown = sorted(set(row) - {"name", "title", "scenarios", "axes"})
        if unknown:
            raise FleetError(f"fleet file {path}: unknown experiment keys {unknown}")
        name = row["name"]
        if name in seen:
            raise FleetError(f"fleet file {path}: duplicate experiment name {name!r}")
        seen.add(name)
        scenarios = row.get("scenarios")
        axes = row.get("axes", {})
        if not isinstance(axes, dict):
            raise FleetError(f"fleet file {path}: experiments[{index}].axes must be an object")
        experiments.append(
            FleetExperiment(
                name=name,
                title=row.get("title", name),
                scenarios=None if scenarios is None else tuple(scenarios),
                axes=tuple((key, tuple(values)) for key, values in axes.items()),
            )
        )
    return experiments


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def plan_cells(experiments: Sequence[FleetExperiment], smoke: bool = False) -> list[FleetCell]:
    """Resolve a fleet to concrete cells (no manifest classification yet).

    Cells come out in deterministic order: experiments as listed, scenarios
    as resolved, axes in grid order (first axis slowest) — the order the
    report renders rows in.
    """
    cells: list[FleetCell] = []
    for experiment in experiments:
        axes = experiment.axes_mapping()
        for scenario_name in experiment.resolved_scenarios():
            grid = expand_axes(get_scenario(scenario_name), axes)
            for spec, point in zip(grid, axis_points(axes)):
                if smoke:
                    spec = smoke_spec(spec)
                cells.append(
                    FleetCell(
                        experiment=experiment.name,
                        scenario=scenario_name,
                        axes=point,
                        variant="smoke" if smoke else "full",
                        spec=spec,
                        spec_hash=spec.content_hash(),
                    )
                )
    return cells


def classify(cells: Sequence[FleetCell], store: ArtifactStore) -> list[FleetCell]:
    """Each cell with its staleness status against the recorded manifest."""
    fingerprint = code_fingerprint()
    classified = []
    for cell in cells:
        entry = store.manifest.cells.get(cell.cell_id)
        if entry is None or not store.manifest.artifact_path(entry).exists():
            status = "missing"
        elif entry.spec_hash != cell.spec_hash:
            status = "stale-spec"
        elif entry.fingerprint != fingerprint:
            status = "stale-code"
        else:
            status = "fresh"
        classified.append(
            FleetCell(
                experiment=cell.experiment,
                scenario=cell.scenario,
                axes=cell.axes,
                variant=cell.variant,
                spec=cell.spec,
                spec_hash=cell.spec_hash,
                status=status,
            )
        )
    return classified


def plan(
    experiments: Sequence[FleetExperiment], store: ArtifactStore, smoke: bool = False
) -> list[FleetCell]:
    """Resolve and classify the fleet's cells against ``store``'s manifest."""
    return classify(plan_cells(experiments, smoke=smoke), store)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _run_cell(spec: ScenarioSpec) -> str:
    """One fleet cell (module-level so worker processes can pickle it)."""
    return run(spec).to_json()


def run_missing(
    experiments: Sequence[FleetExperiment],
    store: ArtifactStore,
    smoke: bool = False,
    workers: int | None = None,
    dry_run: bool = False,
) -> dict:
    """Execute the fleet's absent/stale cells; reuse everything fresh.

    Returns a summary dict: ``cells`` (one row per planned cell with its
    status and action), plus ``planned``/``ran``/``reused`` counts.  With
    ``dry_run=True`` nothing executes and nothing is written — the summary
    shows what a real run would do.
    """
    cells = plan(experiments, store, smoke=smoke)
    to_run = [cell for cell in cells if cell.status != "fresh"]
    pending = "would-run" if dry_run else "run"
    rows = [
        {
            "cell": cell.cell_id,
            "status": cell.status,
            "action": pending if cell.status != "fresh" else "reuse",
            "artifact": cell.artifact_relpath,
        }
        for cell in cells
    ]
    summary = {
        "planned": len(cells),
        "ran": 0,
        "reused": len(cells) - len(to_run),
        "stale": sum(1 for cell in cells if cell.status.startswith("stale")),
        "missing": sum(1 for cell in cells if cell.status == "missing"),
        "dry_run": dry_run,
        "cells": rows,
    }
    if dry_run or not to_run:
        return summary
    reports = map_tasks(_run_cell, [cell.spec for cell in to_run], workers=workers)
    for cell, report_json in zip(to_run, reports):
        store.record_cell(
            cell.cell_id,
            experiment=cell.experiment,
            scenario=cell.scenario,
            axes=cell.axes,
            variant=cell.variant,
            spec_hash=cell.spec_hash,
            seed=cell.spec.seed,
            artifact_relpath=cell.artifact_relpath,
            report_json=report_json,
        )
    summary["ran"] = len(to_run)
    for row in rows:
        if row["action"] == "run":
            row["action"] = "ran"
    return summary
