"""Sweeping scenario specs over axes: one generic grid for every sweep.

:func:`sweep` is the single grid runner: it takes a base
:class:`~repro.scenario.spec.ScenarioSpec` plus a mapping of dotted spec
paths to value sequences, expands the cartesian product in axis order
(first axis outermost), and runs every cell through
:func:`repro.scenario.build.run`, fanning independent cells out to worker
processes via the same :func:`~repro.analysis.runner.map_tasks` runner the
figure experiments use.  Each row leads with its cell's axis values
(:func:`sweep_row`, the projection the fleet report renders too), so a
swept field names its cell.

Calibration is hoisted: unless an axis changes what calibration depends on
(model, seed, rounds, the workload mix), ``E[S]`` is measured once on the
base spec — after every grid point has validated — and pinned into every
cell via ``mean_service_seconds``, so a grid shares one calibration and one
SLO, and parallel workers never recalibrate.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Sequence

from repro.analysis.runner import map_tasks
from repro.scenario.build import RunReport, calibrate, run
from repro.scenario.spec import ScenarioSpec, apply_overrides

#: Dotted-path prefixes whose value feeds the service-time calibration; an
#: axis touching one of these forces per-cell calibration.
_CALIBRATION_PREFIXES: tuple[str, ...] = (
    "model",
    "seed",
    "num_rounds",
    "workload.",
    "mean_service_seconds",
    "tenants",
)


def axis_points(axes: Mapping[str, Sequence[Any]]) -> list[dict[str, Any]]:
    """Every point of the grid ``axes`` describes, in cartesian product order.

    Axis order is significant: the first axis varies slowest (outermost
    loop).  No axes is one point with no coordinates.
    """
    for key, values in axes.items():
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"axis {key!r} must be a list/tuple of values, got {values!r}")
        if not values:
            raise ValueError(f"axis {key!r} must provide at least one value")
    keys = list(axes)
    return [dict(zip(keys, combo)) for combo in itertools.product(*axes.values())]


def expand_axes(
    base_spec: ScenarioSpec, axes: Mapping[str, Sequence[Any]]
) -> list[ScenarioSpec]:
    """The grid of specs ``axes`` describes, one per :func:`axis_points` point.

    Every point is applied through :func:`apply_overrides`, so each grid
    spec is fully re-validated.
    """
    if not axes:
        return [base_spec]
    return [apply_overrides(base_spec, point) for point in axis_points(axes)]


def sweep_row(report: RunReport, point: Mapping[str, Any]) -> dict:
    """One grid cell's row: its scenario, its axis values, then ``report.row()``.

    The one projection of a swept run, shared by :func:`sweep` and the fleet
    report, so a cell reads the same (same columns, same order) wherever it
    is rendered.
    """
    row: dict = {"scenario": report.spec.name}
    row.update(point)
    row.update(report.row())
    return row


def _sweep_cell(task: tuple[ScenarioSpec, dict]) -> dict:
    """One grid cell (module-level so worker processes can pickle it)."""
    spec, point = task
    return sweep_row(run(spec), point)


def _affects_calibration(axes: Mapping[str, Sequence[Any]]) -> bool:
    return any(
        key == prefix.rstrip(".") or key.startswith(prefix)
        for key in axes
        for prefix in _CALIBRATION_PREFIXES
    )


def sweep(
    base_spec: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]] | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Run the grid ``axes`` describes over ``base_spec``; one row per cell.

    Every grid point is validated before anything runs, calibration
    included, so a bad axis value fails fast.  Each row is the cell's
    :func:`sweep_row`; rows come back in grid order regardless of
    parallelism.
    """
    axes = dict(axes or {})
    points = axis_points(axes)
    specs = expand_axes(base_spec, axes)
    if base_spec.mean_service_seconds is None and not _affects_calibration(axes):
        pinned = {"mean_service_seconds": calibrate(base_spec)}
        specs = [apply_overrides(spec, pinned) for spec in specs]
    return map_tasks(_sweep_cell, list(zip(specs, points)), workers=workers)
