"""The pre-spec sweep captures, reproduced by the generic scenario grid.

The fixtures under ``tests/data/golden_sweeps/`` were captured at seed 7
from the load, shard and autoscale sweeps as they stood before the
declarative scenario layer existed (serialized with
``json.dump(..., indent=2)``).  Each capture is a base
:class:`~repro.scenario.spec.ScenarioSpec` plus sweep axes:
:func:`repro.scenario.sweep` must give, in row order, every column a
captured row holds with the same value (today's rows also lead with the
cell's axis values and carry newer columns), and the same calibrated mean
service time and SLO.  Any drift in config construction, trace generation,
arrival sampling, or report assembly shows up here first.  The fixtures are
never regenerated from changed code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    ScenarioSpec,
    TierSpec,
    WorkloadMixSpec,
    calibrate,
    sweep,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_sweeps"

#: fixture name -> (base spec, axes) of the grid the fixture was captured from.
GOLDEN_GRIDS = {
    "load": (
        ScenarioSpec(name="load-sweep", num_rounds=5, workload=WorkloadMixSpec(num_requests=24)),
        {"arrival.kind": ("poisson", "bursty"), "arrival.utilization": (0.5, 2.0)},
    ),
    "shard": (
        ScenarioSpec(
            name="shard-sweep",
            num_rounds=5,
            workload=WorkloadMixSpec(num_requests=16),
            arrival=ArrivalSpec(kind="bursty"),
            tier=TierSpec(
                router_kind="consistent-hash",
                admission=AdmissionSpec(max_queue_depth=3, shed_policy="drop"),
            ),
        ),
        {"tier.shards": (1, 2), "arrival.utilization": (1.0, 2.0)},
    ),
    "shard_degrade": (
        ScenarioSpec(
            name="shard-sweep",
            num_rounds=5,
            workload=WorkloadMixSpec(num_requests=16),
            arrival=ArrivalSpec(kind="poisson"),
            tier=TierSpec(
                router_kind="modulo",
                admission=AdmissionSpec(max_queue_depth=2, shed_policy="degrade-to-objstore"),
            ),
        ),
        {"tier.shards": (2,), "arrival.utilization": (2.0,)},
    ),
    "autoscale": (
        ScenarioSpec(
            name="autoscale-sweep",
            num_rounds=5,
            workload=WorkloadMixSpec(num_requests=48),
            arrival=ArrivalSpec(kind="diurnal"),
            tier=TierSpec(
                shards=1,
                router_kind="consistent-hash",
                admission=AdmissionSpec(max_queue_depth=2, shed_policy="drop"),
                autoscaler=AutoscalerSpec(enabled=True, control_interval_seconds=5.0),
            ),
        ),
        {
            "arrival.utilization": (2.5,),
            "tier.autoscaler.policy": ("none", "reactive", "predictive"),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_sweep_reproduces_the_pre_spec_capture(name):
    base, axes = GOLDEN_GRIDS[name]
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    rows = sweep(base, axes)
    assert len(rows) == len(golden["rows"])
    for golden_row, row in zip(golden["rows"], rows):
        assert golden_row.items() <= row.items()
    mean_service = calibrate(base)
    assert mean_service == golden["mean_service_seconds"]
    assert base.slo_multiplier * mean_service == golden["slo_seconds"]


def test_parallel_sweep_rows_match_serial():
    """Fanning cells out to worker processes must not change a single value."""
    base = ScenarioSpec(name="load-sweep", num_rounds=4, workload=WorkloadMixSpec(num_requests=10))
    axes = {"arrival.utilization": (0.5, 2.0)}
    assert sweep(base, axes, workers=2) == sweep(base, axes)
