"""Autoscale benchmark — control-loop and resize overhead of the elastic tier.

Runs the autoscaling-policy comparison (none / reactive / predictive) on the
diurnal arrival process through the resizable front door
(:class:`repro.engine.sharded.ShardedEngineFLStore` +
:class:`repro.engine.autoscale.Autoscaler`) and merges the resulting rows
into ``BENCH_serve.json`` under the ``autoscale`` section.  The sweep's wall
time is also published as the top-level ``autoscale_wall_seconds`` scalar so
the CI perf gate (``benchmarks/check_perf_gate.py``) regression-gates the
control-tick sampling, scale actuation, and shard-warmup machinery alongside
the serve hot path and the shard sweep.
"""

import time

from repro.analysis.experiments import (
    AUTOSCALE_REPORT_COLUMNS,
    compare_autoscale_policies,
    run_autoscale_sweep,
)
from repro.analysis.perf import merge_bench_json, merge_bench_scalar


def test_autoscale_sweep(report):
    timing = {}

    def run():
        start = time.perf_counter()
        result = run_autoscale_sweep(
            policies=("none", "reactive", "predictive"),
            utilizations=(2.5,),
            num_rounds=12,
            num_requests=160,
            max_queue_depth=6,
            shed_policy="drop",
        )
        timing["wall_seconds"] = time.perf_counter() - start
        return result

    result = report(
        run,
        "Autoscale sweep (resizable serving tier)",
        columns=list(AUTOSCALE_REPORT_COLUMNS),
    )
    rows = result["rows"]
    merge_bench_json(
        "autoscale",
        {
            "rows": rows,
            "comparisons": compare_autoscale_policies(rows),
            "mean_service_seconds": result["mean_service_seconds"],
            "max_queue_depth": result["max_queue_depth"],
            "shed_policy": result["shed_policy"],
            "control_interval_seconds": result["control_interval_seconds"],
            "wall_seconds": timing["wall_seconds"],
        },
    )
    merge_bench_scalar("autoscale_wall_seconds", timing["wall_seconds"])

    assert len(rows) == 3  # one row per policy
    by_policy = {row["autoscaler"]: row for row in rows}
    for row in rows:
        # Resizes conserve requests: every offered request is accounted for.
        assert row["conserved"] is True
        assert row["served"] + row["shed"] + row["degraded"] == 160
    # Fixed capacity drowns under the diurnal peak; both scalers shed less.
    assert by_policy["none"]["shed"] > by_policy["reactive"]["shed"]
    # The acceptance comparison: forecast-ahead scaling beats threshold
    # scaling on shed rate at no more warm-capacity cost.
    assert by_policy["predictive"]["shed_rate"] <= by_policy["reactive"]["shed_rate"]
    assert (
        by_policy["predictive"]["capacity_unit_seconds"]
        <= by_policy["reactive"]["capacity_unit_seconds"]
    )
