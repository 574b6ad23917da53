"""Autoscale benchmark — control-loop and resize overhead of the elastic tier.

Runs the autoscaling-policy comparison (none / reactive / predictive) on the
``autoscale-diurnal`` scenario at 12 rounds x 160 requests — the size its
predictive-wins headline is pinned at — through the resizable front door
(:class:`repro.engine.sharded.ShardedEngineFLStore` +
:class:`repro.engine.autoscale.Autoscaler`) and merges the resulting rows
into ``BENCH_serve.json`` under the ``autoscale`` section.  The sweep's wall
time is also published as the top-level ``autoscale_wall_seconds`` scalar so
the CI perf gate (``benchmarks/check_perf_gate.py``) regression-gates the
control-tick sampling, scale actuation, and shard-warmup machinery alongside
the serve hot path and the shard sweep.
"""

import time

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.fleet import compare_autoscale_policies
from repro.scenario import calibrate, expand_axes, get_scenario, run


def test_autoscale_sweep(report):
    timing = {}
    base = get_scenario("autoscale-diurnal").with_overrides(
        {"num_rounds": 12, "workload.num_requests": 160}
    )

    def run_grid():
        start = time.perf_counter()
        policies = {"tier.autoscaler.policy": ("none", "reactive", "predictive")}
        reports = [run(spec) for spec in expand_axes(base, policies)]
        timing["wall_seconds"] = time.perf_counter() - start
        return {"rows": [report.row() for report in reports], "reports": reports}

    result = report(
        run_grid,
        "Autoscale sweep (resizable serving tier)",
        columns=[
            "autoscaler",
            "utilization",
            "p99_sojourn_seconds",
            "shed_rate",
            "violation_rate",
            "capacity_unit_seconds",
            "warm_capacity_cost_dollars",
            "scale_events",
            "shard_adds",
            "shard_removes",
            "conserved",
        ],
    )
    rows = result["rows"]
    merge_bench_json(
        "autoscale",
        {
            "rows": rows,
            "comparisons": compare_autoscale_policies(result["reports"]),
            "mean_service_seconds": calibrate(base),
            "max_queue_depth": base.tier.admission.max_queue_depth,
            "shed_policy": base.tier.admission.shed_policy,
            "control_interval_seconds": base.tier.autoscaler.control_interval_seconds,
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
