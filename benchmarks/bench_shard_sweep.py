"""Shard-sweep benchmark — routing and admission overhead of the sharded tier.

Sweeps the ``sharded-burst`` scenario over shard count x utilization
through the routed front door
(:class:`repro.engine.sharded.ShardedEngineFLStore`) at a reduced scale and
merges the resulting rows into ``BENCH_serve.json`` under the
``shard_sweep`` section.  The sweep's wall time is also published as the
top-level ``shard_sweep_wall_seconds`` scalar so the CI perf gate
(``benchmarks/check_perf_gate.py``) regression-gates the routing +
admission-control overhead alongside the closed-loop serve hot path.
"""

import time

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.scenario import calibrate, get_scenario, sweep


def test_shard_sweep(report):
    timing = {}
    base = get_scenario("sharded-burst").with_overrides(
        {"workload.num_requests": 48, "tier.admission.max_queue_depth": 4}
    )

    def run():
        start = time.perf_counter()
        rows = sweep(base, {"tier.shards": (1, 2, 4), "arrival.utilization": (1.0, 2.0)})
        timing["wall_seconds"] = time.perf_counter() - start
        return {"rows": rows}

    result = report(
        run,
        "Shard sweep (routed serving tier)",
        columns=[
            "shards",
            "utilization",
            "offered_rps",
            "goodput_rps",
            "p50_sojourn_seconds",
            "p99_sojourn_seconds",
            "shed_rate",
            "violation_rate",
            "served",
            "shed",
            "degraded",
            "conserved",
        ],
    )
    rows = result["rows"]
    merge_bench_json(
        "shard_sweep",
        {
            "rows": rows,
            "mean_service_seconds": calibrate(base),
            "max_queue_depth": base.tier.admission.max_queue_depth,
            "shed_policy": base.tier.admission.shed_policy,
            "wall_seconds": timing["wall_seconds"],
        },
    )
    merge_bench_scalar("shard_sweep_wall_seconds", timing["wall_seconds"])

    assert len(rows) == 6  # 3 shard counts x 2 utilization levels
    for row in rows:
        # Shed requests are conserved: every offered request is accounted for.
        assert row["conserved"] is True
        assert row["served"] + row["shed"] + row["degraded"] == 48
        assert row["p99_sojourn_seconds"] >= row["p50_sojourn_seconds"]
    by_point = {(row["shards"], row["utilization"]): row for row in rows}
    # Overload (rho=2 against one shard's capacity) must shed behind a
    # 4-deep queue on a single shard.
    assert by_point[(1, 2.0)]["shed"] > 0
