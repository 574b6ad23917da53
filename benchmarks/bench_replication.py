"""Hot-key replication benchmark — the replicated tier's ceiling lift.

Sweeps ``tier.replication.factor`` over the ``hotkey-replicated`` scenario
(the jsq-hotkey mix with the P1 hot key replicated onto two shards) and
merges the rows into ``BENCH_serve.json`` under the ``replication``
section.  The sweep's wall time is published as the top-level
``replication_wall_seconds`` scalar so the CI perf gate
(``benchmarks/check_perf_gate.py``) regression-gates the replica-routing
overhead alongside the other serving benchmarks.
"""

import time

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.scenario import get_scenario, sweep


def test_replication_sweep(report):
    timing = {}

    def run():
        spec = get_scenario("hotkey-replicated")
        start = time.perf_counter()
        rows = sweep(spec, axes={"tier.replication.factor": (1, 2)})
        timing["wall_seconds"] = time.perf_counter() - start
        return {"rows": rows, "scenario": spec.name}

    result = report(
        run,
        "Hot-key replication (factor 1 vs 2)",
        columns=[
            "shards",
            "max_shard_routed",
            "p99_sojourn_seconds",
            "served",
            "degraded",
            "shed",
            "replica_hits",
            "conserved",
        ],
    )
    rows = result["rows"]
    merge_bench_json(
        "replication",
        {
            "scenario": result["scenario"],
            "rows": rows,
            "wall_seconds": timing["wall_seconds"],
        },
    )
    merge_bench_scalar("replication_wall_seconds", timing["wall_seconds"])

    base, replicated = rows
    for row in rows:
        assert row["conserved"] is True
        assert row["served"] + row["shed"] + row["degraded"] == 64
    # The replicated cell strictly lifts the hot-shard ceiling: the hot
    # shard's routing share drops, the tail improves, and fewer requests
    # overflow to the degraded object-store path.
    assert replicated["max_shard_routed"] < base["max_shard_routed"]
    assert replicated["p99_sojourn_seconds"] < base["p99_sojourn_seconds"]
    assert replicated["degraded"] < base["degraded"]
    assert replicated["replica_hits"] > 0
