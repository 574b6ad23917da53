"""Fault-recovery benchmark — injection and remediation overhead of the tier.

Runs the fault-recovery grid (canonical shard-crash and reclamation-storm
clauses, remediation controller on and off) through the serving tier
(:mod:`repro.engine.faults` + :mod:`repro.engine.remediate`) and merges the
resulting rows into ``BENCH_serve.json`` under the ``fault_recovery``
section.  The grid's wall time is also published as the top-level
``fault_wall_seconds`` scalar so the CI perf gate
(``benchmarks/check_perf_gate.py``) regression-gates the fault-event
scheduling, anomaly detection, and shadow-simulation machinery alongside the
serve hot path and the other sweeps.
"""

import time

from repro.analysis.experiments import (
    FAULT_RECOVERY_COLUMNS,
    compare_fault_recovery,
    run_fault_recovery_sweep,
)
from repro.analysis.perf import merge_bench_json, merge_bench_scalar


def test_fault_recovery_sweep(report):
    timing = {}

    def run():
        start = time.perf_counter()
        result = run_fault_recovery_sweep(kinds=("shard-crash", "reclamation-storm"))
        timing["wall_seconds"] = time.perf_counter() - start
        return result

    result = report(
        run,
        "Fault-recovery sweep (fault kind x remediation controller)",
        columns=list(FAULT_RECOVERY_COLUMNS),
    )
    rows = result["rows"]
    comparisons = compare_fault_recovery(rows)
    merge_bench_json(
        "fault_recovery",
        {
            "rows": rows,
            "comparisons": comparisons,
            "mean_service_seconds": result["mean_service_seconds"],
            "utilization": result["utilization"],
            "shards": result["shards"],
            "control_interval_seconds": result["control_interval_seconds"],
            "shadow_requests": result["shadow_requests"],
            "wall_seconds": timing["wall_seconds"],
        },
    )
    merge_bench_scalar("fault_wall_seconds", timing["wall_seconds"])

    assert len(rows) == 4  # two fault kinds x controller on/off
    for row in rows:
        # Faults conserve requests: crashed or reclaimed, every offered
        # request is accounted for.
        assert row["conserved"] is True
    # The acceptance comparison: for both structural faults, closed-loop
    # remediation strictly improves time-to-recovery AND goodput dip area
    # at equal nominal warm capacity, and every actuation was shadow-verified.
    for comparison in comparisons:
        assert comparison["ttr_reduction_pct"] > 0
        assert comparison["dip_reduction_pct"] > 0
        assert comparison["shadow_accepts"] >= comparison["actions_taken"] >= 1
