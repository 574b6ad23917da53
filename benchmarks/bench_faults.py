"""Fault-recovery benchmark — injection and remediation overhead of the tier.

Runs the fault-recovery grid (the ``fault-recovery`` scenario's shard crash
and the same scenario with a reclamation storm on a consistent-hash ring,
remediation controller on and off) through the serving tier
(:mod:`repro.engine.faults` + :mod:`repro.engine.remediate`) and merges the
resulting rows into ``BENCH_serve.json`` under the ``fault_recovery``
section.  The grid's wall time is also published as the top-level
``fault_wall_seconds`` scalar so the CI perf gate
(``benchmarks/check_perf_gate.py``) regression-gates the fault-event
scheduling, anomaly detection, and shadow-simulation machinery alongside the
serve hot path and the other sweeps.
"""

import time

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.fleet import compare_fault_recovery
from repro.scenario import calibrate, expand_axes, get_scenario, run, sweep_row


def test_fault_recovery_sweep(report):
    timing = {}
    crash = get_scenario("fault-recovery")
    storm = crash.with_overrides(
        {
            "tier.router_kind": "consistent-hash",
            "faults.0.kind": "reclamation-storm",
            "faults.0.duration_seconds": 90,
            "faults.0.magnitude": 2,
            "faults.0.interval_seconds": 5,
        }
    )

    def run_grids():
        start = time.perf_counter()
        controller = {"remediation.enabled": (True, False)}
        reports = [run(spec) for base in (crash, storm) for spec in expand_axes(base, controller)]
        timing["wall_seconds"] = time.perf_counter() - start
        rows = [
            sweep_row(report, {"remediation.enabled": report.spec.remediation.enabled})
            for report in reports
        ]
        return {"rows": rows, "reports": reports}

    result = report(
        run_grids,
        "Fault-recovery sweep (fault x remediation controller)",
        columns=[
            "router",
            "remediation.enabled",
            "time_to_recovery_seconds",
            "goodput_dip_area",
            "recovered",
            "p99_sojourn_seconds",
            "goodput_rps",
            "shed_rate",
            "actions_taken",
            "shadow_accepts",
            "shadow_rejects",
            "conserved",
        ],
    )
    rows = result["rows"]
    comparisons = compare_fault_recovery(result["reports"])
    merge_bench_json(
        "fault_recovery",
        {
            "rows": rows,
            "comparisons": comparisons,
            "mean_service_seconds": calibrate(crash),
            "utilization": crash.arrival.utilization,
            "shards": crash.tier.shards,
            "control_interval_seconds": crash.remediation.control_interval_seconds,
            "shadow_requests": crash.remediation.shadow_requests,
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
    assert [comparison["fault"] for comparison in comparisons] == [
        "reclamation-storm",
        "shard-crash",
    ]
    for comparison in comparisons:
        assert comparison["ttr_reduction_pct"] > 0
        assert comparison["dip_reduction_pct"] > 0
        assert comparison["shadow_accepts"] >= comparison["actions_taken"] >= 1
