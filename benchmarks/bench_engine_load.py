"""Open-loop engine load benchmark — the queueing counterpart of the hot path.

Sweeps the ``engine-baseline`` scenario over arrival process x offered
utilization through the discrete-event engine at a reduced scale and merges
the resulting rows into ``BENCH_serve.json`` under the ``engine_load``
section, so the perf record tracks both the closed-loop serve throughput and
the open-loop queueing profile across PRs.
"""

from repro.analysis.perf import merge_bench_json
from repro.scenario import calibrate, get_scenario, sweep


def test_engine_load(report):
    base = get_scenario("engine-baseline").with_overrides(
        {"num_rounds": 10, "workload.num_requests": 80}
    )
    axes = {
        "arrival.kind": ("poisson", "bursty", "diurnal"),
        "arrival.utilization": (0.5, 1.0, 2.0),
    }
    result = report(
        lambda: {"rows": sweep(base, axes)},
        "Open-loop load sweep (engine)",
        columns=[
            "process",
            "utilization",
            "offered_rps",
            "goodput_rps",
            "p50_sojourn_seconds",
            "p95_sojourn_seconds",
            "p99_sojourn_seconds",
            "mean_queue_depth",
            "max_queue_depth",
        ],
    )
    rows = result["rows"]
    merge_bench_json(
        "engine_load",
        {"rows": rows, "mean_service_seconds": calibrate(base)},
    )
    assert len(rows) == 9  # 3 arrival processes x 3 utilization levels
    assert all(row["completed"] == 80 for row in rows)
    by_point = {(row["process"], row["utilization"]): row for row in rows}
    for process in ("poisson", "bursty", "diurnal"):
        light, heavy = by_point[(process, 0.5)], by_point[(process, 2.0)]
        # Queueing must bite as offered load crosses the service rate.
        assert heavy["p95_sojourn_seconds"] >= light["p95_sojourn_seconds"]
