"""Multi-tenant serving benchmark — weighted fairness on a shared slot.

Sweeps ``tier.queue_discipline`` over the ``noisy-neighbor`` scenario (a
steady Poisson tenant sharing one warm slot with a bursty neighbour at
twice its arrival rate) and merges the rows into ``BENCH_serve.json``
under the ``tenants`` section.  The sweep's wall time is published as the
top-level ``tenants_wall_seconds`` scalar so the CI perf gate
(``benchmarks/check_perf_gate.py``) regression-gates the per-flow
scheduling and per-tenant SLO-accounting overhead alongside the other
serving benchmarks.
"""

import time

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.scenario import get_scenario, sweep


def test_tenant_sweep(report):
    timing = {}

    def run():
        spec = get_scenario("noisy-neighbor")
        start = time.perf_counter()
        rows = sweep(spec, axes={"tier.queue_discipline": ("fifo", "wfq", "drr")})
        timing["wall_seconds"] = time.perf_counter() - start
        return {"rows": rows, "scenario": spec.name}

    result = report(
        run,
        "Multi-tenant isolation (fifo vs wfq vs drr)",
        columns=[
            "served",
            "shed",
            "p99_sojourn_seconds",
            "steady_p99",
            "steady_violations",
            "bursty_p99",
            "bursty_violations",
            "conserved",
        ],
    )
    rows = result["rows"]
    merge_bench_json(
        "tenants",
        {
            "scenario": result["scenario"],
            "rows": rows,
            "wall_seconds": timing["wall_seconds"],
        },
    )
    merge_bench_scalar("tenants_wall_seconds", timing["wall_seconds"])

    fifo, wfq, drr = rows
    for row in rows:
        assert row["conserved"] is True
        assert row["served"] + row["shed"] + row["degraded"] == 48 + 64
    # The isolation story the scenario pins at seed 7: weighted fairness
    # holds the steady tenant inside its SLO while FIFO hands the queue to
    # the burst and violates it.
    assert fifo["steady_violations"] > 0.1
    for fair in (wfq, drr):
        assert fair["steady_violations"] == 0.0
        assert fair["steady_p99"] < 0.6 * fifo["steady_p99"]
