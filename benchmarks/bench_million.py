"""Engine-core benchmark — one million requests in single-digit seconds.

Runs the registered ``million-request`` scenario (one plain tier, 10^6
Poisson arrivals, ``metrics="streaming"``) end to end — setup, calibration,
vectorized arrival generation, the closed-form queueing fast path, and the
streaming report — and merges the measurement into ``BENCH_serve.json``
under the ``engine_core`` section.  The wall time is also published as the
top-level ``engine_core_wall_seconds`` scalar so the CI perf gate
(``benchmarks/check_perf_gate.py``) regression-gates the raw request
throughput of the event core alongside the serve hot path; the hard
acceptance bound (<= 9 s wall) is asserted here directly.
"""

import resource
import sys
import time

from repro.analysis.perf import merge_bench_json, merge_bench_scalar
from repro.scenario import get_scenario, run


def _peak_rss_mb() -> float:
    """The process's peak resident set size in MB (``getrusage``, no psutil)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def test_million_request_engine_core(report):
    spec = get_scenario("million-request")
    num_requests = spec.workload.num_requests
    timing = {}

    def run_million():
        start = time.perf_counter()
        result = run(spec)
        timing["wall_seconds"] = time.perf_counter() - start
        return {"rows": [result.row()]}

    result = report(
        run_million,
        f"Engine core: {num_requests:,} requests, streaming metrics, fast path",
    )
    row = result["rows"][0]
    wall = timing["wall_seconds"]
    merge_bench_json(
        "engine_core",
        {
            "scenario": spec.name,
            "num_requests": num_requests,
            "metrics": spec.metrics,
            "wall_seconds": wall,
            "requests_per_second": num_requests / wall,
            "peak_rss_mb": _peak_rss_mb(),
            "row": row,
        },
    )
    merge_bench_scalar("engine_core_wall_seconds", wall)

    assert row["conserved"] is True
    assert row["completed"] == num_requests
    assert row["served"] == num_requests
    # The acceptance bound this PR ships: a million-request sweep must
    # finish in single-digit seconds, end to end.
    assert wall <= 9.0
