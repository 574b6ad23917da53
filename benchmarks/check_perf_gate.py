"""Benchmark regression gate over every perf key of ``BENCH_serve.json``.

Compares the freshly measured ``BENCH_serve.json`` against the committed
baseline, key by key (see :data:`PERF_BUDGETS`), prints one verdict line per
key, and fails (exit code 1) when any key regressed past its budget or is
missing from either file.  Used as one CI step::

    python benchmarks/check_perf_gate.py BASELINE.json BENCH_serve.json

Set ``PERF_GATE_SKIP=1`` to turn the gate into a report-only step (useful
when the runner hardware differs wildly from the baseline machine).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Gated top-level key -> allowed fractional slowdown (0.25 = fail past
#: +25%).  The serve hot path gets the tight budget; the sweep wall times
#: run whole scenario grids through more machinery, so they get more slack.
PERF_BUDGETS: dict[str, float] = {
    "wall_seconds": 0.25,
    "shard_sweep_wall_seconds": 0.5,
    "autoscale_wall_seconds": 0.5,
    "fault_wall_seconds": 0.5,
    "engine_core_wall_seconds": 0.5,
    "replication_wall_seconds": 0.5,
    "tenants_wall_seconds": 0.5,
}


def _skip_requested() -> bool:
    """Whether PERF_GATE_SKIP is set to a truthy value (\"0\"/\"false\" keep the gate on)."""
    return os.environ.get("PERF_GATE_SKIP", "").strip().lower() in ("1", "true", "yes", "on")


def check_key(key: str, budget: float, baseline: dict, current: dict) -> bool:
    """Print the verdict line for ``key``; return whether it passed."""
    base_value = baseline.get(key)
    current_value = current.get(key)
    if (
        not isinstance(base_value, (int, float))
        or not isinstance(current_value, (int, float))
        or base_value <= 0
    ):
        # A broken or renamed metric must not silently disable the gate.
        print(
            f"perf gate [{key}]: cannot compare "
            f"(baseline={base_value!r}, current={current_value!r}) -> MISSING"
        )
        return False
    ratio = current_value / base_value
    passed = ratio <= 1.0 + budget
    print(
        f"perf gate [{key}]: baseline={base_value:.6f} current={current_value:.6f} "
        f"ratio={ratio:.3f} (limit {1.0 + budget:.2f}) -> {'ok' if passed else 'REGRESSION'}"
    )
    return passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_serve.json to compare against")
    parser.add_argument("current", help="freshly measured BENCH_serve.json")
    args = parser.parse_args(argv)

    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.current, "r", encoding="utf-8") as handle:
        current = json.load(handle)

    # A list, not a generator under all(): every key prints its line.
    results = [
        check_key(key, budget, baseline, current) for key, budget in PERF_BUDGETS.items()
    ]
    if all(results):
        return 0
    if _skip_requested():
        print("perf gate: PERF_GATE_SKIP set, reporting only")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
