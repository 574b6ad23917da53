"""Shared helpers for the paper-shape checks in ``benchmarks/``.

Each benchmark regenerates one table or figure of the paper's evaluation at a
reduced (but shape-preserving) scale, times the end-to-end experiment with
``pytest-benchmark``, and prints the regenerated rows so the run output can be
compared side by side with the paper (see EXPERIMENTS.md).

The files are named ``bench_*.py``, which pytest does not collect by
default, so name them explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import pytest

from repro.analysis.perf import tune_gc
from repro.analysis.tables import format_table

# The benchmark process accumulates large immutable setup-cache masters;
# default GC thresholds rescan them constantly (see repro.analysis.perf).
tune_gc()


def run_and_report(
    benchmark,
    experiment: Callable[[], Any],
    title: str,
    columns: Sequence[str] | None = None,
) -> Any:
    """Run ``experiment`` once under the benchmark timer and print its rows."""
    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = result["rows"] if isinstance(result, Mapping) and "rows" in result else result
    print()
    if isinstance(rows, Sequence) and rows and isinstance(rows[0], Mapping):
        print(format_table(list(rows), columns=columns, title=title))
    else:
        print(title)
        print(rows)
    if isinstance(result, Mapping):
        extras = {k: v for k, v in result.items() if k != "rows" and not isinstance(v, (list, dict))}
        if extras:
            print("summary:", extras)
    return result


@pytest.fixture()
def report(benchmark):
    """Fixture wrapping :func:`run_and_report` with the current benchmark."""

    def _report(experiment, title, columns=None):
        return run_and_report(benchmark, experiment, title, columns)

    return _report
