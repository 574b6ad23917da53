"""Self-test of the benchmark at smoke size.

Runs every workload through the same harness functions the benchmark uses,
untraced and traced, at ``smoke_spec`` size, and checks that the metric
tables agree with ``BENCHMARK.json``, that no run fails its output check,
and that the traced layer counts repeat exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import harness
from repro.analysis import setup_cache
from repro.scenario import clear_calibration_cache
from suite import END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module", autouse=True)
def fresh_caches():
    """Leave the process-wide setup caches as a fresh process has them."""
    yield
    setup_cache.clear()
    clear_calibration_cache()


def test_tables_match_benchmark_json():
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name):
    result = harness.measure(name, seed=7, seconds=0, smoke=True)
    assert result["errors"] == []
    assert result["failed"] == 0
    units = {key: metric["unit"] for key, metric in result["metrics"].items()}
    assert units == {**END_TO_END, **REPORTED_ONLY}
    assert result["metrics"]["fail_rate"]["value"] == 0

    # A traced pass fails unless every wrapper target exists and every layer
    # count (calls, events, cache hits and misses, hence place_per_serve and
    # hit_ratio) repeats exactly across its traced runs.
    traced = harness.trace(name, seed=7, seconds=0, smoke=True)
    assert traced["details"]["pairs"] >= 2
    assert traced["errors"] == []
    assert traced["failed"] == 0
    assert {key: metric["unit"] for key, metric in traced["metrics"].items()} == PER_LAYER
    # Tracing must not change what the program computes.
    assert traced["instance_digests"] == result["instance_digests"][:1]
