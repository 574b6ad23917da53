"""Value-level pin of ``FLStore.serve`` under faults, replication and reactive admission.

``tests/data/serve_outcomes.json`` holds, for every cell of replication
factor 0, 1 and 2 x policy ``tailored`` and ``lru``, what each request of one
mixed trace (every registered workload) got back from ``FLStore.serve``:
hit, miss, failover, prefetch and eviction counts, the misses it admitted,
the functions it was served by and executed on, every latency and cost
component (in ``LatencyBreakdown`` and ``CostBreakdown`` field order), and
a sha256 of the workload result's canonical JSON.

Every cell strikes the store with a ``ZipfianFaultInjector`` (rate 0.3)
before each request, so primaries are lost and replicas answer; functions
are small, so a request's hits span several functions; and ``lru`` admits
every miss into a capacity it overflows, so admissions evict keys in the
middle of a gather.
``RunReport`` digests leave results out, so this is the check on them.

The fixture is recorded only from *pre-change* code, as with
``tests/data/golden_sweeps/``::

    PYTHONPATH=src python tests/test_serve_outcomes.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import setup_cache
from repro.common.units import MB
from repro.config import CachePolicyConfig, SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.serverless.faults import ZipfianFaultInjector
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.registry import get_workload, list_workloads

FIXTURE = Path(__file__).parent / "data" / "serve_outcomes.json"

REPLICATION_FACTORS = (0, 1, 2)
POLICIES = ("tailored", "lru")
NUM_ROUNDS = 8
NUM_REQUESTS = 120


def _config() -> SimulationConfig:
    """Small functions (a few updates each) and an LRU capacity the trace overflows."""
    base = SimulationConfig.small(seed=13)
    return dataclasses.replace(
        base,
        serverless=dataclasses.replace(base.serverless, default_function_memory_bytes=192 * MB),
        cache_policy=CachePolicyConfig(traditional_policy_capacity_bytes=400 * MB),
    )


def _plain(value):
    """JSON form of the numpy values workload results carry."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"unexpected {type(value).__name__} in a workload result")


def result_digest(result: dict) -> str:
    """sha256 of a workload result's canonical JSON."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def serve_cell(replication_factor: int, policy: str) -> list[dict]:
    """Serve the mixed trace on one freshly ingested store; one row per request."""
    config = _config()
    rounds = setup_cache.simulate_rounds(config, NUM_ROUNDS)
    store = build_default_flstore(
        config.with_serverless(replication_factor=replication_factor), policy_mode=policy
    )
    injector = ZipfianFaultInjector(fault_rate=0.3, seed=5)
    for record in rounds:
        store.ingest_round(record)
    generator = RequestTraceGenerator(store.catalog, seed=13)
    trace = generator.mixed_trace(list_workloads(), NUM_REQUESTS)

    # Count the admissions of a request's own (missed) keys; prefetches admit
    # other rounds' keys.
    required: set = set()
    admitted = [0]
    admit = store.engine.admit

    def counting_admit(key, value, now=0.0):
        admitted[0] += key in required
        return admit(key, value, now=now)

    store.engine.admit = counting_admit
    rows = []
    for request in trace:
        required = set(get_workload(request.workload).required_keys(request, store.catalog))
        admitted[0] = 0
        injector.strike(store)
        served = store.serve(request)
        rows.append(
            {
                "request_id": served.request_id,
                "workload": served.workload,
                "cache_hits": served.cache_hits,
                "cache_misses": served.cache_misses,
                "failovers": served.failovers,
                "prefetched_keys": served.prefetched_keys,
                "evicted_keys": served.evicted_keys,
                "admitted_misses": admitted[0],
                "served_by": served.served_by,
                "execution_function": served.execution_function,
                "latency": dataclasses.astuple(served.latency),
                "cost": dataclasses.astuple(served.cost),
                "result_sha256": result_digest(served.result),
            }
        )
    return rows


def serve_outcomes() -> dict[str, list[dict]]:
    return {
        f"{policy}/rf{factor}": serve_cell(factor, policy)
        for factor in REPLICATION_FACTORS
        for policy in POLICIES
    }


@pytest.fixture(scope="module")
def recorded() -> dict[str, list[dict]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_failover_admission_and_spread_hits(recorded):
    rows = [row for cell in recorded.values() for row in cell]
    assert len(recorded) == len(REPLICATION_FACTORS) * len(POLICIES)
    assert {row["workload"] for row in rows} == set(list_workloads())
    assert any(row["failovers"] for row in rows)
    assert any(row["admitted_misses"] for row in rows)
    # Hits on two or more functions: ``served_by`` lists every hit holder,
    # and without an admission the executing function is one of them.
    assert any(
        row["cache_hits"] and not row["admitted_misses"] and len(row["served_by"]) >= 2
        for row in rows
    )
    # Misses admitted next to hits spread over functions: the execution pick
    # must tally the cache as the admissions left it.
    assert any(
        row["admitted_misses"] and row["cache_hits"] and len(row["served_by"]) >= 2 for row in rows
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("replication_factor", REPLICATION_FACTORS)
def test_serve_outcomes_match_fixture(recorded, replication_factor, policy):
    expected = recorded[f"{policy}/rf{replication_factor}"]
    actual = json.loads(json.dumps(serve_cell(replication_factor, policy)))
    assert len(actual) == len(expected) == NUM_REQUESTS
    for got, want in zip(actual, expected):
        assert got == want, got["request_id"]


def fixture_text(outcomes: dict[str, list[dict]]) -> str:
    """The fixture's JSON, one compact request row per line."""
    cells = []
    for cell, rows in outcomes.items():
        lines = ",\n".join("  " + json.dumps(row, separators=(",", ":")) for row in rows)
        cells.append(f"{json.dumps(cell)}: [\n{lines}\n ]")
    return "{\n " + ",\n ".join(cells) + "\n}\n"


if __name__ == "__main__":
    FIXTURE.write_text(fixture_text(serve_outcomes()))
