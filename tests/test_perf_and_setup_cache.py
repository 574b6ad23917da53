"""Setup cache, snapshot copies, accumulators, parallel runner."""

from __future__ import annotations

import pytest

from repro.analysis import setup_cache
from repro.analysis.runner import map_tasks, prepare_setup, run_trace
from repro.config import SimulationConfig
from repro.simulation.records import (
    CostAccumulator,
    CostBreakdown,
    LatencyAccumulator,
    LatencyBreakdown,
)


@pytest.fixture(autouse=True)
def fresh_setup_cache():
    """Each test starts from an empty cache and leaves none behind."""
    setup_cache.clear()
    yield
    setup_cache.clear()


def _tiny_config():
    return SimulationConfig.small(seed=19)


class TestSetupCache:
    def test_rounds_are_cached_per_config(self):
        config = _tiny_config()
        first = setup_cache.simulate_rounds(config, 3)
        second = setup_cache.simulate_rounds(config, 3)
        assert first is second
        assert setup_cache.stats.rounds_hits == 1
        assert setup_cache.stats.rounds_misses == 1
        # Different round counts (or configs) are distinct entries.
        setup_cache.simulate_rounds(config, 4)
        assert setup_cache.stats.rounds_misses == 2

    def test_snapshot_hit_serves_equal_but_independent_systems(self):
        config = _tiny_config()
        first = prepare_setup(config, num_rounds=3, systems=("flstore",))
        second = prepare_setup(config, num_rounds=3, systems=("flstore",))
        assert setup_cache.stats.snapshot_hits == 1
        assert first.flstore is not second.flstore
        # Same deterministic state: serving the same request gives the same
        # latency/cost on both copies.
        req_a = first.flstore.make_request("clustering", round_id=2)
        req_b = second.flstore.make_request("clustering", round_id=2)
        result_a = first.flstore.serve(req_a)
        result_b = second.flstore.serve(req_b)
        assert result_a.latency == result_b.latency
        assert result_a.cost == result_b.cost

    def test_serving_one_snapshot_does_not_leak_into_the_next(self):
        config = _tiny_config()
        warm = prepare_setup(config, num_rounds=3, systems=("flstore",))
        for _ in range(3):
            warm.flstore.serve(warm.flstore.make_request("clustering", round_id=0))
        fresh = prepare_setup(config, num_rounds=3, systems=("flstore",))
        # The pristine master must not have been mutated by the serving above.
        assert len(fresh.flstore.tracker) == 0
        assert fresh.flstore.clock.now() == 0.0

    def test_snapshot_copy_shares_payload_arrays(self):
        config = _tiny_config()
        setup = prepare_setup(config, num_rounds=2, systems=("flstore",))
        copy = setup_cache.snapshot_copy(setup.systems)
        original = setup.systems["flstore"]
        cloned = copy["flstore"]
        key = next(iter(original.cluster.cached_keys()))
        assert cloned.cluster.get_object(key) is original.cluster.get_object(key)
        # Mutable structure is independent: evicting in the copy does not
        # touch the original.
        cloned.cluster.evict(key)
        assert original.cluster.is_live(key)
        assert not cloned.cluster.is_live(key)


class TestAccumulators:
    def test_latency_accumulator_matches_folded_addition(self):
        parts = [
            LatencyBreakdown(communication_seconds=0.25, queueing_seconds=0.5),
            LatencyBreakdown(computation_seconds=1.5, cold_start_seconds=0.125),
            LatencyBreakdown(communication_seconds=0.1),
        ]
        folded = LatencyBreakdown.zero()
        acc = LatencyAccumulator()
        for part in parts:
            folded = folded + part
            acc.add(part)
        assert acc.finalize() == folded
        assert acc.total_seconds == folded.total_seconds

    def test_cost_accumulator_matches_folded_addition(self):
        parts = [
            CostBreakdown(transfer_dollars=0.5, request_dollars=0.25),
            CostBreakdown(compute_dollars=1.0, provisioned_dollars=0.125),
            CostBreakdown(storage_dollars=0.0625),
        ]
        folded = CostBreakdown.zero()
        acc = CostAccumulator()
        for part in parts:
            folded = folded + part
            acc.add(part)
        assert acc.finalize() == folded

    def test_accumulator_initial_value(self):
        seeded = LatencyAccumulator(LatencyBreakdown(communication_seconds=2.0))
        assert seeded.finalize() == LatencyBreakdown(communication_seconds=2.0)


def _square(value: int) -> int:
    return value * value


class TestParallelRunner:
    def test_map_tasks_serial_matches_parallel(self):
        items = list(range(8))
        assert map_tasks(_square, items, workers=1) == [v * v for v in items]
        assert map_tasks(_square, items, workers=3) == [v * v for v in items]

    def test_run_trace_on_snapshot(self):
        config = _tiny_config()
        setup = prepare_setup(config, num_rounds=3, systems=("flstore",))
        trace = setup.generator.workload_trace("clustering", 2)
        records = run_trace(setup.flstore, trace, system_name="flstore", model_name="m")
        assert len(records) == 2
