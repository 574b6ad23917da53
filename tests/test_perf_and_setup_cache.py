"""Setup cache, snapshot copies, a scenario tier's set-up, accumulators, parallel runner."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import setup_cache
from repro.analysis.runner import map_tasks, prepare_setup, run_trace
from repro.cloud.object_store import ObjectStore
from repro.config import QUEUE_DISCIPLINES, SHED_POLICIES, SimulationConfig
from repro.scenario import (
    ScenarioSpec,
    WorkloadMixSpec,
    build_tier,
    calibrate,
    calibrate_mean_service_seconds,
    clear_calibration_cache,
    get_scenario,
    list_scenarios,
    scenario_config,
    sweep,
)
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
        # Different round counts are distinct entries.
        setup_cache.simulate_rounds(config, 4)
        assert setup_cache.stats.rounds_misses == 2
        # The simulator reads only the job config and the seed, so configs
        # that differ elsewhere share one entry...
        elsewhere = replace(
            config,
            serverless=replace(config.serverless, cold_start_seconds=3.0, replication_factor=2),
            network=replace(config.network, client_rtt_seconds=0.5),
            trace_num_requests=7,
        )
        assert setup_cache.simulate_rounds(elsewhere, 3) is first
        assert setup_cache.stats.rounds_misses == 2
        # ...and a different job field or seed is a new one.
        other_job = setup_cache.simulate_rounds(config.with_job(clients_per_round=4), 3)
        other_seed = setup_cache.simulate_rounds(replace(config, seed=20), 3)
        assert other_job is not first and other_seed is not first
        assert setup_cache.stats.rounds_misses == 4

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


#: The tier knobs a spec hands its front door, each at its default.
_DEFAULT_TIER_KNOBS = {
    "tier.admission.max_queue_depth": 0,
    "tier.admission.shed_policy": "drop",
    "tier.function_concurrency": 1,
    "tier.queue_discipline": "fifo",
}

#: The same knobs as spec overrides, drawn over their valid values.
_tier_knobs = st.fixed_dictionaries(
    {
        "tier.admission.max_queue_depth": st.integers(min_value=0, max_value=8),
        "tier.admission.shed_policy": st.sampled_from(SHED_POLICIES),
        "tier.function_concurrency": st.integers(min_value=1, max_value=4),
        "tier.queue_discipline": st.sampled_from(QUEUE_DISCIPLINES),
    }
)


class TestScenarioSetUp:
    """A tier calibrates on the config it is built from, so it sets up once."""

    @pytest.fixture(autouse=True)
    def cold_calibration(self):
        clear_calibration_cache()
        yield
        clear_calibration_cache()

    @pytest.mark.parametrize("name", list_scenarios())
    def test_calibration_equals_the_one_with_default_tier_knobs(self, name):
        spec = get_scenario(name)
        on_tier = calibrate(spec)
        clear_calibration_cache()
        assert calibrate(spec.with_overrides(_DEFAULT_TIER_KNOBS)) == on_tier

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(knobs=_tier_knobs, seed=st.sampled_from((7, 11)))
    def test_tier_knobs_never_move_a_calibration(self, knobs, seed):
        spec = ScenarioSpec(
            name="knobs",
            seed=seed,
            num_rounds=4,
            workload=WorkloadMixSpec(
                workloads=("clustering", "inference", "scheduling_perf", "incentives"),
                num_requests=24,
            ),
        )
        clear_calibration_cache()
        expected = calibrate(spec)
        clear_calibration_cache()
        assert calibrate(spec.with_overrides(knobs)) == expected

    def test_the_memo_is_shared_across_tier_knobs_only(self):
        spec = ScenarioSpec(
            name="memo",
            model="resnet18",
            num_rounds=3,
            workload=WorkloadMixSpec(workloads=("inference",), num_requests=8),
        )
        first = calibrate(spec)
        misses = setup_cache.stats.snapshot_misses
        tiered = spec.with_overrides({"tier.function_concurrency": 2})
        assert calibrate(tiered) == first
        assert setup_cache.stats.snapshot_misses == misses  # answered by the memo
        # Any config field is a different calibration, not a stale memo entry.
        paper = scenario_config(spec)
        slower = replace(paper, network=replace(paper.network, client_rtt_seconds=1.0))
        assert calibrate_mean_service_seconds(slower, ("inference",), 3, 8) > first

    def test_a_tier_knob_sweep_sets_up_once(self):
        """Cells that differ only in tier knobs share one config, so one master."""
        axes = {
            "tier.queue_discipline": ["fifo", "wfq", "drr"],
            "tier.admission.max_queue_depth": [8, 16],
        }
        rows = sweep(get_scenario("noisy-neighbor"), axes)
        assert setup_cache.stats.snapshot_misses == 1
        assert setup_cache.stats.snapshot_hits == 6
        # Recorded when each knob cell built its own master: sharing one
        # moves no row.
        assert [row["p99_sojourn_seconds"] for row in rows] == [
            178.42486501984195,
            195.43644332746115,
            174.325991783059,
            210.7088260741732,
            171.5191620167298,
            209.54899021546657,
        ]

    @pytest.mark.parametrize("name", list_scenarios())
    def test_calibration_is_the_mean_served_latency(self, name):
        spec = get_scenario(name)
        calibrated = calibrate(spec)
        # The reference: serve calibration's own sample on a fresh setup and
        # average what ``serve`` returns.
        if spec.tenants:
            mix = sorted({workload for tenant in spec.tenants for workload in tenant.workloads})
            num_requests = sum(tenant.num_requests for tenant in spec.tenants)
        else:
            mix, num_requests = list(spec.workload.workloads), spec.workload.num_requests
        setup_cache.clear()
        config = scenario_config(spec)
        setup = prepare_setup(config, num_rounds=spec.num_rounds, systems=("flstore",))
        trace = setup.generator.mixed_trace(mix, min(num_requests, 256))
        served = [setup.flstore.serve(request).latency.total_seconds for request in trace]
        assert calibrated == float(np.mean(served))

    @pytest.mark.parametrize("name", list_scenarios())
    def test_a_cold_calibration_computes_nothing_and_writes_no_result(
        self, name, compute_calls, monkeypatch
    ):
        writes = []
        put = ObjectStore.put

        def recording(self, key, value, size_bytes=None):
            writes.append(key)
            return put(self, key, value, size_bytes)

        monkeypatch.setattr(ObjectStore, "put", recording)
        calibrate(get_scenario(name))
        assert setup_cache.stats.snapshot_misses == 1  # cold: it ingested the master
        assert compute_calls[0] == 0
        assert not [key for key in writes if isinstance(key, tuple) and key[0] == "result"]

    @pytest.mark.parametrize("name", list_scenarios())
    def test_a_cold_build_simulates_once_and_ingests_once(self, name):
        spec = get_scenario(name)
        build_tier(spec)
        stats = setup_cache.stats
        assert (stats.rounds_misses, stats.snapshot_misses) == (1, 1)
        # Every shard is a snapshot of the one master calibration built.
        assert stats.snapshot_hits == spec.tier.shards


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
