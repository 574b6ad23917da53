"""Setup cache, snapshot copies, a tier's set-up, slotted records, accumulators, parallel runner."""

from __future__ import annotations

import dataclasses
import gc
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import setup_cache
from repro.analysis.runner import map_tasks, prepare_setup, run_trace
from repro.cloud.object_store import ObjectStore, _StoredObject
from repro.config import QUEUE_DISCIPLINES, SHED_POLICIES, SimulationConfig
from repro.core.serverless_cache import PlacementResult
from repro.engine.autoscale import ControlSignals, ScaleDecision, ScaleEvent
from repro.engine.faults import FaultRecord
from repro.engine.remediate import Anomaly, Proposal, RemediationRecord
from repro.fl.clients import ClientDevice, ClientPopulation
from repro.fl.keys import DataKey
from repro.fl.metadata import ClientRoundMetadata, HyperParameters, ResourceProfile
from repro.fl.models import ModelUpdate
from repro.fl.rounds import RoundRecord
from repro.fl.trainer import FLJobSimulator
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
from repro.workloads.base import WorkloadRequest


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

    def test_the_rounds_cache_holds_rounds_only(self):
        setup = prepare_setup(_tiny_config(), num_rounds=3, systems=("flstore",))
        assert not hasattr(setup, "simulator")
        (entry,) = setup_cache._rounds_cache.values()
        assert entry is setup.rounds
        assert type(entry) is list and [type(r) for r in entry] == [RoundRecord] * 3
        # Nothing the cache reaches is the simulator or its client population.
        reached = _reachable_types(setup_cache._rounds_cache)
        assert RoundRecord in reached and ModelUpdate in reached
        assert not reached & {FLJobSimulator, ClientPopulation, ClientDevice}

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


def _reachable_types(root) -> set[type]:
    """Types of every object reachable from ``root`` through containers and repro objects."""
    seen: set[int] = set()
    found: set[type] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.add(type(obj))
        if isinstance(obj, (list, tuple, dict)) or type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return found


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


def _aggregate_model() -> ModelUpdate:
    return ModelUpdate(
        client_id=-1, round_id=0, model_name="resnet18", weights=np.zeros(4), size_bytes=1
    )


#: One instance of every record type the simulator holds in bulk: per request
#: (requests, latency and cost breakdowns, placements, stored objects), per
#: control tick (signals, decisions, events, anomalies, proposals, remediation
#: and fault records) and per FL object (updates, metadata, rounds, devices).
_BULK_RECORDS = [
    LatencyBreakdown(communication_seconds=0.5),
    CostBreakdown(transfer_dollars=0.25),
    WorkloadRequest(request_id="r-1", workload="clustering", round_id=0),
    _StoredObject(value=b"blob", size_bytes=4),
    PlacementResult(key=DataKey.aggregate(0), primary_function_id="fn-0"),
    Anomaly(time=1.0, kind="queue-depth", value=9.0, baseline=2.0),
    Proposal(action="add-shard", reason="queue depth"),
    RemediationRecord(
        time=1.0, anomalies=("queue-depth",), action="add-shard", accepted=True, reason="ok"
    ),
    ControlSignals(
        now=1.0,
        queue_depth=3,
        arrival_rate=2.0,
        arrival_rate_ewma=2.0,
        shed_delta=0,
        degraded_delta=0,
        requeued_delta=0,
        active_shards=1,
        slots_per_function=1,
        capacity_units=1,
        inflight=4,
    ),
    ScaleDecision(target_capacity_units=2, reason="up"),
    ScaleEvent(
        time=1.0, action="slots-up", reason="up", shards=1, slots_per_function=2, capacity_units=2
    ),
    FaultRecord(time=1.0, clause_index=0, kind="shard-crash", detail="shard 1"),
    _aggregate_model(),
    HyperParameters(),
    ResourceProfile(),
    ClientRoundMetadata(
        client_id=3, round_id=0, hyperparameters=HyperParameters(), resources=ResourceProfile()
    ),
    ClientDevice(
        client_id=3, cluster_id=0, resources=ResourceProfile(), num_samples=8, data_quality=0.9
    ),
    RoundRecord(round_id=0, updates={}, aggregate=_aggregate_model()),
]


class TestBulkRecords:
    """Records held per request, per control tick and per FL object carry no instance dict."""

    @pytest.mark.parametrize("record", _BULK_RECORDS, ids=lambda record: type(record).__name__)
    def test_the_record_is_slotted(self, record):
        cls = type(record)
        assert "__slots__" in cls.__dict__
        assert not hasattr(record, "__dict__")
        assert cls.__slots__ == tuple(field.name for field in dataclasses.fields(cls))

    @pytest.mark.parametrize("record", _BULK_RECORDS, ids=lambda record: type(record).__name__)
    def test_the_record_keeps_its_behaviour(self, record):
        cls = type(record)
        field = dataclasses.fields(cls)[0].name
        if cls.__dataclass_params__.frozen:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, getattr(record, field))
        # Snapshots and worker processes pickle records; a copy keeps every field.
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


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
