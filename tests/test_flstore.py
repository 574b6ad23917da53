"""End-to-end behaviour of the FLStore facade."""

from __future__ import annotations

import pytest

from repro.common.errors import WorkloadError
from repro.core.flstore import FLStore, build_default_flstore
from repro.core.policies.traditional import CapacityBoundPolicy
from repro.core.serverless_cache import ServerlessCacheCluster
from repro.fl.keys import DataKey
from repro.serverless.faults import ZipfianFaultInjector
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.base import WorkloadRequest
from repro.workloads.registry import get_workload, list_workloads


class TestIngestion:
    def test_ingest_populates_catalog_and_cache(self, flstore, rounds):
        assert len(flstore.catalog) == len(rounds)
        assert flstore.cached_bytes > 0
        assert flstore.warm_function_count >= 1
        assert flstore.ingest_cost.total_dollars > 0

    def test_persistent_store_holds_every_round(self, flstore, rounds):
        for record in rounds:
            for key in record.all_keys():
                assert flstore.persistent_store.contains(key)

    def test_tailored_policy_keeps_bounded_working_set(self, small_config, rounds):
        system = build_default_flstore(small_config)
        for record in rounds:
            system.ingest_round(record)
        # Only the last couple of rounds of updates (plus metadata window and
        # the latest aggregate) should be resident, not all ten rounds.
        spec_bytes = rounds[0].update_bytes
        assert system.cached_bytes < 4 * spec_bytes


class TestServing:
    def test_serve_returns_result_latency_and_cost(self, flstore):
        request = flstore.make_request("malicious_filtering", round_id=9)
        result = flstore.serve(request)
        assert result.workload == "malicious_filtering"
        assert result.latency.total_seconds > 0
        assert result.cost.total_dollars > 0
        assert result.cache_hits + result.cache_misses > 0
        assert result.served_by

    def test_warm_request_hits_cache(self, flstore):
        latest = flstore.catalog.latest_round
        result = flstore.serve(flstore.make_request("malicious_filtering", round_id=latest))
        assert result.cache_misses == 0
        assert result.hit_rate == 1.0
        # Co-located execution: communication latency is negligible compared
        # to the baseline's tens of seconds.
        assert result.latency.communication_seconds < 1.0

    def test_cold_request_fetches_from_persistent_store(self, flstore):
        result = flstore.serve(flstore.make_request("malicious_filtering", round_id=0))
        assert result.cache_misses > 0
        assert result.latency.communication_seconds > 1.0

    def test_prefetch_makes_next_round_a_hit(self, flstore):
        cold = flstore.serve(flstore.make_request("clustering", round_id=0))
        assert cold.cache_misses > 0
        warm = flstore.serve(flstore.make_request("clustering", round_id=1))
        assert warm.cache_misses == 0

    def test_request_tracker_records_completion(self, flstore):
        request = flstore.make_request("inference", round_id=flstore.catalog.latest_round)
        flstore.serve(request)
        assert flstore.tracker.is_completed(request.request_id)

    def test_duplicate_request_id_rejected(self, flstore):
        request = WorkloadRequest(request_id="dup", workload="inference", round_id=9)
        flstore.serve(request)
        with pytest.raises(ValueError):
            flstore.serve(request)

    def test_results_are_persisted(self, flstore):
        request = flstore.make_request("inference", round_id=9)
        flstore.serve(request)
        assert flstore.persistent_store.contains(("result", request.request_id))

    def test_every_registered_workload_can_be_served(self, flstore):
        from repro.workloads.registry import list_workloads

        latest = flstore.catalog.latest_round
        client = flstore.catalog.participants(latest)[0]
        for name in list_workloads():
            result = flstore.serve(flstore.make_request(name, round_id=latest, client_id=client))
            assert isinstance(result.result, dict)

    def test_clock_advances_with_serving(self, flstore):
        before = flstore.clock.now()
        flstore.serve(flstore.make_request("clustering", round_id=9))
        assert flstore.clock.now() > before


class TestServiceLatency:
    """``service_latency`` is ``serve`` without the workload and the result write."""

    def test_it_returns_the_served_latency_and_leaves_the_same_state(self, small_config, rounds):
        served, timed = build_default_flstore(small_config), build_default_flstore(small_config)
        for system in (served, timed):
            for record in rounds:
                system.ingest_round(record)
        trace = RequestTraceGenerator(served.catalog, seed=3).mixed_trace(list_workloads(), 80)
        for request in trace:
            assert timed.service_latency(request) == served.serve(request).latency
            assert timed.tracker.is_completed(request.request_id)
        assert timed.clock.now() == served.clock.now()
        assert timed.cluster.cached_keys() == served.cluster.cached_keys()
        # Only the results are missing from the persistent store.
        stored, written = set(timed.persistent_store.keys()), set(served.persistent_store.keys())
        assert written - stored == {("result", request.request_id) for request in trace}
        assert stored <= written

    def test_a_missing_aggregate_fails_before_the_prefetch_and_the_clock(self, flstore):
        """Inference raises where it executes: after the invoke, before the prefetch."""
        missing, following = DataKey.aggregate(2), DataKey.aggregate(3)
        flstore.persistent_store.delete(missing)
        assert not flstore.cluster.is_live(missing)
        assert not flstore.cluster.is_live(following)
        assert flstore.persistent_store.contains(following)
        now, cached = flstore.clock.now(), flstore.cluster.cached_keys()
        with pytest.raises(WorkloadError, match="missing 1 required"):
            flstore.serve(flstore.make_request("inference", round_id=2))
        assert flstore.clock.now() == now
        assert flstore.cluster.cached_keys() == cached
        # Without the workload the same request goes on: P1 prefetches the
        # next round's aggregate and the clock moves.
        flstore.service_latency(flstore.make_request("inference", round_id=2))
        assert flstore.cluster.is_live(following)
        assert flstore.clock.now() > now


class TestHitCallbacks:
    """The policy hears of each hit exactly when it records accesses."""

    def test_lru_store_records_every_hit_in_key_order(self, small_config, rounds, monkeypatch):
        store = build_default_flstore(small_config, policy_mode="lru")
        for record in rounds:
            store.ingest_round(record)
        store.serve(store.make_request("clustering", round_id=5))  # misses admit the round
        calls = []
        record_access = CapacityBoundPolicy.record_access

        def recording(self, key, hit, now):
            calls.append((key, hit))
            return record_access(self, key, hit, now)

        monkeypatch.setattr(CapacityBoundPolicy, "record_access", recording)
        request = store.make_request("clustering", round_id=5)
        served = store.serve(request)
        keys = get_workload("clustering").required_keys(request, store.catalog)
        assert served.cache_hits == len(keys) > 0
        assert calls == [(key, True) for key in keys]

    def test_tailored_store_gathers_without_a_hit_callback(self, flstore, monkeypatch):
        callbacks = []
        gather = ServerlessCacheCluster.gather

        def recording(self, keys, on_hit, on_miss):
            callbacks.append(on_hit)
            return gather(self, keys, on_hit, on_miss)

        monkeypatch.setattr(ServerlessCacheCluster, "gather", recording)
        served = flstore.serve(flstore.make_request("clustering", round_id=9))
        assert served.cache_hits > 0
        assert callbacks == [None]


class TestSpawnLatencyAccounting:
    def test_empty_fleet_spawn_latency_is_charged(self, small_config):
        """Serving with no warm functions spawns one and charges its cold start."""
        system = build_default_flstore(small_config)
        # No ingestion: the fleet is empty and nothing is cached, so the
        # execution function must be spawned on demand.
        assert system.warm_function_count == 0
        system.catalog.register_membership(0, [1, 2])
        result = system.serve(system.make_request("clustering", round_id=0))
        assert system.warm_function_count == 1
        assert result.latency.cold_start_seconds >= small_config.serverless.cold_start_seconds

    def test_any_warm_function_returns_zero_latency_when_warm(self, flstore):
        function_id, latency = flstore._any_warm_function()
        assert flstore.platform.get_function(function_id).is_warm
        assert latency.total_seconds == 0.0

    def test_any_warm_function_spawns_and_reports_latency(self, small_config):
        system = build_default_flstore(small_config)
        function_id, latency = system._any_warm_function()
        assert system.platform.get_function(function_id).is_warm
        assert latency.cold_start_seconds == small_config.serverless.cold_start_seconds


class TestCostModel:
    def test_flstore_request_is_orders_cheaper_than_aggregator_hour(self, flstore):
        result = flstore.serve(flstore.make_request("cosine_similarity", round_id=9))
        assert result.cost.total_dollars < 0.01

    def test_standby_cost_is_tiny(self, flstore):
        standby = flstore.standby_cost(50.0)
        assert standby.total_dollars < 0.1

    def test_component_overhead_reports_both_components(self, flstore):
        overhead = flstore.component_overhead()
        assert overhead["cache_engine_bytes"] > 0
        assert overhead["request_tracker_bytes"] >= 0


class TestFaultTolerance:
    def _build(self, small_config, rounds, replication, fault_rate):
        injector = ZipfianFaultInjector(fault_rate=fault_rate, seed=5)
        system = build_default_flstore(small_config.with_serverless(replication_factor=replication))
        for record in rounds:
            system.ingest_round(record)
        return system, injector

    def test_faults_do_not_break_serving(self, small_config, rounds):
        system, injector = self._build(small_config, rounds, replication=0, fault_rate=0.5)
        for i in range(6, 10):
            injector.strike(system)
            result = system.serve(system.make_request("malicious_filtering", round_id=i))
            assert isinstance(result.result, dict)

    def test_replication_reduces_miss_penalty_under_faults(self, small_config, rounds):
        unreplicated = self._build(small_config, rounds, replication=0, fault_rate=0.6)
        replicated = self._build(small_config, rounds, replication=2, fault_rate=0.6)
        def total_misses(system, injector):
            misses = 0
            for i in range(4, 10):
                injector.strike(system)
                misses += system.serve(system.make_request("clustering", round_id=i)).cache_misses
            return misses

        assert total_misses(*replicated) <= total_misses(*unreplicated)

    def test_policy_mode_variants_build_and_serve(self, small_config, rounds):
        for mode in ("lru", "fifo", "static", "random-policy", "limited"):
            system = build_default_flstore(small_config, policy_mode=mode)
            for record in rounds[:3]:
                system.ingest_round(record)
            result = system.serve(system.make_request("malicious_filtering", round_id=2))
            assert isinstance(result.result, dict)


class TestBuilder:
    def test_builder_rejects_unknown_policy(self, small_config):
        with pytest.raises(ValueError):
            build_default_flstore(small_config, policy_mode="quantum")

    def test_default_build_is_flstore_instance(self, small_config):
        assert isinstance(build_default_flstore(small_config), FLStore)
