"""Serverless cache cluster, Cache Engine, and Request Tracker."""

from __future__ import annotations

import pytest

from repro.cloud.object_store import ObjectStore
from repro.common.errors import CapacityError, DataNotFoundError
from repro.common.units import GB, MB
from repro.config import PricingConfig, ServerlessConfig
from repro.core.cache_engine import CacheEngine
from repro.core.policies.factory import make_policy_bundle
from repro.core.request_tracker import RequestTracker
from repro.core.serverless_cache import ServerlessCacheCluster
from repro.fl.keys import DataKey
from repro.serverless.platform import ServerlessPlatform
from repro.workloads.base import WorkloadRequest


@pytest.fixture()
def platform():
    return ServerlessPlatform(ServerlessConfig(), PricingConfig())


@pytest.fixture()
def cluster(platform):
    return ServerlessCacheCluster(platform, replication_factor=0)


@pytest.fixture()
def replicated_cluster(platform):
    return ServerlessCacheCluster(platform, replication_factor=2)


@pytest.fixture()
def engine(cluster, topology, cost_model):
    store = ObjectStore(topology.objstore, cost_model)
    return CacheEngine(make_policy_bundle("tailored"), cluster, store)


class TestServerlessCacheCluster:
    def test_place_and_get(self, cluster):
        key = DataKey.update(1, 0)
        placement = cluster.place(key, {"w": 1}, size_bytes=50 * MB)
        assert cluster.contains(key)
        assert cluster.get_object(key) == {"w": 1}
        assert cluster.primary_function_of(key) == placement.primary_function_id

    def test_first_placement_spawns_function(self, cluster, platform):
        cluster.place(DataKey.update(1, 0), b"", size_bytes=10 * MB)
        assert platform.warm_count == 1

    def test_best_fit_reuses_existing_function(self, cluster, platform):
        cluster.place(DataKey.update(1, 0), b"", size_bytes=10 * MB)
        cluster.place(DataKey.update(2, 0), b"", size_bytes=10 * MB)
        assert platform.warm_count == 1

    def test_spawns_new_function_when_full(self, cluster, platform):
        big = int(3.9 * GB)
        cluster.place(DataKey.update(1, 0), b"", size_bytes=big)
        cluster.place(DataKey.update(2, 0), b"", size_bytes=big)
        assert platform.warm_count == 2

    def test_object_larger_than_max_memory_rejected(self, cluster):
        with pytest.raises(CapacityError):
            cluster.place(DataKey.update(1, 0), b"", size_bytes=30 * GB)

    def test_replication_places_copies_on_distinct_functions(self, replicated_cluster):
        key = DataKey.update(1, 0)
        placement = replicated_cluster.place(key, b"", size_bytes=10 * MB)
        assert len(placement.replica_function_ids) == 2
        assert placement.primary_function_id not in placement.replica_function_ids

    def test_failover_to_replica_after_reclamation(self, replicated_cluster, platform):
        key = DataKey.update(1, 0)
        placement = replicated_cluster.place(key, b"", size_bytes=10 * MB)
        platform.reclaim_function(placement.primary_function_id)
        resolved = replicated_cluster.resolve(key)
        assert resolved.is_hit
        assert resolved.failed_over
        assert resolved.function_id in placement.replica_function_ids

    def test_total_loss_without_replicas(self, cluster, platform):
        key = DataKey.update(1, 0)
        placement = cluster.place(key, b"", size_bytes=10 * MB)
        platform.reclaim_function(placement.primary_function_id)
        assert not cluster.resolve(key).is_hit
        assert cluster.drop_lost_keys() == [key]
        with pytest.raises(DataNotFoundError):
            cluster.get_object(key)

    def test_evict_removes_every_copy(self, replicated_cluster):
        key = DataKey.update(1, 0)
        replicated_cluster.place(key, b"", size_bytes=10 * MB)
        assert replicated_cluster.evict(key) is True
        assert not replicated_cluster.contains(key)
        assert replicated_cluster.evict(key) is False

    def test_cached_sizes_and_bytes(self, cluster):
        cluster.place(DataKey.update(1, 0), b"", size_bytes=10 * MB)
        cluster.place(DataKey.update(2, 0), b"", size_bytes=20 * MB)
        assert cluster.total_cached_bytes == 30 * MB
        assert cluster.cached_sizes()[DataKey.update(2, 0)] == 20 * MB
        assert len(cluster.cached_keys()) == 2

    def test_replacement_of_existing_key(self, cluster):
        key = DataKey.update(1, 0)
        cluster.place(key, b"old", size_bytes=10 * MB)
        cluster.place(key, b"new", size_bytes=15 * MB)
        assert cluster.get_object(key) == b"new"
        assert cluster.total_cached_bytes == 15 * MB

    def test_pick_execution_function_prefers_largest_share(self, cluster):
        big = int(3.9 * GB)
        key_a = DataKey.update(1, 0)
        key_b = DataKey.update(2, 0)
        cluster.place(key_a, b"", size_bytes=big)
        cluster.place(key_b, b"", size_bytes=10 * MB)
        chosen = cluster.pick_execution_function([key_a, key_b])
        assert chosen == cluster.primary_function_of(key_a)

    def test_pick_execution_function_none_when_nothing_cached(self, cluster):
        assert cluster.pick_execution_function([DataKey.update(9, 9)]) is None


class TestCacheEngine:
    def test_ingest_places_hot_data_and_backs_up_everything(self, engine, rounds):
        report = engine.ingest_round(rounds[0])
        assert report.admitted_keys > 0
        assert report.backup_cost.total_dollars > 0
        # Every object of the round is durable in the persistent store.
        for key in rounds[0].all_keys():
            assert engine.persistent_store.contains(key)

    def test_lookup_hits_and_misses(self, engine, rounds):
        engine.ingest_round(rounds[0])
        keys = rounds[0].update_keys()
        locations = engine.lookup(keys)
        assert all(locations[k] is not None for k in keys)
        assert engine.lookup([DataKey.update(999, 999)])[DataKey.update(999, 999)] is None

    def test_eviction_across_rounds(self, engine, rounds):
        for record in rounds[:3]:
            engine.ingest_round(record)
        # P2 keeps the latest round (plus the one before); round 0 must be gone.
        assert not any(engine.is_cached(k) for k in rounds[0].update_keys())
        assert all(engine.is_cached(k) for k in rounds[2].update_keys())

    def test_admit_single_object(self, engine, rounds):
        key = rounds[0].update_keys()[0]
        value = rounds[0].get(key)
        engine.admit(key, value)
        assert engine.is_cached(key)

    def test_register_location_and_overhead(self, engine):
        engine.register_location(DataKey.update(1, 1), "fn-0001")
        assert engine.location_of(DataKey.update(1, 1)) == "fn-0001"
        assert engine.location_of(DataKey.update(2, 2)) is None
        assert engine.memory_overhead_bytes() > 0

    def test_plan_request_uses_policy(self, engine, rounds):
        for record in rounds[:4]:
            engine.ingest_round(record)
        request = WorkloadRequest(request_id="q", workload="malicious_filtering", round_id=2)
        plan = engine.plan_request(request, rounds[2].update_keys())
        assert {k.round_id for k in plan.prefetch_keys} == {3}

    def test_placement_bug_propagates_instead_of_counting_as_a_failure(
        self, engine, rounds, monkeypatch
    ):
        """Only "no room" keeps an object cold; any other error from ``place``
        is a bug and must surface, not lower the hit ratio silently."""

        def broken_place(*args, **kwargs):
            raise KeyError("bug in placement")

        monkeypatch.setattr(engine.cluster, "place", broken_place)
        key = rounds[0].update_keys()[0]
        with pytest.raises(KeyError):
            engine.admit(key, rounds[0].get(key))
        with pytest.raises(KeyError):
            engine.ingest_round(rounds[0])
        assert engine.placement_failures == 0

    def test_oversized_object_counts_as_placement_failure(self, engine):
        key = DataKey.update(1, 0)
        latency = engine.admit(key, {"size_bytes": 30 * GB})  # over max_function_memory_bytes
        assert engine.placement_failures == 1
        assert latency.total_seconds == 0
        assert not engine.is_cached(key)

    def test_full_warm_function_limit_counts_as_placement_failure(self, topology, cost_model):
        platform = ServerlessPlatform(ServerlessConfig(max_warm_functions=1), PricingConfig())
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        store = ObjectStore(topology.objstore, cost_model)
        engine = CacheEngine(make_policy_bundle("tailored"), cluster, store)
        first, second = DataKey.update(1, 0), DataKey.update(2, 0)
        engine.admit(first, {"size_bytes": 3 * GB})
        # The second object needs a second function, over the platform's limit.
        engine.admit(second, {"size_bytes": 3 * GB})
        assert engine.placement_failures == 1
        assert engine.is_cached(first)
        assert not engine.is_cached(second)

    def test_capacity_enforced_for_bounded_policy(self, topology, cost_model, platform, small_config):
        store = ObjectStore(topology.objstore, cost_model)
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        policy = make_policy_bundle("lru")
        engine = CacheEngine(policy, cluster, store)
        for i in range(5):
            key = DataKey.update(i, 0)
            engine.admit(key, b"", now=float(i))
            # emulate sizes by registering admissions of known size
        # Direct capacity check via cluster bookkeeping: cached bytes should
        # never exceed the policy capacity after enforcement.
        assert cluster.total_cached_bytes <= policy.capacity_bytes


class TestRequestTracker:
    def test_submit_get_complete(self):
        tracker = RequestTracker()
        tracker.submit("r1", ["fn-0"])
        tracker.add_route("r1", "fn-1")
        assert tracker.get("r1").function_ids == ["fn-0", "fn-1"]
        assert not tracker.is_completed("r1")
        tracker.complete("r1")
        assert tracker.is_completed("r1")
        assert tracker.pending_requests() == []

    def test_duplicate_submit_rejected(self):
        tracker = RequestTracker()
        tracker.submit("r1")
        with pytest.raises(ValueError):
            tracker.submit("r1")

    def test_unknown_request_raises(self):
        with pytest.raises(KeyError):
            RequestTracker().get("nope")

    def test_reroute_counts_failovers(self):
        tracker = RequestTracker()
        tracker.submit("r1", ["fn-0"])
        tracker.reroute("r1", "fn-0", "fn-9")
        assert tracker.get("r1").function_ids == ["fn-9"]
        assert tracker.total_failovers == 1

    def test_contains_and_len(self):
        tracker = RequestTracker()
        tracker.submit("r1")
        assert "r1" in tracker
        assert len(tracker) == 1

    def test_memory_overhead_grows_with_requests(self):
        tracker = RequestTracker()
        for i in range(100):
            tracker.submit(f"r{i}", [f"fn-{i}"])
        small = tracker.memory_overhead_bytes()
        for i in range(100, 1000):
            tracker.submit(f"r{i}", [f"fn-{i}"])
        assert tracker.memory_overhead_bytes() > small

    def test_clear_completed(self):
        tracker = RequestTracker()
        tracker.submit("r1")
        tracker.submit("r2")
        tracker.complete("r1")
        assert tracker.clear_completed() == 1
        assert "r1" not in tracker and "r2" in tracker
