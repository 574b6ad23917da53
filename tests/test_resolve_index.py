"""Property-style consistency tests for the cluster's liveness index.

The index (reverse ``function -> keys`` map, per-key holder, event-driven
invalidation) must always agree with a brute-force re-resolve that scans the
platform's actual function state — under placement, eviction, replication,
and Zipfian-injected reclamations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.units import MB
from repro.config import PricingConfig, ServerlessConfig
from repro.core.serverless_cache import ServerlessCacheCluster
from repro.fl.keys import DataKey
from repro.serverless.faults import ZipfianFaultInjector
from repro.serverless.platform import ServerlessPlatform


def oracle_resolve(cluster: ServerlessCacheCluster, key: DataKey):
    """The seed's scan-based resolution: primary first, then replicas in order.

    Returns ``(function_id | None, failed_over)`` computed directly from the
    platform's function state, bypassing the liveness index entirely.
    """
    primary_id = cluster._primary.get(key)
    if primary_id is None:
        return None, False
    primary = cluster.platform.get_function(primary_id)
    if primary.is_warm and primary.holds(key):
        return primary_id, False
    for replica_id in cluster._replicas.get(key, []):
        replica = cluster.platform.get_function(replica_id)
        if replica.is_warm and replica.holds(key):
            return replica_id, True
    return None, True


def assert_index_consistent(cluster: ServerlessCacheCluster):
    """Every tracked key's indexed resolution must match the oracle."""
    for key in list(cluster._primary):
        expected_fid, expected_failover = oracle_resolve(cluster, key)
        resolved = cluster.resolve(key)
        assert resolved.function_id == expected_fid, f"holder mismatch for {key}"
        assert resolved.failed_over == expected_failover, f"failover mismatch for {key}"
        assert cluster.is_live(key) == (expected_fid is not None)
    # The batch API must agree with the scalar one.
    keys = list(cluster._primary)
    batch = cluster.resolve_many(keys)
    for key in keys:
        single = cluster.resolve(key)
        assert batch[key].function_id == single.function_id
        assert batch[key].failed_over == single.failed_over
    # Aggregate views must agree with a from-scratch recomputation.
    assert cluster.total_cached_bytes == sum(cluster._sizes.values())
    expected_live = [k for k in cluster._primary if oracle_resolve(cluster, k)[0] is not None]
    assert cluster.cached_keys() == expected_live
    # Tier-replica accounting: owned + replica views partition the totals,
    # so fleet-wide sums over owned_* never double-count replicated bytes.
    replica_bytes = sum(
        size for key, size in cluster._sizes.items() if key in cluster._tier_replicas
    )
    assert cluster.replica_cached_bytes == replica_bytes
    assert cluster.owned_cached_bytes == cluster.total_cached_bytes - replica_bytes
    live = set(expected_live)
    assert cluster.owned_live_key_count == sum(
        1 for key in live if key not in cluster._tier_replicas
    )
    assert cluster.replica_live_key_count == sum(
        1 for key in live if key in cluster._tier_replicas
    )
    for key in cluster._primary:
        assert cluster.is_live(key, include_replicas=False) == (
            cluster.is_live(key) and not cluster.is_tier_replica(key)
        )
    # Batch liveness is the per-key conjunction, tier replicas counting as
    # live (``is_live``'s default): each key alone, every tracked key, a
    # random batch with duplicates, a batch with a never-placed key, and the
    # empty batch.
    for key in keys:
        assert cluster.all_live([key]) == cluster.is_live(key)
    rng = np.random.default_rng(len(keys))
    subset = [keys[i] for i in rng.integers(0, len(keys), size=2 * len(keys))] if keys else []
    for sample in (keys, subset, subset[: len(subset) // 2]):
        assert cluster.all_live(sample) == all(cluster.is_live(key) for key in sample)
    assert not cluster.all_live([*subset, DataKey.update(10_000, 0)])
    assert cluster.all_live([])
    # The request path's gather reads what per-key ``resolve`` answers.
    batch_keys = [*subset, DataKey.update(10_000, 0)]
    resolved = [cluster.resolve(key) for key in batch_keys]
    hit_keys: list[DataKey] = []
    gathered = cluster.gather(batch_keys, hit_keys.append, lambda key: (None, False))
    assert hit_keys == [r.key for r in resolved if r.is_hit]
    assert gathered.data == {key: cluster.get_object(key) for key in hit_keys}
    assert (gathered.hits, gathered.misses) == (len(hit_keys), len(batch_keys) - len(hit_keys))
    assert gathered.failovers == sum(r.failed_over for r in resolved)
    assert gathered.failed_functions == len(
        {cluster.primary_function_of(r.key) for r in resolved if r.failed_over}
    )
    assert gathered.holders == list(dict.fromkeys(r.function_id for r in resolved if r.is_hit))
    assert gathered.execution_function == cluster.pick_execution_function(batch_keys)


@pytest.fixture()
def platform():
    return ServerlessPlatform(ServerlessConfig(), PricingConfig())


class TestLivenessIndexProperty:
    @pytest.mark.parametrize("replication_factor", [0, 1, 2])
    def test_index_matches_oracle_under_zipfian_faults(self, replication_factor):
        """Random place/evict/reclaim churn keeps the index oracle-consistent."""
        platform = ServerlessPlatform(ServerlessConfig(), PricingConfig())
        cluster = ServerlessCacheCluster(platform, replication_factor=replication_factor)
        injector = ZipfianFaultInjector(fault_rate=0.35, seed=17 + replication_factor)
        rng = np.random.default_rng(23 + replication_factor)

        live_keys: list[DataKey] = []
        for step in range(120):
            action = rng.random()
            if action < 0.55 or not live_keys:
                key = DataKey.update(int(rng.integers(0, 40)), int(rng.integers(0, 6)))
                cluster.place(key, {"step": step}, size_bytes=int(rng.integers(1, 64)) * MB)
                if key not in live_keys:
                    live_keys.append(key)
            elif action < 0.75:
                key = live_keys.pop(int(rng.integers(0, len(live_keys))))
                cluster.evict(key)
            else:
                reclaimed = injector.sample_reclamations(cluster.function_ids())
                for function_id in reclaimed:
                    platform.reclaim_function(function_id)
            assert_index_consistent(cluster)

        # Dropping lost keys must report exactly the oracle's dead set and
        # leave only live keys tracked.
        dead = {k for k in cluster._primary if oracle_resolve(cluster, k)[0] is None}
        assert set(cluster.drop_lost_keys()) == dead
        assert_index_consistent(cluster)
        assert all(cluster.is_live(k) for k in cluster._primary)

    def test_tier_replica_accounting_matches_oracle_under_zipfian_faults(self):
        """Random churn mixing owned and tier-replica placements keeps the
        owned/replica byte split oracle-consistent — no double-counting."""
        platform = ServerlessPlatform(ServerlessConfig(), PricingConfig())
        cluster = ServerlessCacheCluster(platform, replication_factor=1)
        injector = ZipfianFaultInjector(fault_rate=0.35, seed=41)
        rng = np.random.default_rng(43)

        live_keys: list[DataKey] = []
        for step in range(120):
            action = rng.random()
            if action < 0.55 or not live_keys:
                key = DataKey.update(int(rng.integers(0, 40)), int(rng.integers(0, 6)))
                # ~40% of placements arrive as tier replicas; re-placing an
                # existing replica without the flag must promote it to owned.
                cluster.place(
                    key,
                    {"step": step},
                    size_bytes=int(rng.integers(1, 64)) * MB,
                    tier_replica=bool(rng.random() < 0.4),
                )
                if key not in live_keys:
                    live_keys.append(key)
            elif action < 0.75:
                key = live_keys.pop(int(rng.integers(0, len(live_keys))))
                cluster.evict(key)
            else:
                reclaimed = injector.sample_reclamations(cluster.function_ids())
                for function_id in reclaimed:
                    platform.reclaim_function(function_id)
            assert_index_consistent(cluster)

        # The churn must actually have exercised both sides of the split.
        assert cluster.replica_cached_bytes > 0
        assert cluster.owned_cached_bytes > 0
        cluster.drop_lost_keys()
        assert_index_consistent(cluster)

    def test_replica_mark_cleared_on_eviction_and_promotion(self, platform):
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        key = DataKey.update(9, 0)
        cluster.place(key, b"r", size_bytes=10 * MB, tier_replica=True)
        assert cluster.is_tier_replica(key)
        assert cluster.replica_cached_bytes == 10 * MB
        assert cluster.owned_cached_bytes == 0
        assert not cluster.is_live(key, include_replicas=False)
        # Re-placing without the flag promotes the copy to owned.
        cluster.place(key, b"o", size_bytes=10 * MB)
        assert not cluster.is_tier_replica(key)
        assert cluster.replica_cached_bytes == 0
        assert cluster.owned_cached_bytes == 10 * MB
        assert cluster.is_live(key, include_replicas=False)
        # Evicting a replica clears its mark and its byte share.
        cluster.place(key, b"r", size_bytes=10 * MB, tier_replica=True)
        cluster.evict(key)
        assert cluster.replica_cached_bytes == 0
        assert not cluster.is_tier_replica(key)
        assert_index_consistent(cluster)

    def test_reclamation_event_prunes_reverse_map(self, platform):
        cluster = ServerlessCacheCluster(platform, replication_factor=1)
        key = DataKey.update(1, 0)
        placement = cluster.place(key, b"x", size_bytes=10 * MB)
        assert key in cluster._function_keys[placement.primary_function_id]
        platform.reclaim_function(placement.primary_function_id)
        # The reclaimed function's reverse entry is gone; the replica serves.
        assert placement.primary_function_id not in cluster._function_keys
        resolved = cluster.resolve(key)
        assert resolved.failed_over and resolved.function_id == placement.replica_function_ids[0]
        assert_index_consistent(cluster)

    def test_total_loss_is_recorded_without_probing(self, platform):
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        key = DataKey.update(2, 0)
        placement = cluster.place(key, b"x", size_bytes=10 * MB)
        platform.reclaim_function(placement.primary_function_id)
        assert not cluster.is_live(key)
        assert cluster.resolve(key).failed_over
        assert cluster.drop_lost_keys() == [key]
        assert cluster.drop_lost_keys() == []

    def test_lost_keys_come_back_in_placement_order(self, platform):
        """Reclamation walks a function's keys in the order they were placed
        (a re-placed key counts from its new placement), never in hash
        order: key hashes are address-derived, so they vary by process."""
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        clients = np.random.default_rng(5).permutation(21).tolist()
        keys = [DataKey.update(client, client % 3) for client in clients]
        for key in keys:
            cluster.place(key, b"x", size_bytes=MB)
        cluster.place(keys[3], b"y", size_bytes=MB)
        placed = [*keys[:3], *keys[4:], keys[3]]
        (function_id,) = {cluster.primary_function_of(key) for key in keys}
        platform.reclaim_function(function_id)
        assert cluster.drop_lost_keys() == placed
        assert_index_consistent(cluster)

    def test_replace_after_loss_clears_lost_state(self, platform):
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        key = DataKey.update(3, 0)
        placement = cluster.place(key, b"old", size_bytes=10 * MB)
        platform.reclaim_function(placement.primary_function_id)
        assert not cluster.is_live(key)
        cluster.place(key, b"new", size_bytes=10 * MB)
        assert cluster.is_live(key)
        assert cluster.get_object(key) == b"new"
        # The re-placed key must no longer be reported as lost.
        assert cluster.drop_lost_keys() == []
        assert_index_consistent(cluster)

    def test_restore_does_not_resurrect_lost_copies(self, platform):
        cluster = ServerlessCacheCluster(platform, replication_factor=0)
        key = DataKey.update(4, 0)
        placement = cluster.place(key, b"x", size_bytes=10 * MB)
        platform.reclaim_function(placement.primary_function_id)
        platform.restore_function(placement.primary_function_id)
        # Warm again, but its memory was wiped: the key stays dead.
        assert not cluster.is_live(key)
        assert_index_consistent(cluster)
