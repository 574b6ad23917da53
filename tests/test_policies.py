"""Caching policies: tailored P1-P4, traditional baselines, variants, factory."""

from __future__ import annotations

import pytest

from repro.common.units import MB
from repro.config import CachePolicyConfig
from repro.core.policies.base import PolicyPlan
from repro.core.policies.factory import POLICY_MODES, make_policy_bundle
from repro.core.policies.tailored import (
    AcrossRoundsPolicy,
    AllUpdatesInRoundPolicy,
    MetadataPolicy,
    SingleModelPolicy,
    TailoredPolicyBundle,
)
from repro.core.policies.traditional import FIFOPolicy, LFUPolicy, LRUPolicy, RandomEvictionPolicy
from repro.core.policies.variants import RandomSelectionBundle, StaticPolicyBundle
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.workloads.base import PolicyClass, WorkloadRequest
from repro.workloads.registry import list_workloads


@pytest.fixture(scope="module")
def catalog(rounds):
    catalog = RoundCatalog()
    for record in rounds:
        catalog.register_round(record)
    return catalog


def _request(workload, round_id, client_id=None, history_rounds=2):
    return WorkloadRequest(
        request_id=f"pol-{workload}-{round_id}-{client_id}",
        workload=workload,
        round_id=round_id,
        client_id=client_id,
        history_rounds=history_rounds,
    )


class TestPolicyPlan:
    def test_merge_deduplicates(self):
        a = PolicyPlan(admit_keys=[DataKey.aggregate(1)], evict_keys=[DataKey.aggregate(0)])
        b = PolicyPlan(admit_keys=[DataKey.aggregate(1), DataKey.aggregate(2)])
        merged = a.merge(b)
        assert merged.admit_keys == [DataKey.aggregate(1), DataKey.aggregate(2)]
        assert merged.evict_keys == [DataKey.aggregate(0)]

    def test_is_empty(self):
        assert PolicyPlan().is_empty
        assert not PolicyPlan(prefetch_keys=[DataKey.aggregate(0)]).is_empty


class TestSingleModelPolicy:
    def test_ingest_keeps_latest_aggregate(self, rounds, catalog):
        policy = SingleModelPolicy()
        plan0 = policy.plan_ingest(rounds[0], catalog)
        assert plan0.admit_keys == [rounds[0].aggregate_key()]
        plan2 = policy.plan_ingest(rounds[2], catalog)
        assert DataKey.aggregate(0) in plan2.evict_keys

    def test_request_prefetches_next_aggregate(self, catalog):
        policy = SingleModelPolicy()
        plan = policy.plan_request(_request("inference", 3), [DataKey.aggregate(3)], catalog)
        assert DataKey.aggregate(4) in plan.prefetch_keys


class TestAllUpdatesInRoundPolicy:
    def test_ingest_admits_round_updates(self, rounds, catalog):
        policy = AllUpdatesInRoundPolicy()
        plan = policy.plan_ingest(rounds[0], catalog)
        assert set(plan.admit_keys) == set(rounds[0].update_keys())

    def test_ingest_evicts_stale_rounds(self, rounds, catalog):
        policy = AllUpdatesInRoundPolicy()
        policy.plan_ingest(rounds[0], catalog)
        policy.plan_ingest(rounds[1], catalog)
        plan = policy.plan_ingest(rounds[2], catalog)
        evicted_rounds = {k.round_id for k in plan.evict_keys}
        assert evicted_rounds == {0}

    def test_request_prefetches_next_round_and_evicts_previous(self, rounds, catalog):
        policy = AllUpdatesInRoundPolicy()
        policy.plan_ingest(rounds[3], catalog)
        plan = policy.plan_request(_request("malicious_filtering", 4), [], catalog)
        prefetch_rounds = {k.round_id for k in plan.prefetch_keys}
        assert prefetch_rounds == {5}
        assert {k.round_id for k in plan.evict_keys} == {3}

    def test_no_prefetch_beyond_known_rounds(self, rounds, catalog):
        policy = AllUpdatesInRoundPolicy()
        last = catalog.latest_round
        plan = policy.plan_request(_request("malicious_filtering", last), [], catalog)
        assert plan.prefetch_keys == []


def _most_active_client(catalog):
    counts: dict[int, int] = {}
    for round_id in catalog.rounds():
        for cid in catalog.participants(round_id):
            counts[cid] = counts.get(cid, 0) + 1
    return max(counts, key=counts.get)


class TestAcrossRoundsPolicy:
    def test_prefetches_same_client_next_round(self, catalog):
        policy = AcrossRoundsPolicy()
        client = _most_active_client(catalog)
        rounds_of_client = catalog.rounds_for_client(client)
        if len(rounds_of_client) < 2:
            pytest.skip("client participated in a single round in this sample")
        first, second = rounds_of_client[0], rounds_of_client[1]
        required = [DataKey.update(client, first)]
        plan = policy.plan_request(_request("debugging", first, client_id=client), required, catalog)
        assert DataKey.update(client, second) in plan.prefetch_keys

    def test_evicts_rounds_older_than_history_window(self, catalog):
        policy = AcrossRoundsPolicy()
        client = _most_active_client(catalog)
        rounds_of_client = catalog.rounds_for_client(client)
        if len(rounds_of_client) < 3:
            pytest.skip("client participated in too few rounds in this sample")
        for round_id in rounds_of_client[:2]:
            policy.plan_request(
                _request("debugging", round_id, client_id=client, history_rounds=1),
                [DataKey.update(client, round_id)],
                catalog,
            )
        plan = policy.plan_request(
            _request("debugging", rounds_of_client[2], client_id=client, history_rounds=1),
            [DataKey.update(client, rounds_of_client[2])],
            catalog,
        )
        assert DataKey.update(client, rounds_of_client[0]) in plan.evict_keys

    def test_ingest_admits_tracked_clients_only(self, rounds, catalog):
        policy = AcrossRoundsPolicy()
        assert policy.plan_ingest(rounds[1], catalog).admit_keys == []
        client = rounds[1].participant_ids[0]
        policy.plan_request(
            _request("debugging", 0, client_id=client), [DataKey.update(client, 0)], catalog
        )
        plan = policy.plan_ingest(rounds[1], catalog)
        assert DataKey.update(client, 1) in plan.admit_keys


class TestMetadataPolicy:
    def test_keeps_recent_window_only(self, rounds, catalog):
        policy = MetadataPolicy(recent_rounds=2)
        policy.plan_ingest(rounds[0], catalog)
        policy.plan_ingest(rounds[1], catalog)
        plan = policy.plan_ingest(rounds[2], catalog)
        assert {k.round_id for k in plan.evict_keys} == {0}
        assert all(k.is_metadata for k in plan.evict_keys)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MetadataPolicy(recent_rounds=0)

    def test_request_prefetches_next_round_metadata(self, rounds, catalog):
        policy = MetadataPolicy()
        plan = policy.plan_request(_request("scheduling_perf", 3), [], catalog)
        assert plan.prefetch_keys
        assert all(k.is_metadata and k.round_id == 4 for k in plan.prefetch_keys)

    def test_request_prefetch_follows_catalog_changes(self, rounds):
        catalog = RoundCatalog()
        for record in rounds[:5]:
            catalog.register_round(record)
        policy = MetadataPolicy()
        request = _request("scheduling_perf", 3)
        first = policy.plan_request(request, [], catalog)
        again = policy.plan_request(request, [], catalog)
        assert again.prefetch_keys == first.prefetch_keys
        assert again.prefetch_keys is not first.prefetch_keys  # each plan owns its list
        # Rewriting round 4's membership moves the catalog version.
        catalog.register_membership(4, [1, 2], metadata_client_ids=[2])
        assert policy.plan_request(request, [], catalog).prefetch_keys == [DataKey.metadata(2, 4)]
        # Round 5 is not in the catalog: nothing to prefetch.
        assert policy.plan_request(_request("scheduling_perf", 4), [], catalog).prefetch_keys == []


class TestTailoredBundle:
    def test_dispatch_follows_taxonomy(self):
        bundle = TailoredPolicyBundle()
        assert bundle.select_policy_class(_request("inference", 0)) is PolicyClass.P1_INDIVIDUAL
        assert bundle.select_policy_class(_request("clustering", 0)) is PolicyClass.P2_ROUND
        assert bundle.select_policy_class(_request("debugging", 0)) is PolicyClass.P3_ACROSS_ROUNDS
        assert bundle.select_policy_class(_request("incentives", 0)) is PolicyClass.P4_METADATA

    def test_ingest_merges_all_policies(self, rounds, catalog):
        bundle = TailoredPolicyBundle()
        plan = bundle.plan_ingest(rounds[0], catalog)
        kinds = {k.kind for k in plan.admit_keys}
        assert {key.is_update for key in plan.admit_keys} and len(kinds) >= 2

    def test_eviction_ownership_protects_other_classes(self, rounds, catalog):
        bundle = TailoredPolicyBundle()
        bundle.plan_ingest(rounds[0], catalog)
        bundle.plan_ingest(rounds[1], catalog)
        plan = bundle.plan_ingest(rounds[2], catalog)
        # P1 owns aggregates; P2's per-round eviction must not remove them.
        assert DataKey.aggregate(0) in plan.evict_keys  # evicted by its owner (P1)
        p2_victims = [k for k in plan.evict_keys if k.is_update]
        assert all(k.round_id == 0 for k in p2_victims)

    def test_capacity_evictions_oldest_first(self):
        bundle = TailoredPolicyBundle(capacity_bytes=100)
        sizes = {
            DataKey.update(0, 0): 60,
            DataKey.update(0, 1): 60,
            DataKey.update(0, 2): 60,
        }
        victims = bundle.select_evictions(80, sizes)
        assert victims[0] == DataKey.update(0, 0)
        assert sum(sizes[k] for k in victims) >= 80

    def test_unbounded_bundle_never_evicts_for_capacity(self):
        bundle = TailoredPolicyBundle()
        assert bundle.select_evictions(100, {DataKey.update(0, 0): 60}) == []


class TestTraditionalPolicies:
    def _admit(self, policy, keys, size=10 * MB):
        for i, key in enumerate(keys):
            policy.record_admission(key, size, now=float(i))

    def test_no_proactive_plans(self, rounds, catalog):
        policy = LRUPolicy()
        assert policy.plan_ingest(rounds[0], catalog).is_empty
        assert policy.plan_request(_request("clustering", 0), [], catalog).is_empty

    def test_lru_evicts_least_recently_used(self):
        policy = LRUPolicy(capacity_bytes=100 * MB)
        keys = [DataKey.update(i, 0) for i in range(3)]
        self._admit(policy, keys)
        policy.record_access(keys[0], hit=True, now=10.0)
        victims = policy.select_evictions(10 * MB, {k: 10 * MB for k in keys})
        assert victims[0] == keys[1]

    def test_lfu_evicts_least_frequently_used(self):
        policy = LFUPolicy(capacity_bytes=100 * MB)
        keys = [DataKey.update(i, 0) for i in range(3)]
        self._admit(policy, keys)
        for _ in range(5):
            policy.record_access(keys[0], hit=True, now=1.0)
        policy.record_access(keys[2], hit=True, now=2.0)
        victims = policy.select_evictions(10 * MB, {k: 10 * MB for k in keys})
        assert victims[0] == keys[1]

    def test_fifo_evicts_in_admission_order(self):
        policy = FIFOPolicy(capacity_bytes=100 * MB)
        keys = [DataKey.update(i, 0) for i in range(3)]
        self._admit(policy, keys)
        policy.record_access(keys[0], hit=True, now=99.0)
        victims = policy.select_evictions(25 * MB, {k: 10 * MB for k in keys})
        assert victims[:2] == keys[:2]

    def test_random_eviction_returns_enough_victims(self):
        policy = RandomEvictionPolicy(capacity_bytes=100 * MB, seed=1)
        keys = [DataKey.update(i, 0) for i in range(5)]
        self._admit(policy, keys)
        victims = policy.select_evictions(35 * MB, {k: 10 * MB for k in keys})
        assert sum(10 * MB for _ in victims) >= 35 * MB

    def test_record_eviction_forgets_key(self):
        policy = LRUPolicy()
        key = DataKey.update(0, 0)
        policy.record_admission(key, 10, now=0.0)
        policy.record_eviction(key)
        assert policy.tracked_bytes == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FIFOPolicy(capacity_bytes=0)

    def test_admit_on_miss_is_true(self):
        assert LRUPolicy().admit_on_miss


def _record_dispatch(bundle: TailoredPolicyBundle) -> list[PolicyClass]:
    """Spy on ``bundle``'s sub-policies; returns the classes they plan requests for."""
    planned: list[PolicyClass] = []
    for policy_class, policy in bundle.policies.items():

        def plan_request(
            request, keys, catalog, policy_class=policy_class, original=policy.plan_request
        ):
            planned.append(policy_class)
            return original(request, keys, catalog)

        policy.plan_request = plan_request
    return planned


class TestVariants:
    """The ablation bundles choose a request's class per request, never per workload."""

    def test_static_bundle_ignores_workload(self):
        bundle = StaticPolicyBundle(fixed_class=PolicyClass.P1_INDIVIDUAL)
        assert bundle.select_policy_class(_request("malicious_filtering", 0)) is PolicyClass.P1_INDIVIDUAL

    def test_random_bundle_covers_multiple_classes(self):
        bundle = RandomSelectionBundle(seed=1)
        chosen = {bundle.select_policy_class(_request("clustering", 0)) for _ in range(40)}
        assert len(chosen) >= 2

    @pytest.mark.parametrize("fixed_class", list(PolicyClass))
    def test_static_bundle_plans_every_workload_with_its_fixed_class(self, fixed_class, catalog):
        bundle = StaticPolicyBundle(fixed_class=fixed_class)
        planned = _record_dispatch(bundle)
        names = list_workloads()
        for name in names:
            bundle.plan_request(_request(name, 5, client_id=0), [], catalog)
        assert planned == [fixed_class] * len(names)

    def test_random_bundle_draws_once_per_plan_request(self, catalog):
        bundle, reference = RandomSelectionBundle(seed=3), RandomSelectionBundle(seed=3)
        planned = _record_dispatch(bundle)
        drawn = []
        # Repeating each workload is the point: a class cached per workload
        # would plan every repeat with the first draw.
        for round_id in range(1, 9):
            for name in ("clustering", "clustering", "inference", "scheduling_perf"):
                request = _request(name, round_id)
                bundle.plan_request(request, [], catalog)
                drawn.append(reference.select_policy_class(request))
        assert planned == drawn
        assert len(set(planned)) > 1
        assert bundle._rng.bit_generator.state == reference._rng.bit_generator.state


class TestFactory:
    @pytest.mark.parametrize("mode", POLICY_MODES)
    def test_every_mode_builds(self, mode):
        policy = make_policy_bundle(mode, config=CachePolicyConfig(), seed=1)
        assert policy is not None

    def test_limited_mode_has_half_capacity(self):
        config = CachePolicyConfig()
        policy = make_policy_bundle("limited", config=config)
        assert policy.capacity_bytes == int(
            config.traditional_policy_capacity_bytes * config.limited_capacity_fraction
        )

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            make_policy_bundle("alphazero")
