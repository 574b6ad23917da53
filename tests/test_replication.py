"""Hot-key replication: the spec knob, replica routing, accounting, warm joins.

Covers the `tier.replication` surface end to end — spec validation and
round-tripping, ring-successor replica placement, replica-aware routing on
the hot-key workload (the acceptance pins: factor 2 strictly lifts the
hot-shard ceiling at equal warm capacity), byte-identity of the
replication-off path, and replica-warmed elasticity (`add_shard` seeded
from replicas beats the cold join on the post-join latency transient).
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationConfig
from repro.engine import REPLICATION_POLICIES, ShardedEngineFLStore
from repro.engine.vectorized import explain_fast_path, fast_path_eligible
from repro.fl.trainer import FLJobSimulator
from repro.routing import make_router
from repro.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    ReplicationSpec,
    ScenarioSpec,
    TierSpec,
    WorkloadMixSpec,
    get_scenario,
    list_scenarios,
    sweep,
)
from repro.simulation.records import CostAccumulator, LatencyAccumulator
from repro.traces.generator import RequestTraceGenerator


@pytest.fixture(scope="module")
def repl_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def repl_rounds(repl_config):
    return FLJobSimulator(repl_config).run_rounds(8)


class TestReplicationSpec:
    def test_defaults_are_off(self):
        spec = ReplicationSpec()
        assert (spec.factor, spec.policy, spec.hot_threshold) == (1, "none", 8)
        assert not spec.enabled

    def test_values_coerced_and_validated(self):
        spec = ReplicationSpec(factor=3.0, policy="hot-tracked", hot_threshold=2.0)
        assert (spec.factor, spec.hot_threshold) == (3, 2)
        assert spec.enabled
        with pytest.raises(ConfigurationError):
            ReplicationSpec(factor=0)
        with pytest.raises(ConfigurationError):
            ReplicationSpec(factor=2.5)
        with pytest.raises(ConfigurationError):
            ReplicationSpec(hot_threshold=0)
        with pytest.raises(ConfigurationError):
            ReplicationSpec(policy="all-keys")

    def test_replication_requires_a_sharded_tier(self):
        with pytest.raises(ConfigurationError, match="sharded tier"):
            TierSpec(replication=ReplicationSpec(policy="hot-static"))
        # Off by default, so a plain tier is still fine.
        assert TierSpec().replication.policy == "none"

    def test_round_trips_through_dict(self):
        spec = ScenarioSpec(
            name="repl-trip",
            tier=TierSpec(
                shards=3,
                router_kind="consistent-hash",
                replication=ReplicationSpec(factor=2, policy="hot-tracked", hot_threshold=4),
            ),
        )
        tree = spec.to_dict()
        assert tree["tier"]["replication"] == {
            "factor": 2,
            "policy": "hot-tracked",
            "hot_threshold": 4,
        }
        assert ScenarioSpec.from_dict(tree) == spec

    def test_unknown_replication_key_rejected(self):
        tree = ScenarioSpec(name="repl-bad", tier=TierSpec(shards=2, router_kind="jsq")).to_dict()
        tree["tier"]["replication"]["quorum"] = 2
        with pytest.raises(ConfigurationError, match="quorum"):
            ScenarioSpec.from_dict(tree)

    def test_registered_scenario_and_policies_exported(self):
        spec = get_scenario("hotkey-replicated")
        assert spec.tier.replication == ReplicationSpec(factor=2, policy="hot-static")
        assert spec.tier.replication.policy in REPLICATION_POLICIES


class TestReplicaSlots:
    def test_modulo_slots_are_consecutive(self):
        router = make_router("modulo", 5)
        primary = router.route(123)
        assert router.replica_slots(123, 3) == [
            primary,
            (primary + 1) % 5,
            (primary + 2) % 5,
        ]

    def test_consistent_hash_slots_walk_distinct_ring_successors(self):
        router = make_router("consistent-hash", 6)
        for key in ("r1:c-1", "r4:c2", "r7:c-1"):
            slots = router.replica_slots(key, 4)
            assert slots[0] == router.route(key)
            assert len(slots) == len(set(slots)) == 4
            assert all(0 <= s < 6 for s in slots)

    def test_slot_count_capped_by_shard_count(self):
        router = make_router("consistent-hash", 3)
        assert len(router.replica_slots("r1:c-1", 99)) == 3

    def test_jsq_candidates_are_the_replica_slot_prefix(self):
        router = make_router("jsq", 6)
        for key in ("r1:c-1", "r5:c3"):
            assert list(router.candidates(key)) == router.replica_slots(key, router.fanout)


def _hot_tier(config, rounds, factor, policy, shards=4, **kwargs):
    tier = ShardedEngineFLStore.build(
        shards,
        config=config,
        router=make_router("jsq", shards),
        replication_factor=factor,
        replication_policy=policy,
        **kwargs,
    )
    for record in rounds:
        tier.ingest_round(record)
    return tier


def _hot_burst(tier, num_requests=40, spacing=0.1):
    generator = RequestTraceGenerator(tier.catalog, seed=7)
    trace = generator.workload_trace("inference", num_requests)
    arrivals = [spacing * i for i in range(len(trace))]
    return tier.run_open_loop(trace, arrivals, label="hot")


class TestHotKeyReplication:
    def test_engine_validates_replication_parameters(self, repl_config):
        with pytest.raises(ConfigurationError):
            ShardedEngineFLStore.build(2, config=repl_config, replication_factor=0)
        with pytest.raises(ConfigurationError):
            ShardedEngineFLStore.build(2, config=repl_config, replication_policy="everything")
        with pytest.raises(ConfigurationError):
            ShardedEngineFLStore.build(
                2, config=repl_config, replication_policy="hot-tracked", hot_threshold=0
            )

    def test_factor_two_lifts_the_hot_shard_ceiling(self, repl_config, repl_rounds):
        """The acceptance pin: at seed 7 and equal warm capacity, factor 2
        strictly improves both the routing ceiling and the tail latency."""
        results = {}
        for factor in (1, 2):
            tier = _hot_tier(repl_config, repl_rounds, factor, "hot-static")
            report = _hot_burst(tier)
            assert report.served + report.degraded + report.shed == report.submitted
            results[factor] = (max(tier.routed_counts), report.p99_sojourn_seconds, tier)
        max1, p99_1, tier1 = results[1]
        max2, p99_2, tier2 = results[2]
        assert max2 < max1
        assert p99_2 < p99_1
        # Pinned at seed 7: the hot shard's share halves, p99 halves too.
        assert (max1, max2) == (40, 20)
        assert (round(p99_1, 3), round(p99_2, 3)) == (29.248, 12.917)
        # Equal warm capacity: same shard count, same per-shard platform.
        assert len(tier1.shards) == len(tier2.shards) == 4
        assert tier2.replica_hits == 20
        assert tier2.replicated_keys > 0
        # Ingest broadcasts rounds, so the static holders were already live
        # and no replica bytes needed placing — hits come for free here.
        assert tier2.replica_cached_bytes == 0
        # Factor 1 with a hot policy still has only the primary holder.
        assert tier1.replica_hits == 0 and tier1.replica_cached_bytes == 0

    def test_hot_tracked_policy_spreads_after_threshold(self, repl_config, repl_rounds):
        tier = _hot_tier(repl_config, repl_rounds, 2, "hot-tracked", hot_threshold=8)
        report = _hot_burst(tier)
        assert report.served + report.degraded + report.shed == report.submitted
        assert tier.replica_hits > 0
        assert max(tier.routed_counts) < 40

    def test_fleet_bytes_count_replicas_exactly_once(self, repl_config, repl_rounds):
        """Replica placements (from a warm join) never inflate the fleet-wide
        byte sum: `cached_bytes` counts only owned copies."""

        def joined(factor, policy):
            tier = ShardedEngineFLStore.build(
                2, config=repl_config, replication_factor=factor, replication_policy=policy
            )
            for record in repl_rounds:
                tier.ingest_round(record)
            _hot_burst(tier, num_requests=8)
            tier.add_shard()
            tier.loop.run()
            return tier

        plain = joined(1, "none")
        replicated = joined(2, "hot-static")
        assert replicated.replica_cached_bytes > 0
        for tier in (plain, replicated):
            clusters = [shard.flstore.cluster for shard in tier.shards]
            assert tier.cached_bytes == sum(c.owned_cached_bytes for c in clusters)
            assert tier.live_key_count == sum(c.owned_live_key_count for c in clusters)

    def test_shard_stats_break_out_replica_columns(self, repl_config, repl_rounds):
        tier = ShardedEngineFLStore.build(
            2, config=repl_config, replication_factor=2, replication_policy="hot-static"
        )
        for record in repl_rounds:
            tier.ingest_round(record)
        _hot_burst(tier, num_requests=8)
        tier.add_shard()
        tier.loop.run()
        rows = tier.shard_stats()
        assert sum(row["replica_bytes"] for row in rows) == tier.replica_cached_bytes
        assert sum(row["replica_keys"] for row in rows) > 0

    def test_replication_off_resize_cycle_is_byte_identical(self, repl_config):
        """Regression pin for the replication-off path: the add/remove/add
        catch-up cycle reproduces the exact pre-replication numbers."""
        config = repl_config
        rounds = FLJobSimulator(config).run_rounds(8)
        tier = ShardedEngineFLStore.build(1, config=config)
        for record in rounds:
            tier.ingest_round(record)
        added = tier.add_shard()
        tier.remove_shard()
        extra = FLJobSimulator(config).run_rounds(10)[8:]
        for record in extra:
            tier.ingest_round(record)
        reused = tier.add_shard()
        generator = RequestTraceGenerator(tier.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], 30)
        report = tier.run_open_loop(trace, [0.2 * i for i in range(len(trace))], label="mix")
        assert (added, reused) == (1, 1)
        assert tier.routed_counts == [0, 30]
        assert (report.served, report.degraded, report.shed, report.submitted) == (30, 0, 0, 30)
        assert repr(report.p99_sojourn_seconds) == "91.3758057492303"
        latency, cost = LatencyAccumulator(), CostAccumulator()
        for outcome in report.outcomes:  # completion order
            latency.add(outcome.result.latency)
            cost.add(outcome.result.cost)
        assert repr(latency.total_seconds) == "97.83202707253746"
        assert repr(cost.finalize().total_dollars) == "0.006346872416189445"
        assert (tier.cached_bytes, tier.live_key_count) == (844093846, 118)
        assert tier.warm_function_count == 4
        assert tier.replica_warm_events == 0 and tier.replica_hits == 0


class TestReplicaWarmedJoin:
    def _join_run(self, config, rounds, policy, join_at=5.0):
        tier = ShardedEngineFLStore.build(
            2, config=config, replication_factor=2, replication_policy=policy
        )
        for record in rounds:
            tier.ingest_round(record)
        generator = RequestTraceGenerator(tier.catalog, seed=7)
        trace = generator.mixed_trace(["inference"], 60)
        arrivals = [0.4 * i for i in range(len(trace))]
        tier.loop.schedule_at(join_at, tier.add_shard)
        report = tier.run_open_loop(trace, arrivals, label="join")
        window = [
            o.sojourn_seconds
            for o in report.outcomes
            if join_at <= o.arrived_at <= join_at + 10.0
        ]
        window.sort()
        p99 = window[max(0, int(len(window) * 0.99) - 1)]
        assert report.served + report.degraded + report.shed == report.submitted
        return p99, tier

    def test_warm_join_beats_cold_join_on_post_join_tail(self, repl_config, repl_rounds):
        """The acceptance pin at seed 7: seeding the joiner from replicas
        beats replaying the round log into a cold cache."""
        cold_p99, cold_tier = self._join_run(repl_config, repl_rounds, "none")
        warm_p99, warm_tier = self._join_run(repl_config, repl_rounds, "hot-static")
        assert warm_p99 < cold_p99
        assert (round(cold_p99, 3), round(warm_p99, 3)) == (17.791, 8.417)
        assert cold_tier.replica_warm_events == 0
        assert len(cold_tier.shards) == len(warm_tier.shards) == 3

    def test_warm_events_populate_an_idle_joiner(self, repl_config, repl_rounds):
        """With no traffic after the join, only the scheduled warm events can
        place bytes on the new shard — and they never touch the fleet sum."""
        tier = ShardedEngineFLStore.build(
            2, config=repl_config, replication_factor=2, replication_policy="hot-static"
        )
        for record in repl_rounds:
            tier.ingest_round(record)
        generator = RequestTraceGenerator(tier.catalog, seed=7)
        trace = generator.workload_trace("inference", 4)
        tier.run_open_loop(trace, [0.1 * i for i in range(4)], label="pre")
        key = next(iter(tier._replica_keys))
        data_keys = tier._replica_keys[key]
        assert data_keys
        index = tier.add_shard()
        joiner = tier.shards[index].flstore.cluster
        fleet_bytes = tier.cached_bytes
        tier.loop.run()
        assert tier.replica_warm_events >= 1
        assert joiner.replica_cached_bytes > 0
        assert all(joiner.is_live(k) for k in data_keys)
        assert all(not joiner.is_live(k, include_replicas=False) for k in data_keys)
        assert tier._replica_live(index, key)
        # A routing key with no replicated keys never reads live.
        assert not tier._replica_live(index, max(tier._replica_keys) + 1)
        # Warm placements are tier replicas: fleet-wide bytes are unchanged.
        assert tier.cached_bytes == fleet_bytes
        # Losing one replicated key takes the holder out of the live set.
        joiner.evict(data_keys[-1])
        assert not tier._replica_live(index, key)

    def test_replica_warm_placement_bug_propagates(self, repl_config, repl_rounds, monkeypatch):
        """A warm event keeps a copy cold only when there is no room; any
        other error from ``place`` is a bug and must surface."""
        tier = ShardedEngineFLStore.build(
            2, config=repl_config, replication_factor=2, replication_policy="hot-static"
        )
        for record in repl_rounds:
            tier.ingest_round(record)
        trace = RequestTraceGenerator(tier.catalog, seed=7).workload_trace("inference", 4)
        tier.run_open_loop(trace, [0.1 * i for i in range(4)], label="pre")
        index = tier.add_shard()

        def broken_place(*args, **kwargs):
            raise KeyError("bug in placement")

        monkeypatch.setattr(tier.shards[index].flstore.cluster, "place", broken_place)
        with pytest.raises(KeyError):
            tier.loop.run()

    def test_sweeping_the_factor_axis_reports_the_improvement(self):
        spec = ScenarioSpec(
            name="repl-sweep",
            num_rounds=4,
            workload=WorkloadMixSpec(workloads=("inference", "scheduling_perf"), num_requests=24),
            arrival=ArrivalSpec(kind="bursty", utilization=2.0),
            tier=TierSpec(
                shards=4,
                router_kind="jsq",
                admission=AdmissionSpec(max_queue_depth=6, shed_policy="degrade-to-objstore"),
                replication=ReplicationSpec(factor=2, policy="hot-static"),
            ),
        )
        rows = sweep(spec, axes={"tier.replication.factor": (1, 2)})
        assert [row["shards"] for row in rows] == [4, 4]
        assert all(row["conserved"] for row in rows)
        base, replicated = rows
        assert replicated["max_shard_routed"] < base["max_shard_routed"]
        assert replicated["p99_sojourn_seconds"] < base["p99_sojourn_seconds"]
        assert replicated["replica_hits"] > 0
        assert replicated["replicated_keys"] > 0

    def test_registered_scenario_lifts_the_ceiling_at_factor_two(self):
        """The registered ``hotkey-replicated`` scenario, factor 1 vs 2: the
        hot shard's routing share, the tail and the overflow onto the
        degraded object-store path all drop."""
        rows = sweep(get_scenario("hotkey-replicated"), axes={"tier.replication.factor": (1, 2)})
        base, replicated = rows
        for row in rows:
            assert row["conserved"] is True
            assert row["served"] + row["shed"] + row["degraded"] == 64
        assert replicated["max_shard_routed"] < base["max_shard_routed"]
        assert replicated["p99_sojourn_seconds"] < base["p99_sojourn_seconds"]
        assert replicated["degraded"] < base["degraded"]
        assert replicated["replica_hits"] > 0


class TestExplainFastPath:
    def test_explanation_agrees_with_eligibility_everywhere(self):
        for name in list_scenarios():
            spec = get_scenario(name)
            reasons = explain_fast_path(spec)
            assert bool(reasons) == (not fast_path_eligible(spec)), name

    def test_eligible_scenario_has_no_reasons(self):
        assert explain_fast_path(get_scenario("million-request")) == []

    def test_reasons_name_the_blocking_knobs(self):
        reasons = explain_fast_path(get_scenario("engine-baseline"))
        assert any("metrics" in reason for reason in reasons)
        reasons = explain_fast_path(get_scenario("hotkey-replicated"))
        assert any("sharded" in reason for reason in reasons)

    def test_smoke_run_prints_the_fast_path_verdict(self, capsys):
        from repro.cli import main

        assert main(["run-scenario", "--name", "million-request", "--smoke"]) == 0
        assert "fast path: eligible" in capsys.readouterr().out
        assert main(["run-scenario", "--name", "hotkey-replicated", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fast path: event path" in out
        assert "sharded" in out
