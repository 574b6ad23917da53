"""The sharded serving tier: routing, the front door, and admission control."""

from __future__ import annotations

import bisect
import dataclasses
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import CapacityError
from repro.config import SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.engine import ShardedEngineFLStore
from repro.routing import (
    ROUTER_KINDS,
    ConsistentHashRouter,
    JoinShortestQueueRouter,
    ModuloRouter,
    make_router,
    request_routing_key,
    stable_hash_u64,
)
from repro.serverless.function import RequestQueue
from repro.traces.arrivals import PoissonArrivals
from repro.traces.generator import RequestTraceGenerator
from repro.fl.trainer import FLJobSimulator
from repro.workloads.base import WorkloadRequest
from repro.workloads.registry import list_workloads


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def _reference_ring(num_shards, vnodes):
    """A ring's sorted vnode points and their shards, from fresh hashes."""
    points = sorted(
        (stable_hash_u64(f"shard-{shard}:vnode-{replica}"), shard)
        for shard in range(num_shards)
        for replica in range(vnodes)
    )
    return [point for point, _ in points], [shard for _, shard in points]


def _reference_successors(ring, key, wanted):
    """The first ``wanted`` distinct shards clockwise from ``key``'s fresh ring point."""
    points, shards = ring
    index = bisect.bisect_right(points, stable_hash_u64(f"key-{key}"))
    found = []
    for step in range(len(shards)):
        shard = shards[(index + step) % len(shards)]
        if shard not in found:
            found.append(shard)
            if len(found) == wanted:
                break
    return found


class TestRouting:
    def test_stable_hash_is_deterministic_and_64_bit(self):
        assert stable_hash_u64("abc") == stable_hash_u64("abc")
        assert stable_hash_u64("abc") != stable_hash_u64("abd")
        assert 0 <= stable_hash_u64("anything") < 2**64

    def test_request_routing_key_follows_data_affinity(self):
        a = WorkloadRequest(request_id="r1", workload="inference", round_id=3)
        b = WorkloadRequest(request_id="r2", workload="clustering", round_id=3)
        c = WorkloadRequest(request_id="r3", workload="inference", round_id=4)
        # Same data coordinates -> same key regardless of workload/request id.
        assert request_routing_key(a) == request_routing_key(b)
        assert request_routing_key(a) != request_routing_key(c)

    @pytest.mark.parametrize("kind", ROUTER_KINDS)
    def test_routers_are_deterministic_and_in_range(self, kind):
        router = make_router(kind, 4)
        targets = [router.route(stable_hash_u64(f"key-{i}")) for i in range(200)]
        assert targets == [router.route(stable_hash_u64(f"key-{i}")) for i in range(200)]
        assert set(targets) <= set(range(4))
        # Every shard receives some traffic for a spread key population.
        assert len(set(targets)) == 4

    def test_modulo_router_is_plain_modulo(self):
        router = ModuloRouter(3)
        assert [router.route(k) for k in (0, 1, 2, 3, 7)] == [0, 1, 2, 0, 1]

    def test_consistent_hash_minimises_remapping_on_resize(self):
        keys = [stable_hash_u64(f"key-{i}") for i in range(500)]
        four = ConsistentHashRouter(4)
        five = ConsistentHashRouter(5)
        moved = sum(1 for key in keys if four.route(key) != five.route(key))
        # Modulo would remap ~80% of keys; the ring should move a small
        # fraction (~1/5 in expectation).
        assert moved / len(keys) < 0.5

    def test_memoized_rings_match_fresh_hashes(self):
        """Ring lookups equal a ring rebuilt from fresh hashes, shape after shape.

        The shapes interleave ``vnodes`` at each shard count, so a ring memo
        that ignored ``vnodes`` would hand back the previous shape's ring.
        """
        keys = [stable_hash_u64(f"diff-{i}") for i in range(500)]
        for num_shards in range(1, 7):
            for vnodes in (1, 16, 64):
                ring = _reference_ring(num_shards, vnodes)
                consistent = ConsistentHashRouter(num_shards, vnodes=vnodes)
                jsq = JoinShortestQueueRouter(num_shards, vnodes=vnodes, fanout=3)
                for key in keys:
                    expected = _reference_successors(ring, key, num_shards)
                    assert consistent.route(key) == expected[0]
                    assert consistent.replica_slots(key, 2) == expected[:2]
                    assert consistent.replica_slots(key, num_shards + 1) == expected
                    assert jsq.candidates(key) == expected[:3]
                    assert jsq.route(key) == expected[0]

    def test_memoized_routing_keys_match_fresh_hashes(self):
        """Each ``(round_id, client_id)`` gets its own key; ``None`` reads as ``-1``."""
        ring = ConsistentHashRouter(4)
        for round_id in (0, 3, 11):
            for client_id in (None, -1, 0, 7):
                request = WorkloadRequest(
                    request_id=f"r{round_id}-{client_id}",
                    workload="inference",
                    round_id=round_id,
                    client_id=client_id,
                )
                client = -1 if client_id is None else client_id
                expected = stable_hash_u64(f"r{round_id}:c{client}")
                assert request_routing_key(request) == expected
                assert ring.route_request(request) == ring.route(expected)

    def test_invalid_router_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_router("nope", 2)
        with pytest.raises(ValueError):
            ModuloRouter(0)
        with pytest.raises(ValueError):
            ConsistentHashRouter(2, vnodes=0)


# ---------------------------------------------------------------------------
# Load-aware routing (join-shortest-queue over the affinity candidates)
# ---------------------------------------------------------------------------


class TestJoinShortestQueueRouter:
    def test_candidates_are_stable_distinct_and_affinity_ordered(self):
        jsq = make_router("jsq", 4)
        ring = ConsistentHashRouter(4)
        for i in range(100):
            key = stable_hash_u64(f"key-{i}")
            candidates = jsq.candidates(key)
            assert len(candidates) == 2 and len(set(candidates)) == 2
            assert candidates == jsq.candidates(key)
            # The primary candidate is the ring owner: affinity comes first.
            assert candidates[0] == ring.route(key)

    def test_unbound_probe_degrades_to_pure_hashing(self):
        jsq, ring = make_router("jsq", 4), ConsistentHashRouter(4)
        keys = [stable_hash_u64(f"k{i}") for i in range(200)]
        assert [jsq.route(k) for k in keys] == [ring.route(k) for k in keys]

    def test_probe_steers_to_least_loaded_candidate_with_affinity_ties(self):
        jsq = make_router("jsq", 4)
        key = stable_hash_u64("hot")
        primary, secondary = jsq.candidates(key)
        loads = {primary: 0, secondary: 0}
        jsq.bind_load_probe(lambda slot: loads.get(slot, 0))
        assert jsq.route(key) == primary  # tie -> affinity order
        loads[primary] = 5
        assert jsq.route(key) == secondary
        loads[secondary] = 9
        assert jsq.route(key) == primary

    def test_fanout_validated_and_capped_by_shard_count(self):
        with pytest.raises(ValueError):
            make_router("jsq", 2, fanout=0)
        assert len(make_router("jsq", 2, fanout=8).candidates(123)) == 2

    def test_resized_preserves_parameters_but_not_the_probe(self):
        jsq = make_router("jsq", 4, vnodes=16, fanout=3)
        jsq.bind_load_probe(lambda slot: 0)
        resized = jsq.resized(5)
        assert isinstance(resized, JoinShortestQueueRouter)
        assert (resized.num_shards, resized.vnodes, resized.fanout) == (5, 16, 3)
        assert resized._load_probe is None


# ---------------------------------------------------------------------------
# Bounded queues (serverless layer)
# ---------------------------------------------------------------------------


class TestBoundedQueue:
    def test_bounded_queue_reports_full_and_rejects_overflow(self):
        queue = RequestQueue("fifo", capacity=2)
        queue.push("a")
        queue.push("b")
        assert queue.full
        with pytest.raises(CapacityError):
            queue.push("c")
        assert queue.pop() == "a"
        assert not queue.full

    def test_unbounded_queue_never_full(self):
        queue = RequestQueue("fifo")
        for token in range(100):
            queue.push(token)
        assert not queue.full

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue("fifo", capacity=-1)

    def test_platform_queue_capacity_and_fullness(self):
        from repro.config import ServerlessConfig
        from repro.serverless.platform import ServerlessPlatform

        platform = ServerlessPlatform(config=ServerlessConfig(max_queue_depth=1))
        function, _ = platform.spawn_function()
        fid = function.function_id
        assert not platform.request_queue(fid).full
        platform.enqueue_waiter(fid, "a")
        assert platform.request_queue(fid).full


# ---------------------------------------------------------------------------
# The front door
# ---------------------------------------------------------------------------


def _ingested_flstore(config, rounds):
    system = build_default_flstore(config)
    for record in rounds:
        system.ingest_round(record)
    return system


def _admitting(config, **serverless):
    """``config`` with the given ``ServerlessConfig`` (admission) knobs."""
    return replace(config, serverless=replace(config.serverless, **serverless))


@pytest.fixture(scope="module")
def shard_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def shard_rounds(shard_config):
    return FLJobSimulator(shard_config).run_rounds(8)


#: Runs of the retired standalone engine driver, recorded before the plain
#: topology became a one-shard front door.  Regenerate them only from that
#: pre-change code (as with ``tests/data/golden_sweeps/``): each case below
#: ran with ``make_tier = EngineFLStore`` and was dumped with
#: ``json.dumps(case(...), indent=1)``.
ONE_SHARD_GOLDEN_DIR = Path(__file__).parent / "data" / "one_shard_engine"


def report_snapshot(report) -> dict:
    """Per-request rows and timings, daemon counters, tenant rows and ``row()``."""
    return {
        "row": report.row(),
        "keepalive_pings": report.keepalive_pings,
        "reclamations": report.reclamations,
        "tenant_rows": report.tenant_rows,
        "records": [
            dataclasses.asdict(record)
            for record in report.to_records(system="s", model_name="m")
        ],
        "timings": [
            (o.request.request_id, o.arrived_at, o.started_at, o.completed_at, o.disposition)
            for o in report.outcomes
        ],
    }


def unbounded_case(make_tier, config, rounds) -> dict:
    """Every registered workload, four overlapping arrivals, unbounded queues."""
    snapshots = {}
    for workload_name in list_workloads():
        tier = make_tier(_ingested_flstore(config, rounds))
        trace = RequestTraceGenerator(tier.catalog, seed=3).workload_trace(workload_name, 4)
        report = tier.run_open_loop(trace, [0.0, 0.0, 0.5, 1.0], label="x", keepalive=True)
        snapshots[workload_name] = report_snapshot(report)
    return snapshots


def keepalive_idle_gap_case(make_tier, config, rounds) -> dict:
    """The second arrival lands two keep-alive intervals (60s) after the
    first completed, so the tier is idle at the t=60 and t=120 pings."""
    tier = make_tier(_ingested_flstore(config, rounds))
    trace = RequestTraceGenerator(tier.catalog, seed=3).workload_trace("inference", 2)
    report = tier.run_open_loop(trace, [0.0, 130.0], label="gap", keepalive=True)
    return report_snapshot(report)


def wfq_pushout_case(make_tier, config, rounds) -> dict:
    """Two tenants under WFQ with a two-deep queue: the noisy tenant floods
    the queue and violates its tight SLO, so steady arrivals push its
    waiters out."""
    wfq = _admitting(config, queue_discipline="wfq", max_queue_depth=2)
    tier = make_tier(_ingested_flstore(wfq, rounds))
    tier.configure_tenants({"noisy": 1.0, "steady": 3.0}, {"noisy": 0.2, "steady": 5.0})
    generator = RequestTraceGenerator(tier.catalog, seed=3)
    noisy = generator.tenant_trace("noisy", ["inference"], 40)
    steady = generator.tenant_trace("steady", ["inference"], 8)
    merged = sorted(
        [(0.5 * i, 0, request) for i, request in enumerate(noisy)]
        + [(5.25 + 1.0 * i, 1, request) for i, request in enumerate(steady)],
        key=lambda item: (item[0], item[1]),
    )
    report = tier.run_open_loop(
        [item[2] for item in merged],
        [item[0] for item in merged],
        label="wfq-pushout",
        keepalive=True,
        slo_seconds=0.2,
    )
    return report_snapshot(report)


def streaming_case(make_tier, config, rounds) -> dict:
    """Poisson arrivals on a bounded queue, folded by the streaming pipeline."""
    tier = make_tier(_ingested_flstore(_admitting(config, max_queue_depth=3), rounds))
    generator = RequestTraceGenerator(tier.catalog, seed=3)
    trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], 30)
    arrivals = PoissonArrivals(rate_rps=0.3, seed=5).times(len(trace))
    report = tier.run_open_loop(
        trace, arrivals, label="stream", keepalive=True, slo_seconds=1.0, metrics="streaming"
    )
    return report_snapshot(report)


def one_shard_tier(flstore) -> ShardedEngineFLStore:
    return ShardedEngineFLStore([flstore])


def recorded(case: str):
    return json.loads((ONE_SHARD_GOLDEN_DIR / f"{case}.json").read_text())


def as_json(snapshot) -> str:
    return json.dumps(snapshot, indent=1)


class TestOneShardEquivalence:
    def test_one_shard_unbounded_is_byte_identical_to_engine(self, shard_config, shard_rounds):
        """The acceptance invariant: a 1-shard tier with unbounded queues
        reproduces the recorded plain-engine runs byte for byte — per-request
        rows, timings, and the aggregate report — for every registered
        workload."""
        actual = unbounded_case(one_shard_tier, shard_config, shard_rounds)
        expected = recorded("unbounded")
        assert list(actual) == list(expected)
        for workload_name, snapshot in actual.items():
            assert as_json(snapshot) == as_json(expected[workload_name]), workload_name

    def test_keepalive_survives_idle_gaps_like_plain_engine(self, shard_config, shard_rounds):
        """Regression: the front door routes at arrival time, so a shard's
        own outstanding count is zero during an inter-arrival gap; its
        keep-alive daemon must survive the gap (the recorded plain-engine
        run counted submitted-but-not-yet-arrived requests)."""
        snapshot = keepalive_idle_gap_case(one_shard_tier, shard_config, shard_rounds)
        assert snapshot["keepalive_pings"] > 0
        expected = recorded("keepalive_idle_gap")
        assert as_json(snapshot) == as_json(expected)

    def test_wfq_pushout_is_byte_identical_to_engine(self, shard_config, shard_rounds):
        snapshot = wfq_pushout_case(one_shard_tier, shard_config, shard_rounds)
        # Push-out fired: some waiters were shed after they had queued.
        assert any(
            disposition == "shed" and started > arrived
            for _, arrived, started, _, disposition in snapshot["timings"]
        )
        assert as_json(snapshot) == as_json(recorded("wfq_pushout"))

    def test_streaming_is_byte_identical_to_engine(self, shard_config, shard_rounds):
        snapshot = streaming_case(one_shard_tier, shard_config, shard_rounds)
        assert snapshot["records"] == []
        assert as_json(snapshot) == as_json(recorded("streaming"))

    def test_closed_loop_matches_direct_serve(self, shard_config, shard_rounds):
        """Sequential arrivals through the tier reproduce the direct
        FLStore.serve path exactly — for a mixed trace and for every
        registered workload, including the RequestRecord rows."""
        direct = _ingested_flstore(shard_config, shard_rounds)
        sharded = ShardedEngineFLStore([_ingested_flstore(shard_config, shard_rounds)])
        gen_direct = RequestTraceGenerator(direct.catalog, seed=3)
        gen_sharded = RequestTraceGenerator(sharded.catalog, seed=3)
        mix = ["inference", "clustering"]
        inputs = [("mixed", gen_direct.mixed_trace(mix, 10), gen_sharded.mixed_trace(mix, 10))]
        for workload_name in list_workloads():
            inputs.append(
                (
                    workload_name,
                    gen_direct.workload_trace(workload_name, 4),
                    gen_sharded.workload_trace(workload_name, 4),
                )
            )
        for label, trace_direct, trace_sharded in inputs:
            expected = [direct.serve(request) for request in trace_direct]
            actual = sharded.run_closed_loop(trace_sharded)
            assert len(actual) == len(expected), label
            for want, got in zip(expected, actual):
                assert got.latency == want.latency, label
                assert got.cost == want.cost, label
                assert got.cache_hits == want.cache_hits, label
                assert got.cache_misses == want.cache_misses, label
                assert got.failovers == want.failovers, label
                assert got.prefetched_keys == want.prefetched_keys, label
                assert got.evicted_keys == want.evicted_keys, label
                assert got.served_by == want.served_by, label
                assert got.execution_function == want.execution_function, label
                assert got.to_record("s", "m", 0) == want.to_record("s", "m", 0), label
        # Both sides advanced their virtual clocks identically.
        assert sharded.shards[0].flstore.clock.now() == direct.clock.now()
        assert sharded.loop.now == direct.clock.now()


class TestMultiShard:
    def _sharded(self, shard_config, shard_rounds, num_shards, **kwargs):
        return ShardedEngineFLStore(
            [_ingested_flstore(shard_config, shard_rounds) for _ in range(num_shards)],
            **kwargs,
        )

    def test_requests_partition_across_shards(self, shard_config, shard_rounds):
        sharded = self._sharded(shard_config, shard_rounds, 3)
        generator = RequestTraceGenerator(sharded.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], 30)
        report = sharded.run_open_loop(trace, [0.2 * i for i in range(len(trace))], label="mix")
        assert report.completed == 30
        assert sum(sharded.routed_counts) == 30
        # The mixed trace spans several rounds/clients, so more than one
        # shard must receive traffic.
        assert sum(1 for count in sharded.routed_counts if count > 0) >= 2
        stats = sharded.shard_stats()
        assert [row["routed"] for row in stats] == sharded.routed_counts
        assert sharded.cached_bytes == sum(row["cached_bytes"] for row in stats)
        assert sharded.live_key_count == sum(row["live_keys"] for row in stats)
        assert sum(o.result.latency.total_seconds for o in report.outcomes) > 0
        assert sum(o.result.cost.total_dollars for o in report.outcomes) > 0

    def test_same_routing_key_lands_on_same_shard(self, shard_config, shard_rounds):
        sharded = self._sharded(shard_config, shard_rounds, 4)
        generator = RequestTraceGenerator(sharded.catalog, seed=3)
        # P1 requests all target the latest round -> one routing key.
        trace = generator.workload_trace("inference", 8)
        sharded.run_open_loop(trace, [0.0] * len(trace), label="hot")
        assert sorted(sharded.routed_counts, reverse=True)[0] == 8

    def test_jsq_spreads_the_hot_key_hashing_concentrates(self, shard_config, shard_rounds):
        """The load-aware routing claim, end to end: P1 traffic (one routing
        key) melts a single shard under pure hashing, while JSQ spreads it
        over the key's affinity candidates — lower ``max_shard_routed`` and
        a lower queueing tail at identical offered load."""

        def hot_burst(router_kind):
            sharded = self._sharded(
                shard_config, shard_rounds, 4, router=make_router(router_kind, 4)
            )
            generator = RequestTraceGenerator(sharded.catalog, seed=3)
            trace = generator.workload_trace("inference", 12)
            report = sharded.run_open_loop(trace, [0.0] * len(trace), label=router_kind)
            return sharded, report

        hashed_tier, hashed_report = hot_burst("consistent-hash")
        jsq_tier, jsq_report = hot_burst("jsq")
        assert max(hashed_tier.routed_counts) == 12  # the hot-shard ceiling
        assert max(jsq_tier.routed_counts) < 12
        # JSQ stays on the key's two affinity candidates (fanout=2), so the
        # other shards' caches are untouched.
        assert sum(1 for count in jsq_tier.routed_counts if count) == 2
        assert jsq_report.completed == hashed_report.completed == 12
        assert jsq_report.p99_sojourn_seconds < hashed_report.p99_sojourn_seconds

    def test_jsq_routing_is_deterministic(self, shard_config, shard_rounds):
        def run_once():
            sharded = self._sharded(
                shard_config, shard_rounds, 3, router=make_router("jsq", 3)
            )
            generator = RequestTraceGenerator(sharded.catalog, seed=3)
            trace = generator.mixed_trace(["inference", "clustering"], 18)
            report = sharded.run_open_loop(
                trace, [0.05 * i for i in range(len(trace))], label="jsq"
            )
            return report.row(), list(sharded.routed_counts)

        assert run_once() == run_once()

    def test_mismatched_router_rejected(self, shard_config, shard_rounds):
        with pytest.raises(ValueError):
            self._sharded(shard_config, shard_rounds, 2, router=make_router("modulo", 3))

    def test_empty_tier_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngineFLStore([])


class TestAdmissionControl:
    def _burst(self, sharded, num_requests=12):
        generator = RequestTraceGenerator(sharded.catalog, seed=3)
        trace = generator.workload_trace("inference", num_requests)
        return sharded.run_open_loop(trace, [0.0] * len(trace), label="burst")

    def test_drop_policy_sheds_and_conserves(self, shard_config, shard_rounds):
        config = _admitting(shard_config, max_queue_depth=2, shed_policy="drop")
        sharded = ShardedEngineFLStore([_ingested_flstore(config, shard_rounds)])
        report = self._burst(sharded, num_requests=12)
        assert report.shed > 0
        assert report.degraded == 0
        assert report.served + report.degraded + report.shed == report.submitted
        assert report.shed_rate == pytest.approx(report.shed / report.submitted)
        assert report.completed == report.served
        shed_outcomes = [o for o in report.outcomes if o.disposition == "shed"]
        assert len(shed_outcomes) == report.shed
        for outcome in shed_outcomes:
            # The rejection is instantaneous on the serving tier and costs
            # nothing; the row still exists and carries the client RTT.
            assert outcome.completed_at == outcome.arrived_at
            assert outcome.result.cost.total_dollars == 0.0
            assert outcome.result.latency.communication_seconds > 0
        # Tier- and shard-level shed accounting tie out.
        assert sharded.shed_requests == report.shed
        assert sharded.shards[0].shed_requests == report.shed

    def test_degrade_policy_serves_on_objstore_path(self, shard_config, shard_rounds):
        config = _admitting(shard_config, max_queue_depth=2, shed_policy="degrade-to-objstore")
        sharded = ShardedEngineFLStore([_ingested_flstore(config, shard_rounds)])
        report = self._burst(sharded, num_requests=12)
        assert report.degraded > 0
        assert report.shed == 0
        assert report.served + report.degraded + report.shed == report.submitted
        assert report.completed == report.served + report.degraded
        degraded = [o for o in report.outcomes if o.disposition == "degraded"]
        cold_start = sharded.config.serverless.cold_start_seconds
        for outcome in degraded:
            # The bypass path pays a cold start plus object-store fetches
            # and real compute: strictly slower than a warm cache hit.
            assert outcome.result.latency.cold_start_seconds == pytest.approx(cold_start)
            assert outcome.result.latency.communication_seconds > 0
            assert outcome.result.cost.total_dollars > 0
            assert outcome.result.cache_hits == 0
        assert sharded.degraded_requests == report.degraded

    def test_unbounded_queue_never_sheds(self, shard_config, shard_rounds):
        config = _admitting(shard_config, max_queue_depth=0)
        sharded = ShardedEngineFLStore([_ingested_flstore(config, shard_rounds)])
        report = self._burst(sharded, num_requests=12)
        assert report.shed == 0 and report.degraded == 0
        assert report.served == report.submitted

    def test_shedding_is_deterministic(self, shard_config, shard_rounds):
        def run_once():
            config = _admitting(shard_config, max_queue_depth=2, shed_policy="drop")
            sharded = ShardedEngineFLStore(
                [_ingested_flstore(config, shard_rounds) for _ in range(2)]
            )
            generator = RequestTraceGenerator(sharded.catalog, seed=3)
            trace = generator.mixed_trace(["inference", "clustering"], 20)
            report = sharded.run_open_loop(trace, [0.05 * i for i in range(len(trace))], label="d")
            return report.row(), [
                (o.request.request_id, o.disposition, o.completed_at) for o in report.outcomes
            ]

        assert run_once() == run_once()


class TestArrivalEvent:
    """An arrival is one kernel event: it routes the request and admits it."""

    def test_serving_oracle_runs_inside_the_arrival_event(self, shard_config, shard_rounds):
        sharded = ShardedEngineFLStore(
            [_ingested_flstore(shard_config, shard_rounds) for _ in range(2)]
        )
        loop = sharded.loop
        served_at = []
        for shard in sharded.shards:
            serve = shard.flstore.serve

            def spy(request, serve=serve):
                served_at.append(loop.events_fired)
                return serve(request)

            shard.flstore.serve = spy
        trace = RequestTraceGenerator(sharded.catalog, seed=3).mixed_trace(
            ["inference", "clustering"], 6
        )
        for request in trace:
            fired_before = loop.events_fired
            sharded.run_closed_loop([request])
            assert served_at[-1] == fired_before + 1
        assert len(served_at) == len(trace)

    def test_drop_at_admission_resolves_inside_the_arrival_event(
        self, shard_config, shard_rounds
    ):
        """A burst overflows a one-deep queue; each drop resolves in the event that routed it."""
        config = _admitting(shard_config, max_queue_depth=1, shed_policy="drop")
        sharded = ShardedEngineFLStore([_ingested_flstore(config, shard_rounds)])
        loop = sharded.loop
        routed_at, resolved_at, outcomes = {}, {}, []
        route = sharded._route

        def spy(request):
            routed_at[request.request_id] = loop.events_fired
            return route(request)

        def resolved(outcome):
            resolved_at[outcome.request.request_id] = loop.events_fired
            outcomes.append(outcome)

        sharded._route = spy
        trace = RequestTraceGenerator(sharded.catalog, seed=3).workload_trace("inference", 8)
        for request in trace:
            sharded.submit(request, at=0.0).add_done_callback(resolved)
        loop.run()
        shed = [o.request.request_id for o in outcomes if o.disposition == "shed"]
        assert shed
        for request_id in shed:
            assert resolved_at[request_id] == routed_at[request_id]


class TestShardSweep:
    def test_shard_sweep_reports_tail_latency_and_shedding(self):
        from repro.scenario import calibrate, get_scenario, sweep

        base = get_scenario("sharded-burst").with_overrides(
            {
                "num_rounds": 5,
                "workload.num_requests": 16,
                "tier.admission.max_queue_depth": 3,
                "arrival.utilization": 2.0,
            }
        )
        rows = sweep(base, {"tier.shards": (1, 2)})
        assert len(rows) == 2
        assert [row["tier.shards"] for row in rows] == [1, 2]
        for row in rows:
            assert row["conserved"] is True
            assert row["served"] + row["shed"] + row["degraded"] == 16
            assert "p99_sojourn_seconds" in row and "shed_rate" in row
            assert 0.0 <= row["shed_rate"] <= 1.0
            assert row["shards"] in (1, 2)
        assert base.tier.admission.shed_policy == "drop"
        assert calibrate(base) > 0

    def test_shard_count_by_load_grid_conserves_and_sheds_one_shard_overload(self):
        """``sharded-burst`` at 48 requests behind a 4-deep queue, shards
        1/2/4 x utilization 1/2: every cell conserves, and overload (rho 2
        against one shard's capacity) sheds on a single shard."""
        from repro.scenario import get_scenario, sweep

        base = get_scenario("sharded-burst").with_overrides(
            {"workload.num_requests": 48, "tier.admission.max_queue_depth": 4}
        )
        rows = sweep(base, {"tier.shards": (1, 2, 4), "arrival.utilization": (1.0, 2.0)})
        assert len(rows) == 6
        for row in rows:
            assert row["conserved"] is True
            assert row["served"] + row["shed"] + row["degraded"] == 48
            assert row["p99_sojourn_seconds"] >= row["p50_sojourn_seconds"]
        by_point = {(row["shards"], row["utilization"]): row for row in rows}
        assert by_point[(1, 2.0)]["shed"] > 0

    def test_router_sweep_jsq_spreads_a_hot_keyed_mix(self):
        """Consistent hashing vs JSQ on a bursty inference + scheduling_perf
        mix over four shards: at rho 2, the load-aware placement spreads the
        hot key that hashing concentrates."""
        from repro.scenario import ArrivalSpec, ScenarioSpec, TierSpec, WorkloadMixSpec, sweep

        base = ScenarioSpec(
            name="router-compare",
            num_rounds=6,
            workload=WorkloadMixSpec(workloads=("inference", "scheduling_perf"), num_requests=32),
            arrival=ArrivalSpec(kind="bursty", utilization=2.0),
            tier=TierSpec(shards=4, router_kind="consistent-hash"),
        )
        rows = sweep(
            base,
            {"tier.router_kind": ("consistent-hash", "jsq"), "arrival.utilization": (1.0, 2.0)},
        )
        assert len(rows) == 4
        assert all(row["conserved"] is True for row in rows)
        by_point = {(row["router"], row["utilization"]): row for row in rows}
        assert (
            by_point[("jsq", 2.0)]["max_shard_routed"]
            < by_point[("consistent-hash", 2.0)]["max_shard_routed"]
        )

    def test_shard_sweep_jsq_reduces_hot_key_imbalance(self):
        """``tier.router_kind=jsq`` on a P1-only (single hot key) mix: the
        JSQ placement's ``max_shard_routed`` must sit well below hashing's
        all-on-one-shard count at the same offered overload."""
        from repro.scenario import get_scenario, sweep

        def max_routed(router_kind):
            base = get_scenario("sharded-burst").with_overrides(
                {
                    "workload.workloads": ["inference"],
                    "num_rounds": 5,
                    "workload.num_requests": 16,
                    "tier.admission.max_queue_depth": 0,
                    "tier.router_kind": router_kind,
                    "arrival.utilization": 2.0,
                }
            )
            (row,) = sweep(base, {"tier.shards": (4,)})
            assert row["conserved"] is True
            return row["max_shard_routed"]

        hashed = max_routed("consistent-hash")
        jsq = max_routed("jsq")
        assert hashed == 16  # every request on the one hot shard
        assert jsq < hashed
