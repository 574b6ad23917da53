"""Autoscaling: policies, the control-loop driver, and online tier resize."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.engine import (
    AUTOSCALER_KINDS,
    AutoscaleConfig,
    Autoscaler,
    ControlSampler,
    ControlSignals,
    NullAutoscaler,
    PredictiveAutoscaler,
    ReactiveThresholdAutoscaler,
    ShardedEngineFLStore,
    SimTask,
    make_autoscaler_policy,
)
from repro.fl.trainer import FLJobSimulator
from repro.scenario import get_scenario, list_scenarios, run
from repro.serverless.platform import ServerlessPlatform
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.registry import list_workloads


def _signals(
    now=0.0,
    queue_depth=0,
    arrival_rate=0.0,
    shed_delta=0,
    active_shards=1,
    slots_per_function=1,
    **overrides,
):
    capacity = slots_per_function * active_shards
    values = dict(
        now=now,
        queue_depth=queue_depth,
        arrival_rate=arrival_rate,
        arrival_rate_ewma=arrival_rate,
        shed_delta=shed_delta,
        degraded_delta=0,
        requeued_delta=0,
        active_shards=active_shards,
        slots_per_function=slots_per_function,
        capacity_units=capacity,
        inflight=queue_depth,
    )
    values.update(overrides)
    return ControlSignals(**values)


# ---------------------------------------------------------------------------
# Policies (unit level, synthetic signals)
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_factory_builds_every_kind_and_rejects_unknown(self):
        for kind in AUTOSCALER_KINDS:
            policy = make_autoscaler_policy(kind, mean_service_seconds=2.0)
            assert policy.name == kind
        with pytest.raises(ValueError):
            make_autoscaler_policy("nope")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AutoscaleConfig(control_interval_seconds=0)
        with pytest.raises(ConfigurationError):
            AutoscaleConfig(min_shards=4, max_shards=2)
        with pytest.raises(ConfigurationError):
            AutoscaleConfig(low_backlog_per_unit=1.0, high_backlog_per_unit=0.5)
        with pytest.raises(ConfigurationError):
            AutoscaleConfig(target_utilization=0.0)
        with pytest.raises(ConfigurationError):
            PredictiveAutoscaler(mean_service_seconds=0.0)

    def test_null_policy_always_holds(self):
        policy = NullAutoscaler()
        assert policy.decide(_signals(queue_depth=100, shed_delta=50)).is_hold

    def test_reactive_scales_up_on_backlog_and_respects_cooldown(self):
        policy = ReactiveThresholdAutoscaler(AutoscaleConfig(scale_up_cooldown_seconds=10.0))
        decision = policy.decide(_signals(now=0.0, queue_depth=5, slots_per_function=2))
        assert decision.target_capacity_units == 3  # backlog 2.5/unit > 1.0 high watermark
        # Within the up-cooldown: hold even under pressure.
        assert policy.decide(_signals(now=5.0, queue_depth=9, slots_per_function=2)).is_hold
        # Past the cooldown it acts again.
        assert not policy.decide(_signals(now=10.0, queue_depth=9, slots_per_function=2)).is_hold

    def test_reactive_steps_harder_when_shedding(self):
        policy = ReactiveThresholdAutoscaler()
        decision = policy.decide(_signals(queue_depth=4, shed_delta=6))
        assert decision.target_capacity_units == 1 + 1 + 6 // 2

    def test_reactive_scales_down_below_low_watermark_only(self):
        config = AutoscaleConfig(scale_down_cooldown_seconds=30.0)
        policy = ReactiveThresholdAutoscaler(config)
        # Mid-band backlog: hysteresis holds.
        assert policy.decide(_signals(queue_depth=2, slots_per_function=4)).is_hold
        decision = policy.decide(_signals(now=0.0, queue_depth=0, slots_per_function=4))
        assert decision.target_capacity_units == 3
        # Down-cooldown prevents immediate repeat; at the floor it holds too.
        assert policy.decide(_signals(now=10.0, queue_depth=0, slots_per_function=4)).is_hold
        assert policy.decide(_signals(now=100.0, queue_depth=0)).is_hold  # already at min

    def test_reactive_holds_at_capacity_ceiling(self):
        config = AutoscaleConfig(max_shards=2, max_slots_per_function=2)
        policy = ReactiveThresholdAutoscaler(config)
        ceiling = _signals(queue_depth=50, active_shards=2, slots_per_function=2)
        assert policy.decide(ceiling).is_hold

    def test_predictive_scales_ahead_of_a_ramp(self):
        config = AutoscaleConfig(forecast_lead_seconds=15.0, control_interval_seconds=5.0)
        policy = PredictiveAutoscaler(mean_service_seconds=5.0, config=config)
        decision = None
        for tick, rate in enumerate((0.1, 0.2, 0.3, 0.4)):
            decision = policy.decide(_signals(now=5.0 * tick, arrival_rate=rate))
        # The Holt trend extrapolates the ramp: the forecast exceeds the last
        # sample, so the target covers more than the current rate needs.
        assert policy.forecast_rate > 0.4
        assert decision.target_capacity_units >= 3

    def test_predictive_releases_capacity_on_a_downslope(self):
        config = AutoscaleConfig(forecast_lead_seconds=15.0, control_interval_seconds=5.0)
        policy = PredictiveAutoscaler(mean_service_seconds=5.0, config=config)
        decision = None
        for tick, rate in enumerate((0.8, 0.6, 0.4, 0.2)):
            signals = _signals(now=5.0 * tick, arrival_rate=rate, slots_per_function=4)
            decision = policy.decide(signals)
        # On a downslope the trend is negative, so the forecast undershoots
        # the smoothed level and capacity is handed back ahead of the trough.
        assert policy.forecast_rate < policy._level
        assert decision is not None and decision.target_capacity_units < 4

    def test_predictive_respects_capacity_bounds(self):
        config = AutoscaleConfig(max_shards=2, max_slots_per_function=2)
        policy = PredictiveAutoscaler(mean_service_seconds=100.0, config=config)
        decision = policy.decide(_signals(arrival_rate=10.0))
        assert decision.target_capacity_units == config.max_capacity_units


# ---------------------------------------------------------------------------
# The control sampler both control loops share
# ---------------------------------------------------------------------------


def _shard_tally(finished, violations):
    """A shard stand-in holding only the per-flow tally the sampler reads."""
    return SimpleNamespace(finished=dict(finished), violations=dict(violations))


class TestControlSampler:
    def test_two_ticks_give_exact_deltas_and_worst_tenant_rate(self):
        # Two shards' tallies: the sampler reads their sum through the front
        # door's ``flow_tally``, so tenant "a" finishing on both shards is
        # one flow, and untagged requests (``None``) count in the aggregate
        # deltas but never as a tenant.
        tier = SimpleNamespace(
            loop=SimpleNamespace(now=0.0),
            arrived_requests=3,
            shed_requests=1,
            degraded_requests=0,
            requeued_requests=0,
            shards=[_shard_tally({"a": 1}, {"a": 1}), _shard_tally({"b": 1}, {})],
            waiting_requests=0,
            num_shards=2,
            slots_per_function=1,
            capacity_units=2,
            inflight=1,
        )
        tier.flow_tally = lambda: ShardedEngineFLStore.flow_tally(tier)
        sampler = ControlSampler(tier, interval_seconds=5.0, ewma_alpha=0.5)

        tier.loop.now = 5.0
        tier.arrived_requests = 13
        tier.shed_requests, tier.degraded_requests, tier.requeued_requests = 3, 1, 2
        tier.shards = [
            _shard_tally({"a": 3, None: 2}, {"a": 2, None: 2}),
            _shard_tally({"a": 1, "b": 2}, {}),
        ]
        tier.waiting_requests, tier.inflight = 7, 9
        first = sampler.sample()
        assert first.now == 5.0
        assert first.queue_depth == 7 and first.inflight == 9
        assert first.arrival_rate == 2.0  # 10 arrivals over 5 s
        assert first.arrival_rate_ewma == 1.0
        assert (first.shed_delta, first.degraded_delta, first.requeued_delta) == (2, 1, 2)
        assert (first.slo_violation_delta, first.finished_delta) == (3, 6)
        assert first.violation_rate == 0.5
        # Tenant "a" violated 1 of 3 window finishes and "b" 0 of 1; the
        # untagged requests' 2 of 2 count in the aggregate only.
        assert first.max_tenant_violation_rate == 1 / 3
        assert (first.active_shards, first.slots_per_function, first.capacity_units) == (2, 1, 2)

        # The second window sees only what happened since the first sample;
        # a tenant with no new finishes does not count, and a shard built
        # since (the third) adds its whole tally.
        tier.loop.now = 10.0
        tier.arrived_requests = 18
        tier.requeued_requests = 5
        tier.shards = [
            _shard_tally({"a": 4, None: 2}, {"a": 3, None: 2}),
            _shard_tally({"a": 1, "b": 2}, {}),
            _shard_tally({"a": 1}, {"a": 1}),
        ]
        second = sampler.sample()
        assert second.arrival_rate == 1.0
        assert second.arrival_rate_ewma == 1.0
        assert (second.shed_delta, second.degraded_delta, second.requeued_delta) == (0, 0, 3)
        assert (second.slo_violation_delta, second.finished_delta) == (2, 2)
        assert second.violation_rate == 1.0
        assert second.max_tenant_violation_rate == 1.0

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name in list_scenarios()
            if get_scenario(name).tier.autoscaler.enabled or get_scenario(name).remediation.enabled
        ],
    )
    def test_queue_depth_is_every_shards_waiters_at_every_tick(self, name, monkeypatch):
        """The front door's running queue depth, which the sampler reads,
        equals the waiters its active shards hold, and a retired shard
        holds none."""
        ticks = []
        sample = ControlSampler.sample

        def checked(sampler):
            tier = sampler.tier
            ticks.append(
                (
                    tier.waiting_requests,
                    sum(shard.waiting for shard in tier.active_shards),
                    sum(shard.waiting for shard in tier.shards),
                )
            )
            return sample(sampler)

        monkeypatch.setattr(ControlSampler, "sample", checked)
        run(get_scenario(name))
        assert any(depth > 0 for depth, _, _ in ticks)
        assert all(depth == active == every for depth, active, every in ticks)


# ---------------------------------------------------------------------------
# Platform- and engine-level capacity scaling
# ---------------------------------------------------------------------------


class TestConcurrencyScaling:
    def test_platform_rescale_grants_queued_waiters(self):
        platform = ServerlessPlatform()
        function, _ = platform.spawn_function()
        assert function.concurrency_limit == 1  # one slot until re-scaled
        fid = function.function_id
        assert platform.try_acquire_slot(fid)
        platform.enqueue_waiter(fid, "first")
        platform.enqueue_waiter(fid, "second")
        granted = platform.set_function_concurrency(2)
        assert granted == ["first"]
        assert function.concurrency_limit == 2
        assert function.active_executions == 2
        assert platform.queue_depth(fid) == 1

    def test_lowering_concurrency_is_lazy(self):
        platform = ServerlessPlatform()
        platform.set_function_concurrency(3)
        function, _ = platform.spawn_function()
        fid = function.function_id
        for _ in range(3):
            assert platform.try_acquire_slot(fid)
        assert platform.set_function_concurrency(1) == []
        # Active executions finish normally; no new slot is granted above
        # the lowered limit.
        assert function.active_executions == 3
        assert not function.has_execution_slot
        platform.release_slot(fid)
        platform.release_slot(fid)
        assert function.active_executions == 1
        assert not function.has_execution_slot

    def test_rescale_applies_to_future_spawns_and_rejects_nonpositive(self):
        platform = ServerlessPlatform()
        platform.set_function_concurrency(4)
        function, _ = platform.spawn_function()
        assert function.concurrency_limit == 4
        assert platform.function_concurrency == 4
        with pytest.raises(ValueError):
            platform.set_function_concurrency(0)

    def test_provisioned_slots_and_gb_track_limits(self):
        platform = ServerlessPlatform()
        platform.set_function_concurrency(2)
        platform.spawn_function()
        platform.spawn_function()
        assert platform.provisioned_slots == 4
        assert platform.provisioned_gb == pytest.approx(2 * 2 * 4.0)  # 2 fns x 2 slots x 4 GB


# ---------------------------------------------------------------------------
# The resizable tier
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scale_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def scale_rounds(scale_config):
    return FLJobSimulator(scale_config).run_rounds(8)


def _built_tier(config, rounds, **kwargs):
    tier = ShardedEngineFLStore.build(1, config=config, **kwargs)
    for record in rounds:
        tier.ingest_round(record)
    return tier


class TestOnlineResize:
    def test_add_shard_joins_cold_and_receives_traffic(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds)
        warm_before = tier.shards[0].flstore.cached_bytes
        assert warm_before > 0
        index = tier.add_shard()
        assert index == 1 and tier.num_shards == 2
        new_shard = tier.shards[1]
        # Same catalog, but a cold cache: the warmup transient is real.
        assert new_shard.catalog.rounds() == tier.shards[0].catalog.rounds()
        assert new_shard.flstore.cached_bytes == 0
        generator = RequestTraceGenerator(tier.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], 30)
        report = tier.run_open_loop(trace, [0.2 * i for i in range(len(trace))], label="mix")
        assert report.served + report.degraded + report.shed == report.submitted
        assert tier.routed_counts[1] > 0

    def test_add_after_remove_reuses_the_retired_shard(self, scale_config, scale_rounds):
        """A diurnal add/remove cycle must reuse one chassis — not rebuild a
        store per peak — and a re-activated shard catches up the rounds it
        missed while retired (still joining with a cold cache)."""
        from repro.fl.trainer import FLJobSimulator

        tier = _built_tier(scale_config, scale_rounds)
        added = tier.add_shard()
        tier.remove_shard()
        extra = FLJobSimulator(scale_config).run_rounds(10)[8:]
        for record in extra:
            tier.ingest_round(record)
        reused = tier.add_shard()
        assert reused == added
        assert len(tier.shards) == 2
        shard = tier.shards[reused]
        assert shard.catalog.rounds() == tier.shards[0].catalog.rounds()
        assert shard.flstore.cached_bytes == 0  # catch-up still joins cold

    def test_resize_preserves_router_parameters(self, scale_config, scale_rounds):
        from repro.routing import ConsistentHashRouter

        tier = _built_tier(scale_config, scale_rounds, router=ConsistentHashRouter(1, vnodes=16))
        tier.add_shard()
        assert isinstance(tier.router, ConsistentHashRouter)
        assert tier.router.num_shards == 2
        assert tier.router.vnodes == 16
        tier.remove_shard()
        assert tier.router.vnodes == 16 and tier.router.num_shards == 1

    def test_add_shard_requires_factory(self, scale_config, scale_rounds):
        flstore = build_default_flstore(scale_config)
        for record in scale_rounds:
            flstore.ingest_round(record)
        tier = ShardedEngineFLStore([flstore])
        with pytest.raises(RuntimeError):
            tier.add_shard()

    def test_remove_shard_is_lifo_and_guards_last(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds)
        with pytest.raises(ConfigurationError):
            tier.remove_shard()
        added = tier.add_shard()
        assert tier.remove_shard() == added
        assert tier.num_shards == 1
        stats = tier.shard_stats()
        assert stats[0]["active"] and not stats[1]["active"]
        # Retirement released the shard's warm capacity.
        assert tier.shards[added].flstore.warm_function_count == 0

    def test_mid_run_resize_routes_and_conserves(self, scale_config, scale_rounds):
        """Requests arriving after a mid-run add land on the new shard, and
        a mid-run remove drains its waiters as requeued — conservation holds
        through both resizes."""
        tier = _built_tier(scale_config, scale_rounds)
        generator = RequestTraceGenerator(tier.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], 40)
        arrivals = [0.5 * i for i in range(len(trace))]
        tier.loop.schedule_at(2.0, tier.add_shard)
        report = tier.run_open_loop(trace, arrivals, label="resize")
        assert report.served + report.degraded + report.shed == report.submitted
        assert tier.num_shards == 2
        assert tier.routed_counts[1] > 0

    def test_remove_shard_requeues_waiters(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds)
        tier.add_shard()
        generator = RequestTraceGenerator(tier.catalog, seed=3)
        # A simultaneous burst on every shard queues waiters behind the
        # single execution slot; removing the newest shard mid-run drains
        # its waiters without losing them.
        trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], 24)
        tier.loop.schedule_at(0.5, tier.remove_shard)
        report = tier.run_open_loop(trace, [0.0] * len(trace), label="drain")
        assert report.served + report.degraded + report.shed == report.submitted
        assert report.completed == report.submitted
        if tier.requeued_requests:
            assert report.requeued == tier.requeued_requests

    def test_added_shard_inherits_tighter_bound_and_slots(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds, max_queue_depth=3, queue_discipline="drr")
        tier.set_function_concurrency(2)
        tier.add_shard()
        added = tier.shards[-1]
        queue = added.platform.request_queue("probe")
        assert (queue.capacity, queue.discipline) == (3, "drr")
        assert added.platform.function_concurrency == 2

    def test_online_shed_policy_reaches_every_shard(self, scale_config, scale_rounds):
        """After ``set_shed_policy``, an arrival refused admission on a
        re-activated shard and on a shard built later is served degraded."""

        def refused(shard) -> str:
            # One request executes, one waits at the queue bound of 1, and
            # the third is refused admission.
            tasks = []
            for _ in range(3):
                request = shard.flstore.make_request(
                    "inference", round_id=tier.catalog.latest_round
                )
                tasks.append(SimTask(tier.loop, name=request.request_id))
                shard.admit(request, tasks[-1])
            tier.loop.run()
            return tasks[-1].result.disposition

        tier = _built_tier(scale_config, scale_rounds, max_queue_depth=1)
        assert tier.shed_policy == "drop"
        assert refused(tier.shards[0]) == "shed"
        retired = tier.shards[tier.add_shard()]
        tier.remove_shard()
        tier.set_shed_policy("degrade-to-objstore")
        assert tier.shards[tier.add_shard()] is retired
        built = tier.shards[tier.add_shard()]
        assert built is not retired
        assert refused(retired) == "degraded"
        assert refused(built) == "degraded"

    def test_raising_slots_mid_run_shortens_the_burst(self, scale_config, scale_rounds):
        def run(rescale: bool) -> float:
            tier = _built_tier(scale_config, scale_rounds)
            generator = RequestTraceGenerator(tier.catalog, seed=3)
            trace = generator.workload_trace("inference", 8)
            if rescale:
                tier.loop.schedule_at(0.5, lambda: tier.set_function_concurrency(4))
            report = tier.run_open_loop(trace, [0.0] * len(trace), label="burst")
            return max(outcome.completed_at for outcome in report.outcomes)

        assert run(rescale=True) < run(rescale=False)


# ---------------------------------------------------------------------------
# The control-loop driver
# ---------------------------------------------------------------------------


class TestAutoscalerDriver:
    def test_factor_target_prefers_slots_then_shards(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds)
        autoscaler = Autoscaler(tier, NullAutoscaler(AutoscaleConfig(max_slots_per_function=4)))
        assert autoscaler._factor_target(3, current_shards=1, current_slots=1) == (1, 3)
        assert autoscaler._factor_target(5, current_shards=1, current_slots=1) == (2, 3)
        # Shard-count hysteresis: a target of 3 still fits comfortably in one
        # shard, so the second shard is retired only with a unit of slack.
        assert autoscaler._factor_target(4, current_shards=2, current_slots=2) == (2, 2)
        assert autoscaler._factor_target(3, current_shards=2, current_slots=2) == (1, 3)

    def test_factor_target_never_swallows_a_scale_down(self, scale_config, scale_rounds):
        """Regression: at 2 shards x 4 slots a one-unit release used to round
        straight back to (2, 4) and the tier could never give capacity back;
        the driver now actuates the single step closest to the target."""
        tier = _built_tier(scale_config, scale_rounds)
        autoscaler = Autoscaler(tier, NullAutoscaler(AutoscaleConfig(max_slots_per_function=4)))
        assert autoscaler._factor_target(7, current_shards=2, current_slots=4) == (2, 3)
        # A genuine hold (target == current capacity) is still a no-op.
        assert autoscaler._factor_target(8, current_shards=2, current_slots=4) == (2, 4)
        # At high shard counts the slot step releases one unit *per shard*
        # (8x3 = 24), so a one-unit ask actuates as one shard fewer instead
        # (7x4 = 28 — the least overshoot the actuator can express).
        assert autoscaler._factor_target(31, current_shards=8, current_slots=4) == (7, 4)
        # At the slot floor only the shard step remains.
        assert autoscaler._factor_target(2, current_shards=3, current_slots=1) == (2, 1)

    def test_scale_up_never_lowers_warm_slots(self, scale_config, scale_rounds):
        """A target crossing a shard boundary must not retire warm instances
        on the existing shards while the new shard is still cold: 2x4 asked
        for 9 units factors to (3, 4), never (3, 3)."""
        tier = _built_tier(scale_config, scale_rounds)
        autoscaler = Autoscaler(tier, NullAutoscaler(AutoscaleConfig(max_slots_per_function=4)))
        assert autoscaler._factor_target(9, current_shards=2, current_slots=4) == (3, 4)
        assert autoscaler._factor_target(5, current_shards=1, current_slots=4) == (2, 4)

    def test_null_autoscaler_accrues_fixed_capacity(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds)
        autoscaler = Autoscaler(tier, NullAutoscaler())
        generator = RequestTraceGenerator(tier.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering"], 10)
        report = tier.run_open_loop(
            trace, [1.0 * i for i in range(len(trace))], label="fixed", autoscaler=autoscaler
        )
        summary = autoscaler.summary()
        assert summary.scale_events == 0
        assert summary.final_shards == 1
        horizon = max(o.completed_at for o in report.outcomes)
        # Fixed capacity: the integral is capacity x elapsed time (the loop
        # may outlive the last completion by up to one control tick).
        assert summary.capacity_unit_seconds >= tier.capacity_units * horizon
        assert summary.warm_capacity_cost_dollars > 0

    def test_autoscaler_drives_exactly_one_run(self, scale_config, scale_rounds):
        tier = _built_tier(scale_config, scale_rounds)
        autoscaler = Autoscaler(tier, NullAutoscaler())
        autoscaler.start()
        with pytest.raises(RuntimeError):
            autoscaler.start()

    def test_do_nothing_autoscaler_is_byte_identical(self, scale_config, scale_rounds):
        """The pinned guarantee that autoscaling is purely additive: a tier
        driven by the do-nothing policy reproduces the plain tier byte for
        byte — rows, report, and timings — for every registered workload."""

        def build_tier():
            flstore = build_default_flstore(scale_config)
            for record in scale_rounds:
                flstore.ingest_round(record)
            return ShardedEngineFLStore([flstore])

        for workload_name in list_workloads():
            plain = build_tier()
            scaled = build_tier()
            autoscaler = Autoscaler(scaled, NullAutoscaler())
            gen_plain = RequestTraceGenerator(plain.catalog, seed=3)
            gen_scaled = RequestTraceGenerator(scaled.catalog, seed=3)
            trace_plain = gen_plain.workload_trace(workload_name, 4)
            trace_scaled = gen_scaled.workload_trace(workload_name, 4)
            arrivals = [0.0, 0.0, 0.5, 1.0]
            report_plain = plain.run_open_loop(trace_plain, arrivals, label="x", keepalive=True)
            report_scaled = scaled.run_open_loop(
                trace_scaled, arrivals, label="x", keepalive=True, autoscaler=autoscaler
            )
            assert report_scaled.row() == report_plain.row(), workload_name
            rows_plain = report_plain.to_records(system="s", model_name="m")
            rows_scaled = report_scaled.to_records(system="s", model_name="m")
            assert rows_scaled == rows_plain, workload_name
            timings_plain = [
                (o.request.request_id, o.arrived_at, o.started_at, o.completed_at, o.disposition)
                for o in report_plain.outcomes
            ]
            timings_scaled = [
                (o.request.request_id, o.arrived_at, o.started_at, o.completed_at, o.disposition)
                for o in report_scaled.outcomes
            ]
            assert timings_scaled == timings_plain, workload_name


# ---------------------------------------------------------------------------
# The autoscale sweep
# ---------------------------------------------------------------------------


class TestAutoscaleSweep:
    def test_sweep_conserves_and_reports_capacity_columns(self):
        from repro.scenario import get_scenario, sweep

        base = get_scenario("autoscale-diurnal").with_overrides(
            {
                "num_rounds": 5,
                "workload.num_requests": 24,
                "tier.admission.max_queue_depth": 3,
                "arrival.utilization": 2.0,
            }
        )
        rows = sweep(base, {"tier.autoscaler.policy": ("none", "reactive")})
        assert [row["autoscaler"] for row in rows] == ["none", "reactive"]
        for row in rows:
            assert row["conserved"] is True
            assert row["served"] + row["shed"] + row["degraded"] == 24
            assert row["capacity_unit_seconds"] > 0
            assert row["warm_capacity_cost_dollars"] > 0
        none_row = rows[0]
        assert none_row["scale_events"] == 0

    def test_reactive_vs_predictive_ordering_is_deterministic(self):
        """A seed-7 regression pin, at 12 rounds x 160 requests: on the
        diurnal process the predictive policy beats the reactive one on p99
        sojourn AND shed rate at no more warm-capacity cost, fixed capacity
        sheds more than either scaler — and the whole grid is reproducible
        row for row.

        It pins what the code produces at seed 7, not a claim about the
        policies: over spec seeds 1-16 at this size all three orderings hold
        together in 5 seeds, and the capacity-cost ratio has median 1.06
        (EXPERIMENTS.md, "The autoscale sweep")."""
        from repro.fleet import compare_autoscale_policies
        from repro.scenario import expand_axes, get_scenario, run

        base = get_scenario("autoscale-diurnal").with_overrides(
            {"num_rounds": 12, "workload.num_requests": 160, "seed": 7}
        )

        def run_once():
            policies = ("none", "reactive", "predictive")
            grid = expand_axes(base, {"tier.autoscaler.policy": policies})
            return [run(spec) for spec in grid]

        first = run_once()
        second = run_once()
        assert [report.row() for report in first] == [report.row() for report in second]
        by_policy = {report.spec.tier.autoscaler.policy: report.row() for report in first}
        for row in by_policy.values():
            assert row["served"] + row["shed"] + row["degraded"] == 160
        # Fixed capacity drowns under the diurnal peak; the scaler sheds less.
        assert by_policy["none"]["shed"] > by_policy["reactive"]["shed"]
        reactive, predictive = by_policy["reactive"], by_policy["predictive"]
        assert predictive["shed_rate"] <= reactive["shed_rate"]
        assert predictive["p99_sojourn_seconds"] <= reactive["p99_sojourn_seconds"]
        assert predictive["capacity_unit_seconds"] <= reactive["capacity_unit_seconds"]
        # The predictive policy actually scales ahead (it moves capacity),
        # and every policy conserves every offered request.
        assert predictive["scale_events"] > 0
        assert all(report.conserved for report in first)
        comparisons = compare_autoscale_policies(first)
        assert comparisons and comparisons[0]["capacity_cost_ratio"] <= 1.0
