"""Fault injection: clauses, scheduled events, and recovery metrics."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.config import SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.engine import (
    FaultPlan,
    RecoveryMetrics,
    ShardedEngineFLStore,
    compute_recovery_metrics,
)
from repro.fl.trainer import FLJobSimulator
from repro.scenario import FaultSpec, ScenarioSpec, get_scenario
from repro.traces.generator import RequestTraceGenerator


@pytest.fixture(scope="module")
def fault_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def fault_rounds(fault_config):
    return FLJobSimulator(fault_config).run_rounds(8)


def _tier(config, rounds, shards=2, **kwargs):
    tier = ShardedEngineFLStore.build(shards, config=config, **kwargs)
    for record in rounds:
        tier.ingest_round(record)
    return tier


def _engine(config, rounds):
    """A plain topology: one shard behind the front door."""
    flstore = build_default_flstore(config)
    for record in rounds:
        flstore.ingest_round(record)
    return ShardedEngineFLStore([flstore])


def _trace(tier, count, spacing=0.5, seed=3):
    generator = RequestTraceGenerator(tier.catalog, seed=seed)
    trace = generator.mixed_trace(["inference", "clustering", "scheduling_perf"], count)
    return trace, [spacing * i for i in range(count)]


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    @pytest.mark.parametrize(
        "clause",
        [
            {"kind": "quake", "onset_seconds": 0.0},
            {"kind": "shard-crash", "onset_seconds": -1.0},
            {"kind": "shard-crash", "onset_seconds": 0.0, "duration_seconds": -1.0},
            {"kind": "shard-crash", "onset_seconds": 0.0, "magnitude": 0.0},
            {
                "kind": "reclamation-storm",
                "onset_seconds": 0.0,
                "duration_seconds": 10.0,
                "interval_seconds": 0.0,
            },
            {
                "kind": "reclamation-storm",
                "onset_seconds": 0.0,
                "duration_seconds": 10.0,
                "zipf_exponent": 1.0,
            },
            {"kind": "slow-shard", "onset_seconds": 0.0, "duration_seconds": 0.0},
            {"kind": "network-spike", "onset_seconds": 0.0, "duration_seconds": 0.0},
            {"kind": "reclamation-storm", "onset_seconds": 0.0, "duration_seconds": 0.0},
        ],
    )
    def test_invalid_clauses_rejected(self, clause):
        """A plan's clauses come from a scenario file: a bad clause fails when
        the file loads, before any tier is built."""
        tree = get_scenario("fault-recovery").to_dict()
        assert ScenarioSpec.from_dict(tree).faults
        tree["faults"] = [clause]
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(tree)

    def test_crash_clause_needs_a_sharded_tier(self, fault_config, fault_rounds):
        engine = _engine(fault_config, fault_rounds)
        with pytest.raises(ConfigurationError, match="sharded tier"):
            FaultPlan(engine, [FaultSpec(kind="shard-crash", onset_seconds=1.0)])

    def test_plan_drives_exactly_one_run(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds)
        plan = FaultPlan(tier, [FaultSpec(kind="shard-crash", onset_seconds=1.0)])
        plan.start()
        with pytest.raises(RuntimeError):
            plan.start()


# ---------------------------------------------------------------------------
# Injection through the serving tier
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_crash_mid_run_conserves_and_records_sim_time(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 30)
        plan = FaultPlan(tier, [FaultSpec(kind="shard-crash", onset_seconds=3.0)], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert tier.num_shards == 1
        assert report.served + report.degraded + report.shed == report.submitted
        assert len(plan.records) == 1
        record = plan.records[0]
        # The event carries the virtual time it actually fired at.
        assert record.time == pytest.approx(3.0)
        assert record.kind == "shard-crash"
        summary = plan.summary()
        assert summary["fault_clauses"] == 1
        assert summary["fault_events_by_kind"] == {"shard-crash": 1}

    def test_crashing_the_last_shard_raises(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=1)
        with pytest.raises(ConfigurationError):
            tier.crash_shard()

    def test_storm_reclaims_warm_functions_on_every_shard(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 40)
        clause = FaultSpec(
            kind="reclamation-storm",
            onset_seconds=2.0,
            duration_seconds=10.0,
            interval_seconds=4.0,
            magnitude=2.0,
        )
        plan = FaultPlan(tier, [clause], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        # Bursts at t=2, 6, 10 (interval 4 inside a [2, 12] window).
        assert [r.time for r in plan.records] == pytest.approx([2.0, 6.0, 10.0])
        assert all("reclaimed" in r.detail for r in plan.records)

    def test_storm_streams_are_derived_per_clause(self, fault_config, fault_rounds):
        """Clause RNG streams derive from (seed, kind, index): the same run
        twice is identical, and appending a later clause leaves the first
        clause's draws untouched."""
        clause = FaultSpec(
            kind="reclamation-storm", onset_seconds=2.0, duration_seconds=8.0,
            interval_seconds=3.0,
        )
        extra = FaultSpec(kind="slow-shard", onset_seconds=50.0, duration_seconds=5.0)

        def storm_details(clauses):
            tier = _tier(fault_config, fault_rounds, shards=2)
            trace, arrivals = _trace(tier, 30)
            plan = FaultPlan(tier, clauses, seed=7)
            tier.run_open_loop(trace, arrivals, fault_plan=plan)
            return [r.detail for r in plan.records if r.kind == "reclamation-storm"]

        assert storm_details([clause]) == storm_details([clause])
        assert storm_details([clause]) == storm_details([clause, extra])

    def test_slow_shard_degrades_then_heals(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 30)
        # The window must cover execution *starts* (the multiplier is read
        # when a slot is acquired), so it spans the whole arrival ramp.
        clause = FaultSpec(
            kind="slow-shard", onset_seconds=0.0, duration_seconds=30.0, magnitude=4.0
        )
        plan = FaultPlan(tier, [clause], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        # The multiplier is gone by end of run (the heal event fired) ...
        assert all(s.service_time_multiplier == 1.0 for s in tier.active_shards)
        details = [r.detail for r in plan.records]
        assert any("service time x4" in d for d in details)
        assert "slow shard healed" in details
        # ... and the slowdown showed up in sojourn times, not in errors.
        healthy_tier = _tier(fault_config, fault_rounds, shards=2)
        healthy = healthy_tier.run_open_loop(*_trace(healthy_tier, 30))
        assert report.mean_sojourn_seconds > healthy.mean_sojourn_seconds

    def test_network_spike_raises_latency_then_clears(self, fault_config, fault_rounds):
        tier = _tier(fault_config, fault_rounds, shards=2)
        trace, arrivals = _trace(tier, 30)
        clause = FaultSpec(
            kind="network-spike", onset_seconds=0.0, duration_seconds=30.0, magnitude=5.0
        )
        plan = FaultPlan(tier, [clause], seed=7)
        report = tier.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        assert all(s.network_fault_multiplier == 1.0 for s in tier.active_shards)
        details = [r.detail for r in plan.records]
        assert any("network x5" in d for d in details)
        assert "network spike cleared" in details
        healthy_tier = _tier(fault_config, fault_rounds, shards=2)
        healthy = healthy_tier.run_open_loop(*_trace(healthy_tier, 30))
        assert report.mean_sojourn_seconds > healthy.mean_sojourn_seconds

    def test_plain_engine_takes_storm_and_spike(self, fault_config, fault_rounds):
        engine = _engine(fault_config, fault_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering"], 20)
        arrivals = [0.5 * i for i in range(len(trace))]
        clauses = [
            FaultSpec(
                kind="reclamation-storm", onset_seconds=1.0, duration_seconds=4.0,
                interval_seconds=2.0,
            ),
            FaultSpec(
                kind="network-spike", onset_seconds=1.0, duration_seconds=4.0, magnitude=3.0
            ),
        ]
        plan = FaultPlan(engine, clauses, seed=7)
        report = engine.run_open_loop(trace, arrivals, fault_plan=plan)
        assert report.served + report.degraded + report.shed == report.submitted
        assert plan.summary()["fault_events"] >= 3


# ---------------------------------------------------------------------------
# Recovery metrics
# ---------------------------------------------------------------------------


def _outcomes(completed_times, arrived_offset=0.5):
    return [
        SimpleNamespace(
            arrived_at=max(0.0, t - arrived_offset), completed_at=t, disposition="served"
        )
        for t in completed_times
    ]


def _reference_recovery_metrics(
    outcomes, onset_seconds, end_seconds, window_seconds=5.0, baseline_goodput_rps=None
):
    """Brute-force recovery scoring: every window rescans every completion."""
    served_times = sorted(o.completed_at for o in outcomes if o.disposition == "served")
    if baseline_goodput_rps is not None:
        baseline = baseline_goodput_rps
    else:
        start = min((o.arrived_at for o in outcomes), default=0.0)
        pre_span = onset_seconds - start
        pre_count = sum(1 for t in served_times if t < onset_seconds)
        baseline = pre_count / pre_span if pre_span > 0 else 0.0
    horizon = end_seconds - onset_seconds
    if horizon <= 0 or baseline == 0.0:
        return RecoveryMetrics(
            onset_seconds=onset_seconds,
            window_seconds=window_seconds,
            baseline_goodput_rps=baseline,
            time_to_recovery_seconds=0.0,
            goodput_dip_area=0.0,
            recovered=baseline > 0.0,
        )
    threshold = 0.9 * baseline
    dip_area = 0.0
    for k in range(int(math.ceil(horizon / window_seconds))):
        lo = onset_seconds + k * window_seconds
        hi = min(lo + window_seconds, end_seconds)
        width = hi - lo
        if width <= 0:
            break
        count = sum(1 for t in served_times if lo <= t < hi)
        dip_area += max(0.0, baseline - count / width) * width
    post = [t for t in served_times if onset_seconds < t <= end_seconds]
    last_below = 0.0
    for index, t in enumerate(post):
        elapsed = t - onset_seconds
        if index / elapsed < threshold:
            last_below = elapsed
    if len(post) / horizon < threshold:
        last_below = horizon
    return RecoveryMetrics(
        onset_seconds=onset_seconds,
        window_seconds=window_seconds,
        baseline_goodput_rps=baseline,
        time_to_recovery_seconds=last_below,
        goodput_dip_area=dip_area,
        recovered=last_below < horizon,
    )


@st.composite
def _recovery_cases(draw):
    """Completions around a fault: window edges, duplicates, late and unserved rows."""
    window = draw(st.sampled_from([0.5, 1.0, 2.5, 5.0, 0.3]))
    onset = draw(st.floats(min_value=0.0, max_value=40.0))
    whole = draw(st.integers(min_value=0, max_value=6))
    partial = draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.95)))
    end = onset + (whole + partial) * window
    # The exact window boundaries the scorer computes, and the horizon itself.
    edges = [onset + k * window for k in range(whole + 2)] + [end]
    times = draw(
        st.lists(
            st.one_of(
                st.sampled_from(edges),
                st.floats(min_value=0.0, max_value=end + 2 * window),
            ),
            max_size=40,
        )
    )
    if times:
        times += draw(st.lists(st.sampled_from(times), max_size=8))  # duplicates
    dispositions = draw(
        st.lists(
            st.sampled_from(["served", "served", "served", "requeued", "degraded"]),
            min_size=len(times),
            max_size=len(times),
        )
    )
    outcomes = [
        SimpleNamespace(arrived_at=max(0.0, t - 0.5), completed_at=t, disposition=disposition)
        for t, disposition in zip(times, dispositions)
    ]
    baseline = draw(st.one_of(st.none(), st.floats(min_value=0.1, max_value=6.0)))
    return outcomes, onset, end, window, baseline


class TestRecoveryMetrics:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            compute_recovery_metrics([], 0.0, 10.0, window_seconds=0.0)
        with pytest.raises(ConfigurationError):
            compute_recovery_metrics([], 0.0, 10.0, recovery_fraction=0.0)
        with pytest.raises(ConfigurationError):
            compute_recovery_metrics([], 0.0, 10.0, recovery_fraction=1.5)

    def test_steady_service_recovers_with_zero_dip(self):
        outcomes = _outcomes([0.5 + i for i in range(30)])  # 1 rps throughout
        metrics = compute_recovery_metrics(
            outcomes, onset_seconds=0.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        assert metrics.goodput_dip_area == pytest.approx(0.0)
        assert metrics.recovered is True
        # Only the initial cumulative ramp counts against the clock.
        assert metrics.time_to_recovery_seconds < 10.0

    def test_total_outage_never_recovers(self):
        outcomes = _outcomes([0.5 + i for i in range(10)])  # served only before onset
        metrics = compute_recovery_metrics(
            outcomes, onset_seconds=10.0, end_seconds=40.0, baseline_goodput_rps=1.0
        )
        assert metrics.recovered is False
        assert metrics.time_to_recovery_seconds == pytest.approx(30.0)
        assert metrics.goodput_dip_area == pytest.approx(30.0)  # 1 rps x 30 s destroyed

    def test_gap_then_catchup_sets_the_clock_at_the_catchup_point(self):
        # 1 rps, a [10, 20) outage, then 2 rps catch-up until fully caught up.
        times = [0.5 + i for i in range(10)]
        times += [20.0 + 0.5 * i for i in range(20)]
        metrics = compute_recovery_metrics(
            _outcomes(times), onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        assert metrics.recovered is True
        # Behind until well after service resumes at t=20 (10 s after onset).
        assert 10.0 < metrics.time_to_recovery_seconds < 20.0
        # The dip area is the outage decade's worth of requests.
        assert metrics.goodput_dip_area == pytest.approx(10.0)

    def test_explicit_baseline_overrides_the_pre_onset_estimate(self):
        outcomes = _outcomes([0.5 + i for i in range(30)])
        estimated = compute_recovery_metrics(outcomes, onset_seconds=10.0, end_seconds=30.0)
        pinned = compute_recovery_metrics(
            outcomes, onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=2.0
        )
        assert estimated.baseline_goodput_rps == pytest.approx(1.0)
        assert pinned.baseline_goodput_rps == 2.0
        # A doubled baseline means the steady 1 rps stream never catches up.
        assert pinned.recovered is False

    def test_metrics_are_deterministic(self):
        times = [0.5 + i for i in range(10)] + [20.0 + 0.5 * i for i in range(20)]
        first = compute_recovery_metrics(
            _outcomes(times), onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        second = compute_recovery_metrics(
            _outcomes(times), onset_seconds=10.0, end_seconds=30.0, baseline_goodput_rps=1.0
        )
        assert first == second

    @settings(max_examples=300, deadline=None)
    @given(case=_recovery_cases())
    def test_matches_the_brute_force_window_scan(self, case):
        outcomes, onset, end, window, baseline = case
        kwargs = {"window_seconds": window, "baseline_goodput_rps": baseline}
        actual = compute_recovery_metrics(outcomes, onset, end, **kwargs)
        assert actual == _reference_recovery_metrics(outcomes, onset, end, **kwargs)
