"""Multi-tenant serving: TenantSpec, WFQ/DRR fairness, and the noisy-neighbor pin.

Covers the tenant-aware scenario API end to end: validation and round-trips
of :class:`TenantSpec`, dotted-path overrides under ``tenants.*``, the
weighted-fairness property of the ``wfq``/``drr`` queue disciplines, the
seed-7 noisy-neighbor isolation pin (a bursty tenant doubling its offered
load cannot move the steady tenant's p99 by more than its fair share under
WFQ/DRR, while FIFO demonstrably violates the steady tenant's SLO), the
``slo`` autoscaler policy, report serialization for tenant runs, and the
queue-discipline x steady-weight grid with its fair-vs-FIFO comparison.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.autoscale import (
    AUTOSCALER_KINDS,
    AutoscaleConfig,
    ControlSignals,
    SLOViolationAutoscaler,
    make_autoscaler_policy,
)
from repro.fleet import compare_tenant_disciplines
from repro.scenario import (
    RunReport,
    ScenarioSpec,
    ScenarioValidationError,
    TenantSpec,
    apply_overrides,
    calibrate,
    expand_axes,
    field_value,
    get_scenario,
    run,
    smoke_spec,
    sweep,
)
from repro.serverless.function import RequestQueue
from repro.traces.arrivals import ARRIVAL_KINDS
from repro.workloads.registry import list_workloads


# ---------------------------------------------------------------------------
# TenantSpec validation matrix
# ---------------------------------------------------------------------------


class TestTenantSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "t", "workloads": ()},
            {"name": "t", "workloads": ("no-such-workload",)},
            {"name": "t", "num_requests": 0},
            {"name": "t", "num_requests": -3},
            {"name": "t", "arrival": "no-such-process"},
            {"name": "t", "utilization": 0.0},
            {"name": "t", "utilization": -1.0},
            {"name": "t", "rate_rps": 0.0},
            {"name": "t", "rate_rps": -0.5},
            {"name": "t", "slo_multiplier": -1.0},
            {"name": "t", "weight": 0.0},
            {"name": "t", "weight": -2.0},
        ],
        ids=lambda kw: ",".join(f"{k}={v!r}" for k, v in kw.items()),
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ScenarioValidationError):
            TenantSpec(**kwargs)

    def test_workloads_accepts_comma_string(self):
        tenant = TenantSpec(name="t", workloads="inference, debugging")
        assert tenant.workloads == ("inference", "debugging")

    def test_zero_slo_multiplier_disables_the_slo(self):
        assert TenantSpec(name="t", slo_multiplier=0.0).slo_multiplier == 0.0

    def test_rate_rps_overrides_utilization(self):
        tenant = TenantSpec(name="t", rate_rps=2.5)
        assert tenant.rate_rps == 2.5

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ScenarioValidationError, match="duplicate tenant name"):
            ScenarioSpec(
                name="dup",
                tenants=(TenantSpec(name="a"), TenantSpec(name="a")),
            )

    def test_negative_priority_allowed(self):
        assert TenantSpec(name="t", priority=-1.5).priority == -1.5


# ---------------------------------------------------------------------------
# Hypothesis round-trip: tenant specs survive to_dict/from_dict unchanged
# ---------------------------------------------------------------------------


_bounded_floats = st.floats(
    min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False
)

tenant_specs = st.builds(
    TenantSpec,
    name=st.text(alphabet="abcdefghij-_0123456789", min_size=1, max_size=12),
    workloads=st.lists(
        st.sampled_from(sorted(list_workloads())), min_size=1, max_size=3, unique=True
    ).map(tuple),
    num_requests=st.integers(min_value=1, max_value=1000),
    arrival=st.sampled_from(ARRIVAL_KINDS),
    utilization=_bounded_floats,
    rate_rps=st.one_of(st.none(), _bounded_floats),
    slo_multiplier=st.floats(
        min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
    ),
    priority=st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    weight=_bounded_floats,
)


@settings(max_examples=30, deadline=None)
@given(tenants=st.lists(tenant_specs, min_size=1, max_size=4, unique_by=lambda t: t.name))
def test_tenant_spec_round_trips_through_dict(tenants):
    spec = ScenarioSpec(name="round-trip", tenants=tuple(tenants))
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_tenant_spec_round_trips_through_toml(tmp_path):
    spec = ScenarioSpec(
        name="toml-trip",
        tenants=(
            TenantSpec(name="a", utilization=0.5, weight=2.0, priority=-1.0),
            TenantSpec(name="b", arrival="bursty", rate_rps=3.0, slo_multiplier=0.0),
        ),
    )
    path = tmp_path / "spec.toml"
    spec.save(path)
    assert ScenarioSpec.load(path) == spec


def test_pre_tenant_dicts_still_load():
    # Backwards compatibility: spec dicts/files written before tenants
    # existed (no "tenants" key) load to a tenant-free spec unchanged.
    plain = ScenarioSpec(name="plain")
    tree = plain.to_dict()
    tree.pop("tenants")
    assert ScenarioSpec.from_dict(tree) == plain
    assert plain.tenants == ()


# ---------------------------------------------------------------------------
# Dotted-path overrides under tenants.*
# ---------------------------------------------------------------------------


class TestTenantOverridePaths:
    @pytest.fixture()
    def spec(self):
        return get_scenario("noisy-neighbor")

    def test_field_value_by_name_and_index(self, spec):
        assert field_value(spec, "tenants.steady.weight") == 2.0
        assert field_value(spec, "tenants.0.name") == "steady"
        assert field_value(spec, "tenants.1.arrival") == "bursty"

    def test_override_by_name_is_typed(self, spec):
        out = apply_overrides(spec, {"tenants.steady.weight": "4"})
        assert field_value(out, "tenants.steady.weight") == 4.0
        # The sibling tenant is untouched.
        assert field_value(out, "tenants.bursty.weight") == 1.0

    def test_unknown_tenant_rejected(self, spec):
        with pytest.raises((ScenarioValidationError, KeyError)):
            apply_overrides(spec, {"tenants.ghost.weight": "2"})

    def test_invalid_value_rejected_through_override(self, spec):
        with pytest.raises(ScenarioValidationError):
            apply_overrides(spec, {"tenants.steady.weight": "0"})

    def test_smoke_spec_caps_every_tenant_trace(self, spec):
        shrunk = smoke_spec(spec, num_rounds=3, num_requests=8)
        assert all(t.num_requests == 8 for t in shrunk.tenants)


# ---------------------------------------------------------------------------
# WFQ/DRR property: service shares converge to weights under overload
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    discipline=st.sampled_from(["wfq", "drr"]),
    weight_a=st.integers(min_value=1, max_value=8),
    weight_b=st.integers(min_value=1, max_value=8),
)
def test_fair_disciplines_converge_to_weight_shares(discipline, weight_a, weight_b):
    """Two flows backlogged the whole time split service by weight ratio."""
    queue = RequestQueue(discipline)
    for index in range(300):
        queue.push(("a", index), flow="a", weight=float(weight_a))
        queue.push(("b", index), flow="b", weight=float(weight_b))
    pops = 200
    served = {"a": 0, "b": 0}
    for _ in range(pops):
        flow, _ = queue.pop()
        served[flow] += 1
    expected_share = weight_a / (weight_a + weight_b)
    observed_share = served["a"] / pops
    # Within one rotation (DRR) / one virtual-time round (WFQ) of exact.
    assert abs(observed_share - expected_share) <= max(weight_a, weight_b) / pops + 0.02


def test_fifo_ignores_weights():
    queue = RequestQueue("fifo")
    queue.push("heavy-1", flow="heavy", weight=100.0)
    queue.push("light-1", flow="light", weight=0.1)
    assert queue.pop() == "heavy-1"
    assert queue.pop() == "light-1"


# ---------------------------------------------------------------------------
# The seed-7 noisy-neighbor pin
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noisy_neighbor_cells():
    """Noisy-neighbor runs: discipline x bursty offered load (1x, 2x)."""
    base = get_scenario("noisy-neighbor")
    base = apply_overrides(base, {"mean_service_seconds": calibrate(base)})
    cells = {}
    for discipline in ("fifo", "wfq", "drr"):
        for load in (1.0, 2.0):
            spec = apply_overrides(
                base,
                {
                    "tier.queue_discipline": discipline,
                    "tenants.bursty.utilization": load,
                },
            )
            cells[(discipline, load)] = run(spec)
    return cells


def _tenant_row(report: RunReport, name: str) -> dict:
    return next(row for row in report.tenants if row["tenant"] == name)


def test_every_cell_conserves_per_tenant(noisy_neighbor_cells):
    for (discipline, load), report in noisy_neighbor_cells.items():
        assert report.conserved, (discipline, load)
        for row in report.tenants:
            assert (
                row["served"] + row["requeued"] + row["degraded"] + row["shed"]
                == row["offered"]
            ), (discipline, load, row)


def test_wfq_and_drr_bound_the_steady_tenants_p99(noisy_neighbor_cells):
    """The isolation pin: weighted fairness holds the steady tenant inside
    its SLO at seed 7, and doubling the neighbour's offered load moves its
    p99 by no more than its fair share (a few percent)."""
    for discipline in ("wfq", "drr"):
        at_1x = _tenant_row(noisy_neighbor_cells[(discipline, 1.0)], "steady")
        at_2x = _tenant_row(noisy_neighbor_cells[(discipline, 2.0)], "steady")
        slo = at_1x["slo_seconds"]
        assert slo is not None
        for row in (at_1x, at_2x):
            assert row["violation_rate"] == 0.0, (discipline, row)
            assert row["p99_sojourn_seconds"] <= slo, (discipline, row)
        assert at_2x["p99_sojourn_seconds"] <= 1.10 * at_1x["p99_sojourn_seconds"]


def test_fifo_demonstrably_violates_the_steady_tenant(noisy_neighbor_cells):
    at_1x = _tenant_row(noisy_neighbor_cells[("fifo", 1.0)], "steady")
    at_2x = _tenant_row(noisy_neighbor_cells[("fifo", 2.0)], "steady")
    slo = at_1x["slo_seconds"]
    assert at_1x["violation_rate"] > 0.1
    assert at_1x["p99_sojourn_seconds"] > 1.5 * slo
    # Doubling the neighbour's load makes FIFO strictly worse.
    assert at_2x["violation_rate"] > at_1x["violation_rate"]
    # And weighted fairness beats FIFO outright on the steady tenant's tail.
    for discipline in ("wfq", "drr"):
        fair = _tenant_row(noisy_neighbor_cells[(discipline, 1.0)], "steady")
        assert fair["p99_sojourn_seconds"] < 0.6 * at_1x["p99_sojourn_seconds"]


def test_tenant_report_round_trips_through_json(noisy_neighbor_cells):
    report = noisy_neighbor_cells[("wfq", 1.0)]
    restored = RunReport.from_json(report.to_json())
    assert restored.to_dict() == report.to_dict()
    assert restored.tenants == report.tenants
    assert {row["tenant"] for row in restored.tenants} == {"steady", "bursty"}


def test_run_report_row_carries_per_tenant_columns(noisy_neighbor_cells):
    row = noisy_neighbor_cells[("wfq", 1.0)].row()
    for name in ("steady", "bursty"):
        for suffix in ("p99", "share", "violations", "warm_cost"):
            assert f"{name}_{suffix}" in row


def test_warm_capacity_cost_is_attributed_by_served_share(noisy_neighbor_cells):
    """The seed-7 cost-attribution pin: every tenant run prices its warm
    capacity and splits the total across tenants by share of requests that
    consumed service — shares sum to 1, dollars sum to the run total."""
    for (discipline, load), report in noisy_neighbor_cells.items():
        total = report.warm_capacity_cost_dollars
        assert total is not None and total > 0.0, (discipline, load)
        shares = [row["warm_cost_share"] for row in report.tenants]
        dollars = [row["warm_cost_dollars"] for row in report.tenants]
        assert sum(shares) == pytest.approx(1.0), (discipline, load)
        assert sum(dollars) == pytest.approx(total), (discipline, load)
        served = [row["served"] + row["requeued"] for row in report.tenants]
        for share, weight in zip(shares, served):
            assert share == pytest.approx(weight / sum(served)), (discipline, load)


def test_warm_cost_attribution_is_deterministic_at_seed_7():
    spec = smoke_spec(get_scenario("noisy-neighbor"))
    assert spec.seed == 7
    first, second = run(spec), run(spec)
    assert first.warm_capacity_cost_dollars == second.warm_capacity_cost_dollars
    assert first.tenants == second.tenants
    restored = RunReport.from_json(first.to_json())
    assert restored.warm_capacity_cost_dollars == first.warm_capacity_cost_dollars
    assert restored.tenants == first.tenants


# ---------------------------------------------------------------------------
# The slo autoscaler policy
# ---------------------------------------------------------------------------


def _signals(now=0.0, **kwargs) -> ControlSignals:
    defaults = dict(
        now=now,
        queue_depth=0,
        arrival_rate=1.0,
        arrival_rate_ewma=1.0,
        shed_delta=0,
        degraded_delta=0,
        requeued_delta=0,
        active_shards=1,
        slots_per_function=1,
        capacity_units=2,
        inflight=0,
    )
    defaults.update(kwargs)
    return ControlSignals(**defaults)


class TestSLOViolationAutoscaler:
    def test_registered_and_constructible(self):
        assert "slo" in AUTOSCALER_KINDS
        assert make_autoscaler_policy("slo").name == "slo"

    def test_scales_up_when_a_tenant_breaches_its_slo(self):
        policy = SLOViolationAutoscaler(AutoscaleConfig(slo_violation_target=0.05))
        decision = policy.decide(
            _signals(finished_delta=20, slo_violation_delta=0, max_tenant_violation_rate=0.5)
        )
        assert decision.target_capacity_units is not None
        assert decision.target_capacity_units > 2

    def test_step_grows_with_violations_over_target(self):
        policy = SLOViolationAutoscaler(AutoscaleConfig(slo_violation_target=0.05))
        decision = policy.decide(_signals(finished_delta=20, slo_violation_delta=9))
        # 9 violations against a target of 1 in 20: step = 1 + 8 // 2.
        assert decision.target_capacity_units == 2 + 5

    def test_holds_inside_the_scale_up_cooldown(self):
        config = AutoscaleConfig(slo_violation_target=0.05)
        policy = SLOViolationAutoscaler(config)
        first = policy.decide(_signals(now=0.0, finished_delta=10, slo_violation_delta=5))
        assert not first.is_hold
        again = policy.decide(
            _signals(
                now=config.scale_up_cooldown_seconds / 2,
                finished_delta=10,
                slo_violation_delta=5,
            )
        )
        assert again.is_hold

    def test_clean_window_with_idle_queue_scales_down(self):
        policy = SLOViolationAutoscaler(AutoscaleConfig(slo_violation_target=0.05))
        decision = policy.decide(_signals(finished_delta=10, slo_violation_delta=0))
        assert decision.target_capacity_units == 1

    def test_deep_queue_without_violations_holds(self):
        # The policy's defining behaviour: backlog alone is not a reason to
        # scale while every sojourn stays inside its SLO.
        policy = SLOViolationAutoscaler(AutoscaleConfig(slo_violation_target=0.05))
        decision = policy.decide(
            _signals(queue_depth=50, finished_delta=10, slo_violation_delta=0)
        )
        assert decision.is_hold


def test_slo_autoscaler_relieves_the_noisy_neighbor():
    """End to end: SLO-driven scaling on the routed tenant tier conserves
    requests, actually scales, and cuts the bursty tenant's violations."""
    base = get_scenario("noisy-neighbor")
    base = apply_overrides(
        base,
        {
            "mean_service_seconds": calibrate(base),
            "tier.router_kind": "jsq",
            "tier.autoscaler.enabled": True,
            "tier.autoscaler.policy": "slo",
        },
    )
    scaled = run(base)
    static = run(apply_overrides(base, {"tier.autoscaler.enabled": False}))
    assert scaled.conserved and static.conserved
    for report in (scaled, static):
        for row in report.tenants:
            assert (
                row["served"] + row["requeued"] + row["degraded"] + row["shed"]
                == row["offered"]
            )
    assert scaled.autoscale.policy == "slo"
    assert scaled.autoscale.scale_events >= 1
    scaled_bursty = _tenant_row(scaled, "bursty")
    static_bursty = _tenant_row(static, "bursty")
    assert scaled_bursty["violation_rate"] < static_bursty["violation_rate"]


# ---------------------------------------------------------------------------
# The queue-discipline x steady-weight grid
# ---------------------------------------------------------------------------


def test_tenant_sweep_rows_and_comparisons():
    base = get_scenario("noisy-neighbor").with_overrides(
        {"num_rounds": 3, "tenants.steady.num_requests": 12, "tenants.bursty.num_requests": 12}
    )
    axes = {"tier.queue_discipline": ("fifo", "wfq"), "tenants.steady.weight": (2.0,)}
    rows = sweep(base, axes)
    assert [row["tier.queue_discipline"] for row in rows] == ["fifo", "wfq"]
    for row in rows:
        assert row["conserved"] is True
        for column in (
            "tier.queue_discipline",
            "tenants.steady.weight",
            "served",
            "shed",
            "p99_sojourn_seconds",
            "steady_p99",
            "steady_share",
            "steady_violations",
            "bursty_p99",
            "bursty_share",
            "bursty_violations",
            "conserved",
        ):
            assert column in row, column
    comparisons = compare_tenant_disciplines([run(spec) for spec in expand_axes(base, axes)])
    assert len(comparisons) == 1
    assert comparisons[0]["discipline"] == "wfq"
    assert comparisons[0]["steady_weight"] == 2.0
