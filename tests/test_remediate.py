"""The remediation controller: detection, shadow verification, actuation."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.config import SimulationConfig
from repro.engine import (
    Anomaly,
    ControlSampler,
    RemediationConfig,
    RemediationController,
    RemediationRecord,
    ShardedEngineFLStore,
)
from repro.fl.trainer import FLJobSimulator
from repro.scenario import get_scenario, run


@pytest.fixture(scope="module")
def remedy_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def remedy_rounds(remedy_config):
    return FLJobSimulator(remedy_config).run_rounds(8)


def _tier(config, rounds, shards=2, **kwargs):
    tier = ShardedEngineFLStore.build(shards, config=config, **kwargs)
    for record in rounds:
        tier.ingest_round(record)
    return tier


# ---------------------------------------------------------------------------
# Config and record types
# ---------------------------------------------------------------------------


class TestRemediationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"control_interval_seconds": 0},
            {"ewma_alpha": 0},
            {"ewma_alpha": 1.5},
            {"warmup_ticks": -1},
            {"queue_depth_factor": 0.5},
            {"min_queue_depth": 0},
            {"violation_rate_threshold": 0},
            {"requeue_spike_threshold": 0},
            {"cooldown_seconds": -1},
            {"max_actions": -1},
            {"improvement_epsilon": -0.1},
            {"regression_tolerance": -0.1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RemediationConfig(**kwargs)

    def test_structural_anomalies_are_the_fault_signatures(self):
        assert Anomaly(0.0, "capacity-loss", 1.0, 2.0).structural
        assert Anomaly(0.0, "requeue-spike", 3.0, 0.0).structural
        assert not Anomaly(0.0, "queue-depth", 9.0, 1.0).structural
        assert not Anomaly(0.0, "slo-violation", 0.8, 0.1).structural

    def test_record_deltas_and_row(self):
        record = RemediationRecord(
            time=35.0,
            anomalies=("capacity-loss",),
            action="add-shard",
            accepted=True,
            reason="r",
            forecast_p99_baseline=10.0,
            forecast_p99_candidate=8.0,
            forecast_goodput_baseline=0.5,
            forecast_goodput_candidate=0.6,
        )
        assert record.forecast_p99_delta == pytest.approx(-2.0)
        assert record.forecast_goodput_delta == pytest.approx(0.1)
        row = record.row()
        assert row["action"] == "add-shard" and row["accepted"] is True
        unverified = RemediationRecord(
            time=0.0, anomalies=(), action="add-shard", accepted=True, reason="r"
        )
        assert unverified.forecast_p99_delta is None


# ---------------------------------------------------------------------------
# The control loop against a real tier (no shadow runner: trusted actuation)
# ---------------------------------------------------------------------------


class TestControlLoop:
    def test_controller_drives_exactly_one_run(self, remedy_config, remedy_rounds):
        tier = _tier(remedy_config, remedy_rounds)
        controller = RemediationController(tier)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()

    def test_capacity_loss_is_detected_and_repaired(self, remedy_config, remedy_rounds):
        tier = _tier(remedy_config, remedy_rounds, shards=2)
        controller = RemediationController(tier, nominal_shards=2)
        tier.crash_shard()
        assert tier.num_shards == 1
        controller.start()
        tier.loop.run()  # one tick fires; nothing is inflight, so no re-arm
        assert tier.num_shards == 2
        assert controller.ticks == 1
        [record] = controller.records
        assert record.accepted and record.action == "add-shard"
        assert "trusted" in record.reason  # no shadow runner attached
        assert "capacity-loss" in record.anomalies
        summary = controller.summary()
        assert summary.row()["actions_taken"] == 1
        assert summary.final_shards == 2

    def test_max_actions_gates_actuation(self, remedy_config, remedy_rounds):
        tier = _tier(remedy_config, remedy_rounds, shards=2)
        controller = RemediationController(
            tier, config=RemediationConfig(max_actions=0), nominal_shards=2
        )
        tier.crash_shard()
        controller.start()
        tier.loop.run()
        # The anomaly is logged, but the action budget forbids even a verify.
        assert tier.num_shards == 1
        assert controller.records == []
        assert any(a.kind == "capacity-loss" for a in controller.anomaly_log)

    def test_shadow_rejection_blocks_actuation_and_is_logged(
        self, remedy_config, remedy_rounds
    ):
        calls = []

        def pessimistic_shadow(action, state):
            calls.append((action, dict(state)))
            return {
                "p99_baseline": 10.0,
                "p99_candidate": 14.0,  # forecast regression
                "goodput_baseline": 0.5,
                "goodput_candidate": 0.4,
            }

        tier = _tier(remedy_config, remedy_rounds, shards=2)
        controller = RemediationController(
            tier, nominal_shards=2, shadow_runner=pessimistic_shadow
        )
        tier.crash_shard()
        controller.start()
        tier.loop.run()
        assert tier.num_shards == 1  # every proposal was rejected
        assert controller.records and not any(r.accepted for r in controller.records)
        assert all("rejected" in r.reason for r in controller.records)
        # The walk tried the ranked proposals: restore capacity first.
        assert calls[0][0] == "add-shard"
        assert calls[0][1]["shards"] == 1

    def test_shadow_forecasts_are_cached_per_state(self, remedy_config, remedy_rounds):
        calls = []

        def counting_shadow(action, state):
            calls.append(action)
            return {
                "p99_baseline": 10.0,
                "p99_candidate": 12.0,
                "goodput_baseline": 0.5,
                "goodput_candidate": 0.5,
            }

        tier = _tier(remedy_config, remedy_rounds, shards=2)
        controller = RemediationController(
            tier, nominal_shards=2, shadow_runner=counting_shadow
        )
        sampler = ControlSampler(tier, controller.config.control_interval_seconds)
        tier.crash_shard()
        signals = sampler.sample()
        anomalies = controller._detect(signals)
        [proposal] = controller._propose(signals, anomalies)[:1]
        first = controller._verify(proposal, signals, anomalies)
        second = controller._verify(proposal, signals, anomalies)
        assert first.accepted is False and second.accepted is False
        assert len(calls) == 1  # same (action, state) hit the cache
        assert controller.shadow_runs == 1


# ---------------------------------------------------------------------------
# End to end through the scenario layer (seed 7, pinned)
# ---------------------------------------------------------------------------


class TestScenarioIntegration:
    def test_pinned_crash_recovery_log(self):
        """The registered fault-recovery scenario at seed 7: the crash is
        detected on the very tick it lands, one shadow-verified re-add is
        accepted, and the forecast deltas that justified it are logged."""
        report = run(get_scenario("fault-recovery"))
        assert report.conserved is True
        summary = report.remediation
        assert summary is not None
        [record] = summary.records
        assert record.time == pytest.approx(30.0)
        assert record.action == "add-shard"
        assert record.accepted is True
        assert "capacity-loss" in record.anomalies
        assert "shadow forecast" in record.reason
        assert record.forecast_p99_delta is not None and record.forecast_p99_delta < 0
        assert summary.row() == {
            "remediation_ticks": summary.ticks,
            "anomalies_detected": summary.anomalies_detected,
            "actions_taken": 1,
            "shadow_accepts": 1,
            "shadow_rejects": 0,
            "shadow_runs": 1,
        }
        assert summary.final_shards == 3  # restored to nominal, never above
        assert report.recovery is not None and report.recovery.recovered is True

    def test_remediated_run_is_deterministic(self):
        spec = get_scenario("fault-recovery")
        first = run(spec)
        second = run(spec)
        assert first.row() == second.row()
        assert first.remediation.records == second.remediation.records

    def test_every_actuation_has_a_logged_shadow_accept(self):
        summary = run(get_scenario("fault-recovery")).remediation
        accepted = [r for r in summary.records if r.accepted]
        assert summary.actions_taken == len(accepted) == summary.accepts
        for record in accepted:
            assert record.forecast_p99_baseline is not None
            assert record.forecast_goodput_baseline is not None

    def test_controller_is_inert_without_faults(self):
        """Byte-identity guarantee: enabling the controller on a healthy run
        changes nothing but the bookkeeping columns."""
        base = get_scenario("fault-recovery")
        plain = run(base.with_overrides({"faults": [], "remediation.enabled": False}))
        guarded = run(base.with_overrides({"faults": [], "remediation.enabled": True}))
        plain_row, guarded_row = plain.row(), guarded.row()
        shared = set(plain_row) & set(guarded_row)
        assert {k: plain_row[k] for k in shared} == {k: guarded_row[k] for k in shared}
        assert guarded_row["actions_taken"] == 0
        assert guarded.remediation.records == []


# ---------------------------------------------------------------------------
# The acceptance sweep: the controller must strictly beat controller-off
# ---------------------------------------------------------------------------


class TestFaultRecoverySweep:
    @pytest.fixture(scope="class")
    def reports(self):
        """Shard-crash and reclamation-storm cells, controller on and off."""
        from repro.scenario import expand_axes

        crash = get_scenario("fault-recovery")
        storm = crash.with_overrides(
            {
                "tier.router_kind": "consistent-hash",
                "faults.0.kind": "reclamation-storm",
                "faults.0.duration_seconds": 90,
                "faults.0.magnitude": 2,
                "faults.0.interval_seconds": 5,
            }
        )
        controller = {"remediation.enabled": (True, False)}
        return [run(spec) for base in (crash, storm) for spec in expand_axes(base, controller)]

    def test_every_cell_conserves(self, reports):
        assert reports
        assert all(report.conserved for report in reports)

    @pytest.mark.parametrize("fault", ["shard-crash", "reclamation-storm"])
    def test_controller_strictly_improves_recovery(self, reports, fault):
        cells = {r.spec.remediation.enabled: r for r in reports if r.spec.faults[0].kind == fault}
        on, off = cells[True], cells[False]
        assert on.recovery.time_to_recovery_seconds < off.recovery.time_to_recovery_seconds
        assert on.recovery.goodput_dip_area < off.recovery.goodput_dip_area
        assert on.remediation.accepts >= 1 and on.remediation.actions_taken >= 1
        # Controller off: no control loop is attached, so nothing acted.
        assert off.remediation is None

    def test_comparison_rows_report_the_deltas(self, reports):
        from repro.fleet import compare_fault_recovery

        comparisons = {c["fault"]: c for c in compare_fault_recovery(reports)}
        assert set(comparisons) == {"shard-crash", "reclamation-storm"}
        for row in comparisons.values():
            assert row["ttr_reduction_pct"] > 0
            assert row["dip_reduction_pct"] > 0


# ---------------------------------------------------------------------------
# Seed-7 pin: counter-delta SLO sampling is invisible to the controller
# ---------------------------------------------------------------------------


class TestCounterDeltaSamplingPin:
    """The control loop once recomputed its per-window violation rate by
    slicing the tier's ever-growing completed-outcome list each tick — an
    O(n^2) term over a run.  It now reads two O(1) counter deltas
    (``finished_total`` / ``slo_violations_total``, armed via
    ``watch_slo_seconds``).  This pin asserts the refactor is decision-for-
    decision invisible: the registry fault-recovery scenario at seed 7 must
    reproduce the exact control trace the slicing implementation produced.
    """

    @pytest.fixture(scope="class")
    def summary(self):
        return run(get_scenario("fault-recovery")).remediation

    def test_control_trace_scalars(self, summary):
        assert summary.ticks == 209
        assert summary.anomalies_detected == 22
        assert summary.actions_taken == 1
        assert (summary.accepts, summary.rejects, summary.shadow_runs) == (1, 0, 1)
        assert summary.final_shards == 3
        assert summary.final_slots_per_function == 1
        assert summary.final_router_kind == "jsq"
        assert summary.final_shed_policy == "drop"

    def test_the_single_actuation_record(self, summary):
        (record,) = summary.records
        assert record.time == 30.0
        assert record.action == "add-shard"
        assert record.accepted
        assert record.forecast_p99_baseline == 152.72411809672255
        assert record.forecast_p99_candidate == 89.41156230926515
        assert record.forecast_goodput_baseline == 0.06336930511121812
        assert record.forecast_goodput_candidate == 0.07361408835588372

    def test_anomaly_stream_head_and_violation_rates(self, summary):
        first = summary.anomalies[0]
        assert (first.time, first.kind, first.value, first.baseline) == (
            30.0,
            "capacity-loss",
            2.0,
            3.0,
        )
        # The per-window violation *rates* are where the delta arithmetic
        # could drift from the sliced lists; pin the only fractional one
        # plus the exact firing instants of every slo-violation anomaly.
        violations = [a for a in summary.anomalies if a.kind == "slo-violation"]
        assert [a.time for a in violations] == [
            165.0, 170.0, 175.0, 285.0, 290.0, 295.0, 485.0, 490.0, 495.0, 500.0,
            680.0, 730.0, 800.0, 855.0, 860.0, 890.0, 900.0, 905.0, 915.0,
            1040.0, 1045.0,
        ]
        assert [a.value for a in violations if a.value != 1.0] == [0.75]
