"""The declarative scenario API: spec validation, round-trips, build, run, sweep."""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QUEUE_DISCIPLINES, SHED_POLICIES
from repro.engine.autoscale import AUTOSCALER_KINDS, Autoscaler
from repro.engine.faults import FAULT_KINDS
from repro.engine.sharded import ShardedEngineFLStore
from repro.fl.models import MODEL_ZOO
from repro.routing import ROUTER_KINDS
from repro.scenario import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    FaultSpec,
    RemediationSpec,
    ScenarioSpec,
    ScenarioValidationError,
    TenantSpec,
    TierSpec,
    WorkloadMixSpec,
    apply_overrides,
    build_tier,
    expand_axes,
    get_scenario,
    list_scenarios,
    register_scenario,
    run,
    smoke_spec,
    sweep,
    sweep_row,
)
from repro.traces.arrivals import ARRIVAL_KINDS
from repro.workloads.registry import list_workloads


#: Serialized smoke reports of every registered scenario (see
#: tests/test_run_report_goldens.py).
RUN_REPORT_FIXTURES = Path(__file__).parent / "data" / "run_reports"


def _tiny_spec(**overrides) -> ScenarioSpec:
    """A laptop-instant spec: few rounds, few requests, defaults elsewhere."""
    spec = ScenarioSpec(
        name="tiny",
        num_rounds=3,
        workload=WorkloadMixSpec(num_requests=8),
    )
    return spec.with_overrides(overrides) if overrides else spec


# ---------------------------------------------------------------------------
# Central knob validation — every invalid string fails at spec build time
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "override",
        [
            {"tier.admission.shed_policy": "toss"},
            {"tier.admission.max_queue_depth": -1},
            {"tier.queue_discipline": "lifo"},
            {"tier.router_kind": "rendezvous"},
            {"tier.autoscaler.policy": "magic"},
            {"tier.autoscaler.control_interval_seconds": 0},
            {"arrival.kind": "weekly"},
            {"arrival.utilization": 0},
            {"workload.workloads": "inference,not_a_workload"},
            {"workload.num_requests": 0},
            {"model": "gpt-17"},
            {"num_rounds": 0},
            {"slo_multiplier": -1},
            {"mean_service_seconds": 0},
            {"tier.shards": "2.5"},
            {"remediation.enabled": True},  # plain tier: nothing to actuate
            {"remediation.control_interval_seconds": 0},
            {"remediation.cooldown_seconds": -1},
            {"remediation.max_actions": -1},
            {"remediation.shadow_rounds": 0},
            {"remediation.shadow_requests": 0},
        ],
    )
    def test_invalid_knobs_raise_scenario_validation_error(self, override):
        with pytest.raises(ScenarioValidationError):
            apply_overrides(ScenarioSpec(), override)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "quake"},
            {"onset_seconds": -1.0},
            {"duration_seconds": -1.0},
            {"magnitude": 0.0},
            {"interval_seconds": 0.0},
            {"zipf_exponent": 1.0},
            {"kind": "slow-shard", "duration_seconds": 0.0},
            {"kind": "reclamation-storm", "duration_seconds": 0.0},
            {"kind": "network-spike", "duration_seconds": 0.0},
        ],
    )
    def test_invalid_fault_clauses_rejected(self, kwargs):
        with pytest.raises(ScenarioValidationError):
            FaultSpec(**kwargs)

    def test_shard_crash_requires_a_survivable_ring(self):
        crash = FaultSpec(kind="shard-crash", magnitude=1.0)
        # A plain (or single-shard) tier has no shard to lose.
        with pytest.raises(ScenarioValidationError, match="sharded tier"):
            ScenarioSpec(faults=(crash,))
        # Crashing every shard would crash the last one.
        with pytest.raises(ScenarioValidationError, match="last"):
            ScenarioSpec(
                tier=TierSpec(shards=2, router_kind="jsq"),
                faults=(FaultSpec(kind="shard-crash", magnitude=2.0),),
            )

    @pytest.mark.parametrize("remediation", [True, False])
    def test_shard_crash_clauses_are_counted_in_total(self, remediation):
        """Crashes are permanent, so two clauses that each leave a shard
        standing can still crash every shard together: the spec is rejected
        when built, not mid-run."""
        base = get_scenario("fault-recovery").with_overrides(
            {"remediation.enabled": remediation}
        )
        assert base.tier.shards == 3

        def crashes(*magnitudes):
            return tuple(
                FaultSpec(kind="shard-crash", onset_seconds=30.0 + index, magnitude=magnitude)
                for index, magnitude in enumerate(magnitudes)
            )

        with pytest.raises(ScenarioValidationError, match="crash 4 shards in total"):
            dataclasses.replace(base, faults=crashes(2.0, 2.0))
        # A magnitude below one still crashes one shard, and counts as one.
        with pytest.raises(ScenarioValidationError, match="crash 3 shards in total"):
            dataclasses.replace(base, faults=crashes(0.5, 2.0))
        # Two single-shard crashes leave one of the three shards standing.
        spec = dataclasses.replace(base, faults=crashes(1.0, 1.0))
        assert [clause.shards_crashed for clause in spec.faults] == [1, 1]
        report = run(smoke_spec(spec))
        assert report.conserved is True
        assert report.row()["fault_events"] == 2

    def test_faults_need_full_metrics(self):
        """Recovery is scored from per-request rows, which a streaming run
        does not keep: a faulted streaming spec would report every run as
        unrecovered, so it is rejected up front."""
        with pytest.raises(ScenarioValidationError, match='metrics="streaming"'):
            get_scenario("fault-recovery").with_overrides({"metrics": "streaming"})
        slow = FaultSpec(kind="slow-shard", duration_seconds=1.0)
        with pytest.raises(ScenarioValidationError, match="fault recovery"):
            ScenarioSpec(faults=(slow,), metrics="streaming")
        assert ScenarioSpec(faults=(slow,)).metrics == "full"

    def test_remediation_and_autoscaler_are_mutually_exclusive(self):
        with pytest.raises(ScenarioValidationError, match="control loops"):
            ScenarioSpec(
                tier=TierSpec(
                    shards=2,
                    router_kind="jsq",
                    autoscaler=AutoscalerSpec(enabled=True),
                ),
                remediation=RemediationSpec(enabled=True),
            )

    def test_multi_shard_tier_requires_router(self):
        with pytest.raises(ScenarioValidationError, match="needs a router"):
            TierSpec(shards=4)

    def test_autoscaled_tier_requires_router(self):
        with pytest.raises(ScenarioValidationError, match="must be sharded"):
            TierSpec(autoscaler=AutoscalerSpec(enabled=True))

    def test_unknown_dict_keys_rejected_at_every_level(self):
        """Each level names itself and lists all its keys, sections included."""
        base = ScenarioSpec(
            faults=(FaultSpec(kind="slow-shard", duration_seconds=1.0),),
            tenants=(TenantSpec(name="steady"),),
        )
        for path, label in (
            ((), "scenario"),
            (("workload",), "workload"),
            (("arrival",), "arrival"),
            (("tier",), "tier"),
            (("tier", "admission"), "tier.admission"),
            (("tier", "replication"), "tier.replication"),
            (("tier", "autoscaler"), "tier.autoscaler"),
            (("remediation",), "remediation"),
            (("faults", 0), "faults[0]"),
            (("tenants", 0), "tenants[0]"),
        ):
            tree = base.to_dict()
            node = tree
            for part in path:
                node = node[part]
            known = sorted(node)
            node["no_such_knob"] = 1
            with pytest.raises(ScenarioValidationError) as excinfo:
                ScenarioSpec.from_dict(tree)
            assert str(excinfo.value) == (
                f"unknown {label} keys ['no_such_knob']; known keys: {known}"
            )
        assert ScenarioSpec.from_dict(base.to_dict()) == base

    @pytest.mark.parametrize(
        "tree, message",
        [
            ({"tier": 3}, "tier must be a table/object"),
            ({"tier": {"admission": "drop"}}, "tier.admission must be a table/object"),
            ({"faults": [3]}, "faults[0] must be a table/object"),
            ({"tenants": {"name": "a"}}, "tenants must be an array of tables/objects"),
        ],
    )
    def test_section_shapes_are_checked(self, tree, message):
        with pytest.raises(ScenarioValidationError, match=re.escape(message)):
            ScenarioSpec.from_dict(tree)

    def test_missing_keys_take_defaults(self):
        assert ScenarioSpec.from_dict({}) == ScenarioSpec()
        assert ScenarioSpec.from_dict({"tier": {"shards": 1}}) == ScenarioSpec()

    def test_workloads_accept_comma_string(self):
        spec = WorkloadMixSpec(workloads="inference, clustering")
        assert spec.workloads == ("inference", "clustering")

    def test_validation_error_is_a_configuration_error(self):
        from repro.common.errors import ConfigurationError

        assert issubclass(ScenarioValidationError, ConfigurationError)


# ---------------------------------------------------------------------------
# Round-trips: dict / JSON / TOML (hypothesis over the whole valid spec space)
# ---------------------------------------------------------------------------


_names = st.text(alphabet=string.ascii_lowercase + string.digits + "-_. ", min_size=1)
_small_floats = st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False)


@st.composite
def fault_specs(draw, crash_budget: int) -> FaultSpec:
    """One clause; a shard-crash takes at most ``crash_budget`` shards."""
    kinds = FAULT_KINDS
    if crash_budget < 1:
        kinds = tuple(k for k in FAULT_KINDS if k != "shard-crash")
    kind = draw(st.sampled_from(kinds))
    if kind == "shard-crash":
        magnitude = float(draw(st.integers(1, crash_budget)))
    else:
        magnitude = draw(_small_floats)
    return FaultSpec(
        kind=kind,
        onset_seconds=draw(_small_floats),
        duration_seconds=draw(_small_floats),
        magnitude=magnitude,
        interval_seconds=draw(_small_floats),
        zipf_exponent=draw(
            st.floats(min_value=1.01, max_value=10.0, allow_nan=False, allow_infinity=False)
        ),
    )


@st.composite
def fault_lists(draw, shards: int) -> tuple[FaultSpec, ...]:
    """Up to three clauses whose shard crashes leave at least one shard."""
    faults: list[FaultSpec] = []
    crash_budget = shards - 1
    for _ in range(draw(st.integers(0, 3))):
        clause = draw(fault_specs(crash_budget=crash_budget))
        if clause.kind == "shard-crash":
            crash_budget -= clause.shards_crashed
        faults.append(clause)
    return tuple(faults)


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    router_kind = draw(st.sampled_from((None,) + ROUTER_KINDS))
    shards = 1 if router_kind is None else draw(st.integers(1, 8))
    autoscaler = AutoscalerSpec(
        enabled=router_kind is not None and draw(st.booleans()),
        policy=draw(st.sampled_from(AUTOSCALER_KINDS)),
        control_interval_seconds=draw(_small_floats),
    )
    faults = draw(fault_lists(shards=shards))
    remediation = RemediationSpec(
        enabled=router_kind is not None and not autoscaler.enabled and draw(st.booleans()),
        control_interval_seconds=draw(_small_floats),
        cooldown_seconds=draw(_small_floats),
        max_actions=draw(st.integers(0, 8)),
        shadow_rounds=draw(st.integers(1, 8)),
        shadow_requests=draw(st.integers(1, 64)),
    )
    workloads = tuple(
        draw(
            st.lists(
                st.sampled_from(sorted(list_workloads())), min_size=1, max_size=4, unique=True
            )
        )
    )
    return ScenarioSpec(
        name=draw(_names),
        model=draw(st.sampled_from(sorted(MODEL_ZOO))),
        seed=draw(st.integers(0, 2**31)),
        num_rounds=draw(st.integers(1, 64)),
        workload=WorkloadMixSpec(workloads=workloads, num_requests=draw(st.integers(1, 512))),
        arrival=ArrivalSpec(
            kind=draw(st.sampled_from(ARRIVAL_KINDS)),
            utilization=draw(_small_floats),
            rate_rps=draw(st.one_of(st.none(), _small_floats)),
        ),
        tier=TierSpec(
            shards=shards,
            router_kind=router_kind,
            function_concurrency=draw(st.integers(1, 4)),
            queue_discipline=draw(st.sampled_from(QUEUE_DISCIPLINES)),
            admission=AdmissionSpec(
                max_queue_depth=draw(st.integers(0, 64)),
                shed_policy=draw(st.sampled_from(SHED_POLICIES)),
            ),
            autoscaler=autoscaler,
        ),
        slo_multiplier=draw(st.one_of(st.just(0.0), _small_floats)),
        mean_service_seconds=draw(st.one_of(st.none(), _small_floats)),
        faults=faults,
        remediation=remediation,
    )


class TestRoundTrips:
    @given(scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_dict_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip(self, spec):
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @given(scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_toml_round_trip(self, spec):
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        spec = get_scenario("sharded-burst")
        for suffix in (".json", ".toml"):
            path = spec.save(tmp_path / f"spec{suffix}")
            assert ScenarioSpec.load(path) == spec

    def test_unsupported_suffix_and_missing_file_rejected(self, tmp_path):
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec().save(tmp_path / "spec.yaml")
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec.load(tmp_path / "missing.json")

    def test_malformed_documents_rejected(self):
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec.from_json("{not json")
        with pytest.raises(ScenarioValidationError):
            ScenarioSpec.from_toml("= broken")

    def test_fault_clauses_emit_as_toml_arrays_of_tables(self):
        spec = get_scenario("fault-recovery")
        document = spec.to_toml()
        assert "[[faults]]" in document
        assert ScenarioSpec.from_toml(document) == spec
        # An empty clause list is dropped from the document and defaulted on
        # the way back in.
        bare = spec.with_overrides({"faults": []})
        assert "faults" not in bare.to_toml()
        assert ScenarioSpec.from_toml(bare.to_toml()) == bare

    def test_faults_must_be_a_sequence_of_tables(self):
        with pytest.raises(ScenarioValidationError, match="array of tables"):
            ScenarioSpec.from_dict({"faults": {"kind": "slow-shard"}})


# ---------------------------------------------------------------------------
# Dotted-path overrides (the --set / sweep-axis surface)
# ---------------------------------------------------------------------------


class TestOverrides:
    def test_string_values_coerce_to_field_types(self):
        spec = apply_overrides(
            ScenarioSpec(),
            {
                "tier.shards": "4",
                "tier.router_kind": "jsq",
                "tier.admission.max_queue_depth": "6",
                "tier.autoscaler.enabled": "true",
                "tier.autoscaler.policy": "none",
                "arrival.utilization": "2.5",
                "workload.workloads": "inference,clustering",
                "mean_service_seconds": "0.25",
            },
        )
        assert spec.tier.shards == 4
        assert spec.tier.router_kind == "jsq"
        assert spec.tier.admission.max_queue_depth == 6
        assert spec.tier.autoscaler.enabled is True
        # "none" stays a string on string-valued fields: it names a policy.
        assert spec.tier.autoscaler.policy == "none"
        assert spec.arrival.utilization == 2.5
        assert spec.workload.workloads == ("inference", "clustering")
        assert spec.mean_service_seconds == 0.25

    def test_null_clears_optional_fields(self):
        spec = apply_overrides(
            get_scenario("sharded-burst"),
            {"tier.router_kind": "null", "tier.shards": 1},
        )
        assert spec.tier.router_kind is None

    def test_unknown_paths_rejected(self):
        for key in ("tier.bogus", "bogus", "tier.admission.bogus", "tier", "tier.admission"):
            with pytest.raises(ScenarioValidationError, match="unknown scenario field"):
                apply_overrides(ScenarioSpec(), {key: 1})

    def test_overrides_do_not_mutate_the_original(self):
        original = ScenarioSpec()
        apply_overrides(original, {"tier.shards": 4, "tier.router_kind": "modulo"})
        assert original.tier.shards == 1


# ---------------------------------------------------------------------------
# build_tier — one factory, every topology
# ---------------------------------------------------------------------------


class TestBuildTier:
    def test_plain_topology_builds_one_shard_front_door(self):
        spec = _tiny_spec()
        tier = build_tier(spec)
        assert not spec.tier.sharded
        assert isinstance(tier.store, ShardedEngineFLStore)
        assert tier.store.num_shards == 1
        assert tier.autoscaler is None
        assert tier.mean_service_seconds > 0

    def test_sharded_topology_builds_front_door(self):
        tier = build_tier(_tiny_spec(**{"tier.shards": 3, "tier.router_kind": "modulo"}))
        assert isinstance(tier.store, ShardedEngineFLStore)
        assert tier.store.num_shards == 3
        assert tier.store.router.kind == "modulo"
        assert tier.autoscaler is None

    def test_autoscaled_topology_attaches_control_loop(self):
        tier = build_tier(
            _tiny_spec(
                **{
                    "tier.router_kind": "consistent-hash",
                    "tier.autoscaler.enabled": "true",
                    "tier.autoscaler.policy": "reactive",
                }
            )
        )
        assert isinstance(tier.store, ShardedEngineFLStore)
        assert isinstance(tier.autoscaler, Autoscaler)
        assert tier.autoscaler.policy.name == "reactive"
        # The resizable tier can actually scale out (factory + warm rounds).
        assert tier.store._shard_factory is not None

    def test_tier_knobs_reach_the_serverless_config(self):
        tier = build_tier(
            _tiny_spec(
                **{
                    "tier.admission.max_queue_depth": 5,
                    "tier.admission.shed_policy": "degrade-to-objstore",
                    "tier.function_concurrency": 2,
                    "tier.queue_discipline": "priority",
                }
            )
        )
        serverless = tier.config.serverless
        assert serverless.max_queue_depth == 5
        assert serverless.shed_policy == "degrade-to-objstore"
        assert serverless.function_concurrency == 2
        assert serverless.queue_discipline == "priority"
        assert tier.store.shards[0].max_queue_depth == 5


# ---------------------------------------------------------------------------
# run — typed report, conservation, determinism
# ---------------------------------------------------------------------------


class TestRun:
    def test_run_is_deterministic(self):
        first = run(_tiny_spec())
        second = run(_tiny_spec())
        assert first.row() == second.row()

    def test_report_carries_conservation_and_context(self):
        report = run(_tiny_spec(**{"tier.shards": 2, "tier.router_kind": "consistent-hash"}))
        assert report.conserved is True
        assert report.load.submitted == 8
        assert report.max_shard_routed is not None
        row = report.row()
        assert row["scenario"] == "tiny"
        assert row["shards"] == 2
        assert row["router"] == "consistent-hash"
        assert row["served"] + row["shed"] + row["degraded"] == 8

    def test_plain_report_has_no_shard_columns(self):
        row = run(_tiny_spec()).row()
        assert "max_shard_routed" not in row
        assert "router" not in row

    def test_explicit_rate_bypasses_utilization(self):
        report = run(_tiny_spec(**{"arrival.rate_rps": 2.0}))
        assert report.offered_rate_rps == 2.0

    def test_autoscaled_run_reports_summary(self):
        report = run(
            smoke_spec(get_scenario("autoscale-diurnal"), num_rounds=3, num_requests=10)
        )
        assert report.autoscale is not None
        row = report.row()
        assert row["autoscaler"] == "predictive"
        assert "capacity_unit_seconds" in row and "warm_capacity_cost_dollars" in row

    def test_serialized_report_carries_schema_version(self):
        from repro.scenario.build import RUN_REPORT_SCHEMA_VERSION, RunReport

        report = run(_tiny_spec())
        data = report.to_dict()
        assert data["schema_version"] == RUN_REPORT_SCHEMA_VERSION
        assert RunReport.from_dict(data).to_dict() == data

    def test_loading_tolerates_unknown_keys_from_a_future_schema(self):
        """A newer schema's keys, at the top level and inside every nested
        section, are ignored on load, so its recorded fleet still renders."""
        from repro.scenario.build import RunReport

        for name in ("autoscale-diurnal", "fault-recovery"):
            text = (RUN_REPORT_FIXTURES / f"{name}.json").read_text()
            data = json.loads(text)
            data["schema_version"] = 99
            data["a_future_section"] = {"metric": 1.0}
            for section in ("load", "autoscale", "remediation", "recovery"):
                if section in data:
                    data[section]["a_future_metric"] = 2.5
            if "autoscale" in data:
                data["autoscale"]["events"][0]["a_future_field"] = "x"
            restored = RunReport.from_dict(data)
            # Re-serializing drops the unknown keys and restamps the version.
            assert restored.to_json() == text

    def test_report_without_an_slo_round_trips(self):
        from repro.scenario.build import RunReport

        data = run(_tiny_spec(slo_multiplier=0)).to_dict()
        assert "slo_seconds" not in data
        assert RunReport.from_dict(data).slo_seconds is None
        assert RunReport.from_dict(data).to_dict() == data


# ---------------------------------------------------------------------------
# sweep — the generic grid
# ---------------------------------------------------------------------------


class TestSweep:
    def test_axis_order_is_row_order(self):
        specs = expand_axes(
            ScenarioSpec(),
            {"arrival.kind": ("poisson", "bursty"), "arrival.utilization": (0.5, 1.0)},
        )
        combos = [(s.arrival.kind, s.arrival.utilization) for s in specs]
        assert combos == [("poisson", 0.5), ("poisson", 1.0), ("bursty", 0.5), ("bursty", 1.0)]

    def test_empty_axes_is_a_single_cell(self):
        assert expand_axes(ScenarioSpec(), {}) == [ScenarioSpec()]

    def test_bad_axis_values_rejected(self):
        with pytest.raises(ValueError):
            expand_axes(ScenarioSpec(), {"arrival.kind": ()})
        with pytest.raises(TypeError):
            expand_axes(ScenarioSpec(), {"arrival.kind": "poisson"})

    def test_sweep_pins_one_calibration_across_cells(self):
        rows = sweep(_tiny_spec(), {"arrival.utilization": (0.5, 2.0)})
        assert len(rows) == 2
        assert [row["utilization"] for row in rows] == [0.5, 2.0]
        # Both cells share one calibration, hence one SLO: the violation
        # rates are comparable across the grid.
        assert all(row["conserved"] for row in rows)

    def test_rows_lead_with_scenario_then_axis_values(self):
        rows = sweep(_tiny_spec(), {"arrival.kind": ("poisson",), "arrival.utilization": (0.5,)})
        (row,) = rows
        assert list(row)[:3] == ["scenario", "arrival.kind", "arrival.utilization"]
        assert (row["scenario"], row["arrival.kind"], row["arrival.utilization"]) == (
            "tiny",
            "poisson",
            0.5,
        )

    @pytest.mark.parametrize(
        "scenario, axis, values",
        [
            ("autoscale-diurnal", "tier.autoscaler.policy", ("reactive", "psychic")),
            ("fault-recovery", "faults.0.kind", ("shard-crash", "meteor")),
            ("noisy-neighbor", "tier.queue_discipline", ("fifo", "lifo")),
        ],
    )
    def test_bad_axis_value_fails_before_any_calibration(
        self, monkeypatch, scenario, axis, values
    ):
        # The package's ``sweep`` attribute is the function; fetch the module.
        sweep_module = importlib.import_module("repro.scenario.sweep")
        calibrations = []

        def spy(spec):
            calibrations.append(spec.name)
            return 1.0

        monkeypatch.setattr(sweep_module, "calibrate", spy)
        with pytest.raises(ScenarioValidationError):
            sweep(get_scenario(scenario), {axis: values})
        assert calibrations == []

    def _spy(self, monkeypatch) -> tuple[list[str], list[float | None]]:
        """Record every hoisted calibration and the E[S] each cell runs with."""
        sweep_module = importlib.import_module("repro.scenario.sweep")
        calibrations: list[str] = []
        pinned: list[float | None] = []

        def calibrate_spy(spec):
            calibrations.append(spec.name)
            return 0.5

        def run_spy(spec):
            pinned.append(spec.mean_service_seconds)
            return run(spec)

        monkeypatch.setattr(sweep_module, "calibrate", calibrate_spy)
        monkeypatch.setattr(sweep_module, "run", run_spy)
        return calibrations, pinned

    def test_valid_grid_calibrates_once_and_pins_it_into_every_cell(self, monkeypatch):
        calibrations, pinned = self._spy(monkeypatch)
        rows = sweep(_tiny_spec(), {"arrival.utilization": (0.5, 1.0, 2.0)}, workers=1)
        assert calibrations == ["tiny"]
        assert pinned == [0.5, 0.5, 0.5]
        assert [row["utilization"] for row in rows] == [0.5, 1.0, 2.0]

    def test_pinned_service_time_is_not_recalibrated(self, monkeypatch):
        calibrations, pinned = self._spy(monkeypatch)
        base = _tiny_spec(mean_service_seconds=0.25)
        sweep(base, {"arrival.utilization": (0.5, 2.0)}, workers=1)
        assert calibrations == []
        assert pinned == [0.25, 0.25]

    def test_calibration_axis_leaves_calibration_to_each_cell(self, monkeypatch):
        calibrations, pinned = self._spy(monkeypatch)
        rows = sweep(_tiny_spec(), {"seed": (1, 2)}, workers=1)
        # No shared E[S] is hoisted: each cell calibrates for its own seed.
        assert calibrations == []
        assert pinned == [None, None]
        assert [row["seed"] for row in rows] == [1, 2]

    def test_sweep_row_is_the_report_row_behind_scenario_and_axes(self):
        report = run(_tiny_spec())
        assert list(sweep_row(report, {})) == list(report.row())
        assert sweep_row(report, {}) == report.row()
        row = sweep_row(report, {"arrival.kind": "poisson", "seed": 7})
        assert list(row) == ["scenario", "arrival.kind", "seed", *list(report.row())[1:]]
        assert {key: row[key] for key in report.row()} == report.row()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_bundled_scenarios_cover_every_topology(self):
        names = list_scenarios()
        topologies = set()
        for name in names:
            spec = get_scenario(name)
            if not spec.tier.sharded:
                topologies.add("engine")
            elif spec.tier.autoscaler.enabled:
                topologies.add("autoscaled")
            else:
                topologies.add("sharded")
        assert topologies == {"engine", "sharded", "autoscaled"}

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("engine-baseline")
        with pytest.raises(ValueError):
            register_scenario(spec)
        # Explicit replacement is allowed (and idempotent here).
        assert register_scenario(spec, replace_existing=True) == spec

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="engine-baseline"):
            get_scenario("nope")

    def test_smoke_spec_shrinks_without_touching_topology(self):
        spec = get_scenario("sharded-burst")
        smoke = smoke_spec(spec)
        assert smoke.num_rounds <= 4 and smoke.workload.num_requests <= 12
        assert smoke.tier == spec.tier
        assert smoke.arrival == spec.arrival
