"""Declarative scenario specs: one typed spec builds, runs, and sweeps every
serving tier.

The package splits cleanly into four layers:

* :mod:`repro.scenario.spec` — the frozen, validated :class:`ScenarioSpec`
  tree (workload mix, arrival process, tier topology) with dict/JSON/TOML
  round-trips, dotted-path overrides, and every string knob validated at
  build time behind one :class:`ScenarioValidationError`;
* :mod:`repro.scenario.build` — :func:`build_tier` (spec -> serving stack)
  and :func:`run` (spec -> :class:`RunReport`, conservation asserted);
* :mod:`repro.scenario.sweep` — the generic grid runner :func:`sweep`
  (base spec x dotted axes), whose rows lead with each cell's axis values;
* :mod:`repro.scenario.registry` — named, ready-to-run scenarios mirrored
  by the example spec files under ``examples/scenarios/``.
"""

from repro.scenario.build import (
    RunReport,
    Tier,
    build_tier,
    calibrate,
    calibrate_mean_service_seconds,
    clear_calibration_cache,
    paper_experiment_config,
    run,
    scenario_config,
)
from repro.scenario.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    smoke_spec,
)
from repro.scenario.spec import (
    DEFAULT_SCENARIO_WORKLOADS,
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    FaultSpec,
    RemediationSpec,
    ReplicationSpec,
    ScenarioSpec,
    ScenarioValidationError,
    TenantSpec,
    TierSpec,
    WorkloadMixSpec,
    apply_overrides,
    coerce_override,
    field_value,
)
from repro.scenario.sweep import expand_axes, sweep, sweep_row

__all__ = [
    "DEFAULT_SCENARIO_WORKLOADS",
    "AdmissionSpec",
    "ArrivalSpec",
    "AutoscalerSpec",
    "FaultSpec",
    "RemediationSpec",
    "ReplicationSpec",
    "RunReport",
    "ScenarioSpec",
    "ScenarioValidationError",
    "TenantSpec",
    "Tier",
    "TierSpec",
    "WorkloadMixSpec",
    "apply_overrides",
    "build_tier",
    "calibrate",
    "calibrate_mean_service_seconds",
    "clear_calibration_cache",
    "coerce_override",
    "expand_axes",
    "field_value",
    "get_scenario",
    "list_scenarios",
    "paper_experiment_config",
    "register_scenario",
    "run",
    "scenario_config",
    "smoke_spec",
    "sweep",
    "sweep_row",
]
