"""The scenario registry: named, ready-to-run specs.

Mirrors the workload registry's role one level up: where
:mod:`repro.workloads.registry` names what can be served, this registry
names whole serving *scenarios* — spec trees exercising each topology the
tier factory can build.  The bundled scenarios double as documentation (one
per topology/feature) and as the source of the checked-in example spec
files under ``examples/scenarios/``, which a test pins equal to the
registered specs so neither can rot.

``repro.cli run-scenario --name <scenario>`` runs a registered scenario
directly; ``register_scenario`` is the extension point for projects layering
their own.
"""

from __future__ import annotations

from repro.scenario.spec import (
    AdmissionSpec,
    ArrivalSpec,
    AutoscalerSpec,
    FaultSpec,
    RemediationSpec,
    ReplicationSpec,
    ScenarioSpec,
    TenantSpec,
    TierSpec,
    WorkloadMixSpec,
)

_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace_existing: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its ``name``."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Return the registered scenario called ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered scenarios: {known}") from exc


def list_scenarios() -> list[str]:
    """Names of every registered scenario, sorted."""
    return sorted(_REGISTRY)


def smoke_spec(spec: ScenarioSpec, num_rounds: int = 4, num_requests: int = 12) -> ScenarioSpec:
    """A shrunk copy of ``spec`` for smoke runs (CI, example validation).

    Caps the ingested rounds and the trace length while keeping every
    topology knob intact, so a smoke run still builds the same stack and
    still asserts conservation — it just finishes in well under a second.
    """
    overrides: dict = {
        "num_rounds": min(spec.num_rounds, num_rounds),
        "workload.num_requests": min(spec.workload.num_requests, num_requests),
    }
    for tenant in spec.tenants:
        overrides[f"tenants.{tenant.name}.num_requests"] = min(
            tenant.num_requests, num_requests
        )
    return spec.with_overrides(overrides)


# ---------------------------------------------------------------------------
# Bundled scenarios — one per topology/feature of the serving tier.
# ---------------------------------------------------------------------------

for _spec in (
    # The plain open-loop baseline: one store, no routing.
    ScenarioSpec(
        name="engine-baseline",
        num_rounds=8,
        workload=WorkloadMixSpec(num_requests=48),
        arrival=ArrivalSpec(kind="poisson", utilization=1.0),
    ),
    # Four hashed shards under bursty overload with drop shedding.
    ScenarioSpec(
        name="sharded-burst",
        num_rounds=8,
        workload=WorkloadMixSpec(num_requests=64),
        arrival=ArrivalSpec(kind="bursty", utilization=2.0),
        tier=TierSpec(
            shards=4,
            router_kind="consistent-hash",
            admission=AdmissionSpec(max_queue_depth=8, shed_policy="drop"),
        ),
    ),
    # Load-aware routing on a hot-keyed mix: JSQ over the affinity
    # candidates, overflow degraded to the object-store bypass.
    ScenarioSpec(
        name="jsq-hotkey",
        num_rounds=8,
        workload=WorkloadMixSpec(workloads=("inference", "scheduling_perf"), num_requests=64),
        arrival=ArrivalSpec(kind="bursty", utilization=2.0),
        tier=TierSpec(
            shards=4,
            router_kind="jsq",
            admission=AdmissionSpec(max_queue_depth=6, shed_policy="degrade-to-objstore"),
        ),
    ),
    # The jsq-hotkey mix with hot-key replication: the P1 hot key is served
    # from two shards holding live replicas, so the hot shard's cache stops
    # being the throughput ceiling (compare max_shard_routed and p99 against
    # jsq-hotkey, or sweep tier.replication.factor=1,2).
    ScenarioSpec(
        name="hotkey-replicated",
        num_rounds=8,
        workload=WorkloadMixSpec(workloads=("inference", "scheduling_perf"), num_requests=64),
        arrival=ArrivalSpec(kind="bursty", utilization=2.0),
        tier=TierSpec(
            shards=4,
            router_kind="jsq",
            admission=AdmissionSpec(max_queue_depth=6, shed_policy="degrade-to-objstore"),
            replication=ReplicationSpec(factor=2, policy="hot-static"),
        ),
    ),
    # The resizable tier under a diurnal cycle, scaled ahead of the peak.
    ScenarioSpec(
        name="autoscale-diurnal",
        num_rounds=8,
        workload=WorkloadMixSpec(num_requests=96),
        arrival=ArrivalSpec(kind="diurnal", utilization=2.5),
        tier=TierSpec(
            shards=1,
            router_kind="consistent-hash",
            admission=AdmissionSpec(max_queue_depth=6, shed_policy="drop"),
            autoscaler=AutoscalerSpec(enabled=True, policy="predictive"),
        ),
    ),
    # Priority queues under bursty overload: each request queues at its
    # workload's Table 1 class (``workload_priority``), so P1 jumps the
    # queue on two shards with two warm slots per function, nothing shed.
    ScenarioSpec(
        name="priority-overload",
        num_rounds=8,
        workload=WorkloadMixSpec(num_requests=64),
        arrival=ArrivalSpec(kind="bursty", utilization=2.0),
        tier=TierSpec(
            shards=2,
            router_kind="consistent-hash",
            function_concurrency=2,
            queue_discipline="priority",
        ),
    ),
    # Raw speed: one plain tier under a million Poisson arrivals with
    # streaming metrics, served on the vectorized fast path — the
    # engine-core benchmark scenario (the bench's ``million-request``
    # workload gates its throughput against the parent commit).
    ScenarioSpec(
        name="million-request",
        num_rounds=12,
        workload=WorkloadMixSpec(num_requests=1_000_000),
        arrival=ArrivalSpec(kind="poisson", utilization=0.8),
        metrics="streaming",
    ),
    # Fault injection with the closed-loop repair: a three-shard JSQ tier
    # (load-balanced, so capacity genuinely matters) loses a shard mid-run;
    # the remediation controller detects the capacity loss, shadow-verifies
    # re-adding it, and actuates.
    ScenarioSpec(
        name="fault-recovery",
        num_rounds=8,
        workload=WorkloadMixSpec(num_requests=96),
        arrival=ArrivalSpec(kind="poisson", utilization=0.7),
        tier=TierSpec(
            shards=3,
            router_kind="jsq",
            admission=AdmissionSpec(max_queue_depth=8, shed_policy="drop"),
        ),
        faults=(FaultSpec(kind="shard-crash", onset_seconds=30.0, magnitude=1.0),),
        remediation=RemediationSpec(
            enabled=True, control_interval_seconds=5.0, shadow_requests=36
        ),
    ),
    # Multi-tenant SLO isolation: a well-behaved steady Poisson tenant
    # shares one warm slot with a bursty noisy neighbour offering twice its
    # arrival rate.  Under WFQ/DRR the steady tenant's 2:1 weight bounds its
    # p99 under its own SLO (zero violations at seed 7); sweep
    # tier.queue_discipline=fifo,wfq,drr (repro.cli run-scenario --sweep) to watch
    # FIFO hand the whole queue to the burst and push the steady tenant to
    # ~2x its SLO.
    ScenarioSpec(
        name="noisy-neighbor",
        num_rounds=8,
        tier=TierSpec(
            shards=1,
            function_concurrency=1,
            queue_discipline="wfq",
            admission=AdmissionSpec(max_queue_depth=16, shed_policy="drop"),
        ),
        tenants=(
            TenantSpec(
                name="steady",
                num_requests=48,
                arrival="poisson",
                utilization=0.5,
                slo_multiplier=10.0,
                weight=2.0,
            ),
            TenantSpec(
                name="bursty",
                num_requests=64,
                arrival="bursty",
                utilization=1.0,
                slo_multiplier=4.0,
                weight=1.0,
            ),
        ),
    ),
):
    register_scenario(_spec)

del _spec
