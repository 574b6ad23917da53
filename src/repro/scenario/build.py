"""Building and running the serving stack a :class:`ScenarioSpec` describes.

:func:`build_tier` is the topology factory: it turns a validated spec into
its stack — analytic ``FLStore`` shards behind a ``ShardedEngineFLStore``
front door (a plain spec is one shard behind the default consistent-hash
ring), optionally an ``Autoscaler`` or remediation control loop — without
running anything.  :func:`run`
serves the spec's workload mix through that stack open-loop and returns a
:class:`RunReport`, the typed wrapper over the engine's
:func:`~repro.engine.flstore.build_load_report` with the conservation
invariant (``served + degraded + shed == offered``) asserted on every run.

Both are pure functions of the spec: same spec, same virtual timeline, same
report — which is what lets the sweep layer fan cells out to worker
processes and what keeps the pre-spec sweep captures under
``tests/data/golden_sweeps/`` reproducible value for value.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping, get_args, get_origin

import numpy as np

from repro.analysis.runner import prepare_setup
from repro.config import SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.engine.autoscale import (
    AutoscaleConfig,
    Autoscaler,
    AutoscaleSummary,
    make_autoscaler_policy,
)
from repro.engine.faults import FaultPlan, RecoveryMetrics, compute_recovery_metrics
from repro.engine.flstore import LoadReport
from repro.engine.remediate import (
    RemediationConfig,
    RemediationController,
    RemediationSummary,
)
from repro.engine.sharded import ShardedEngineFLStore
from repro.engine.vectorized import fast_path_eligible, run_fast_path
from repro.routing import make_router
from repro.scenario.spec import ScenarioSpec, field_types
from repro.traces.arrivals import make_arrival_process
from repro.workloads.registry import workload_priority


def paper_experiment_config(model_name: str, seed: int = 7) -> SimulationConfig:
    """The paper's evaluation configuration (reduced weight dimension).

    The single definition shared by the figure experiments
    (``repro.analysis.experiments``) and the scenario layer, so both draw on
    the same simulated FL jobs — and can never drift apart.
    """
    return SimulationConfig.paper(model_name=model_name, seed=seed).with_job(reduced_dim=64)


def scenario_config(spec: ScenarioSpec) -> SimulationConfig:
    """The simulation config of the spec: the paper's, for its model and seed.

    The tier's own settings (slots, queue discipline, admission, SLO) are
    not part of it: :func:`build_tier` hands them to the front door, so
    specs that differ only in those share one calibration and one setup
    master.
    """
    return paper_experiment_config(spec.model, seed=spec.seed)


# Calibration memo: E[S] is a pure function of its key, and one sweep (or
# one CI smoke over many specs sharing a mix) asks for the same value
# repeatedly.
_calibration_cache: dict[tuple, float] = {}


def clear_calibration_cache() -> None:
    """Drop memoized service-time calibrations.

    The benchmark (``bench/``) calls it, with ``setup_cache.clear()``, before
    each cold set-up it times, so calibration is measured, not remembered.
    """
    _calibration_cache.clear()


def calibrate_mean_service_seconds(
    config: SimulationConfig,
    workloads: tuple[str, ...],
    num_rounds: int,
    num_requests: int,
) -> float:
    """Mean closed-loop service time of a workload mix on ``config`` (seconds).

    Runs the mix sequentially through a fresh analytic ``FLStore`` built
    from ``config`` (a closed-loop run through the serving tier reproduces
    these latencies byte for byte; ``tests/test_sharded.py`` pins that) and
    averages the per-request latency — the ``E[S]`` that turns a spec's
    ``utilization`` into an offered rate and its ``slo_multiplier`` into an
    SLO.  The model and the seed are ``config``'s.

    Each request goes through :meth:`~repro.core.flstore.FLStore.service_latency`,
    the serve path without the workload's execution and result write: the
    latency is the one ``serve`` would return, bit for bit, and a cold
    calibration computes no workload and persists no result.

    :func:`calibrate` passes the config the tier is built from, so the store
    served here comes from the same setup-cache entries as the tier's
    shards: one cold :func:`build_tier` simulates the FL job once and
    ingests once, and every shard is a snapshot of that one master.

    The closed-loop sample is capped at 256 requests, so a million-request
    spec does not pay a million-request calibration.  The cap costs
    accuracy, because 256 requests are a noisy sample of the mix's
    latencies: for ``engine-baseline`` at seeds 1-8, ``calibrate()`` reads
    6.60-12.01 s, while requests 1024-4096 of a 4096-request sample average
    9.00-9.57 s.  (Every pre-cap caller asked for <= 160, so capped and
    uncapped calibrations are identical where both exist.)
    """
    num_requests = min(num_requests, 256)
    key = (repr(config), tuple(workloads), num_rounds, num_requests)
    if key in _calibration_cache:
        return _calibration_cache[key]
    setup = prepare_setup(config, num_rounds=num_rounds, systems=("flstore",))
    trace = setup.generator.mixed_trace(list(workloads), num_requests)
    service_latency = setup.flstore.service_latency
    mean_service = float(np.mean([service_latency(request).total_seconds for request in trace]))
    _calibration_cache[key] = mean_service
    return mean_service


def calibrate(spec: ScenarioSpec) -> float:
    """The spec's calibrated mean service time (honouring any pinned value).

    Calibrates on :func:`scenario_config`, the config :func:`build_tier`
    builds the tier from, so calibration and shards share one simulated job
    and one ingested master.  It averages modeled latencies only, so it
    executes no workload (:func:`calibrate_mean_service_seconds`).
    Multi-tenant specs calibrate over the union of the tenants' workload
    mixes and their combined request count — one ``E[S]`` shared by every
    tenant's rate and SLO math, so tenant weights change scheduling, never
    the calibration.
    """
    if spec.mean_service_seconds is not None:
        return spec.mean_service_seconds
    if spec.tenants:
        workloads = tuple(
            sorted({name for tenant in spec.tenants for name in tenant.workloads})
        )
        num_requests = sum(tenant.num_requests for tenant in spec.tenants)
    else:
        workloads = spec.workload.workloads
        num_requests = spec.workload.num_requests
    return calibrate_mean_service_seconds(
        scenario_config(spec), workloads, spec.num_rounds, num_requests
    )


@dataclass
class Tier:
    """A built (not yet run) serving stack plus the context to drive it."""

    spec: ScenarioSpec
    config: SimulationConfig
    #: The front door (one shard for a plain spec).
    store: ShardedEngineFLStore
    #: Attached control loop, or ``None`` when the spec disables autoscaling.
    autoscaler: Autoscaler | None
    #: Trace generator seeded from the config (shard 0's catalog).
    generator: object
    #: The calibrated (or pinned) mean service time backing rate/SLO math.
    mean_service_seconds: float
    #: Scheduled fault clauses, or ``None`` when the spec is healthy.
    fault_plan: FaultPlan | None = None
    #: The remediation control loop, or ``None`` when the spec disables it.
    remediation: RemediationController | None = None


def build_tier(spec: ScenarioSpec) -> Tier:
    """Construct the stack ``spec`` describes, without serving anything.

    Every topology is ``tier.shards`` independent fully ingested stores
    behind one ``ShardedEngineFLStore`` front door with the named router; a
    plain spec (``tier.router_kind is None``) is one shard behind the
    default consistent-hash ring.  An autoscaled tier is made resizable
    (shard factory + warm-round replay) with an :class:`Autoscaler`
    attached — ``run`` starts the control loop on the shared virtual
    timeline.

    A tier with fault clauses or remediation enabled is also built
    resizable: a ``shard-crash`` retires a live shard and the controller's
    ``add-shard`` actuation re-provisions one, both of which need the shard
    factory.  Resizability alone changes no behavior — an untouched
    resizable tier runs byte-identical to a fixed one.

    The tier's settings (slots, queue discipline, admission, the run's SLO)
    go to the front door here, not into the config.  So calibration
    (:func:`calibrate`), the shards and every spec differing only in those
    settings ask the setup cache for the same config: a cold build
    simulates the FL job once and builds, ingests and pickles one master
    (one rounds miss and one snapshot miss in ``setup_cache.stats``); each
    shard is a snapshot of that master.  Calibration reads only modeled
    latencies, so a cold build executes no workload and writes no result:
    serving starts with :func:`run`.
    """
    config = scenario_config(spec)
    mean_service = calibrate(spec)
    setups = [
        prepare_setup(config, num_rounds=spec.num_rounds, systems=("flstore",))
        for _ in range(spec.tier.shards)
    ]
    generator = setups[0].generator
    resizable = spec.tier.autoscaler.enabled or bool(spec.faults) or spec.remediation.enabled
    store = ShardedEngineFLStore(
        [setup.flstore for setup in setups],
        router=make_router(spec.tier.router_kind or "consistent-hash", spec.tier.shards),
        shard_factory=(lambda: build_default_flstore(config)) if resizable else None,
        warm_rounds=setups[0].rounds if resizable else None,
        replication_factor=spec.tier.replication.factor,
        replication_policy=spec.tier.replication.policy,
        hot_threshold=spec.tier.replication.hot_threshold,
        function_concurrency=spec.tier.function_concurrency,
        queue_discipline=spec.tier.queue_discipline,
        max_queue_depth=spec.tier.admission.max_queue_depth,
        shed_policy=spec.tier.admission.shed_policy,
        slo_seconds=spec.slo_multiplier * mean_service if spec.slo_multiplier else None,
    )
    autoscaler = None
    if spec.tier.autoscaler.enabled:
        policy = make_autoscaler_policy(
            spec.tier.autoscaler.policy,
            AutoscaleConfig(control_interval_seconds=spec.tier.autoscaler.control_interval_seconds),
            mean_service_seconds=mean_service,
        )
        autoscaler = Autoscaler(store, policy)
    if spec.tenants:
        store.configure_tenants(
            {tenant.name: tenant.weight for tenant in spec.tenants},
            {
                tenant.name: (
                    tenant.slo_multiplier * mean_service if tenant.slo_multiplier else None
                )
                for tenant in spec.tenants
            },
        )
    fault_plan = FaultPlan(store, spec.faults, seed=spec.seed) if spec.faults else None
    remediation = None
    if spec.remediation.enabled:
        remediation = RemediationController(
            store,
            config=RemediationConfig(
                control_interval_seconds=spec.remediation.control_interval_seconds,
                cooldown_seconds=spec.remediation.cooldown_seconds,
                max_actions=spec.remediation.max_actions,
            ),
            nominal_shards=spec.tier.shards,
            nominal_slots=spec.tier.function_concurrency,
            shadow_runner=make_shadow_runner(spec, mean_service),
        )
    return Tier(
        spec=spec,
        config=config,
        store=store,
        autoscaler=autoscaler,
        generator=generator,
        mean_service_seconds=mean_service,
        fault_plan=fault_plan,
        remediation=remediation,
    )


def make_shadow_runner(spec: ScenarioSpec, mean_service: float):
    """The bounded shadow simulation backing remediation verification.

    Returns ``callable(action, state) -> forecast`` for a
    :class:`~repro.engine.remediate.RemediationController`.  ``state`` is
    the tier's current degraded shape; the runner shrinks the scenario to
    the spec's shadow budget (``remediation.shadow_rounds`` x
    ``shadow_requests``), strips faults and control loops (so the shadow
    cannot recurse or re-fault), pins the calibration, and runs the
    degraded shape with and without the candidate action applied — same
    seed, so the arrival process replays the true arrival prefix.
    """
    base_overrides = {
        "faults": [],
        "remediation.enabled": False,
        "tier.autoscaler.enabled": False,
        "num_rounds": min(spec.num_rounds, spec.remediation.shadow_rounds),
        "workload.num_requests": min(
            spec.workload.num_requests, spec.remediation.shadow_requests
        ),
        "mean_service_seconds": mean_service,
    }

    def state_overrides(state: dict) -> dict:
        return {
            "tier.shards": state["shards"],
            "tier.function_concurrency": state["slots"],
            "tier.router_kind": state["router_kind"],
            "tier.admission.shed_policy": state["shed_policy"],
        }

    def shadow_runner(action: str, state: dict) -> dict:
        candidate = dict(state)
        if action == "add-shard":
            candidate["shards"] = state["shards"] + 1
        elif action == "promote-slots":
            candidate["slots"] = state["slots"] + 1
        elif action == "reroute-jsq":
            candidate["router_kind"] = "jsq"
        elif action == "shed-degrade":
            candidate["shed_policy"] = "degrade-to-objstore"
        baseline_spec = spec.with_overrides({**base_overrides, **state_overrides(state)})
        candidate_spec = spec.with_overrides(
            {**base_overrides, **state_overrides(candidate)}
        )
        baseline = run(baseline_spec)
        forecast = run(candidate_spec)
        return {
            "p99_baseline": baseline.load.p99_sojourn_seconds,
            "p99_candidate": forecast.load.p99_sojourn_seconds,
            "goodput_baseline": baseline.load.goodput_rps,
            "goodput_candidate": forecast.load.goodput_rps,
        }

    return shadow_runner


#: Schema version stamped into every serialized :class:`RunReport`.  Readers
#: ignore unknown keys in every section, so artifacts written by a newer
#: schema still load; bump this when a change is *not* forward-compatible
#: that way.
RUN_REPORT_SCHEMA_VERSION = 1

#: Per-request row lists a serialized report leaves out (``LoadReport.outcomes``,
#: ``RemediationSummary.records``/``anomalies``): reports round-trip, raw
#: rows do not.
_ROW_LISTS = ("outcomes", "records", "anomalies")


def attribute_warm_cost(tenant_rows: list[dict], total_cost: float) -> list[dict]:
    """Split a run's warm-capacity cost across tenants by share of served work.

    The warm-capacity integral is a tier-level quantity (capacity is shared;
    no slot belongs to a tenant), so attribution is proportional: each tenant
    carries the fraction of the cost matching its fraction of requests that
    actually consumed service (``served + requeued``; degraded and shed
    requests never occupied a warm slot).  An idle tier (nothing served)
    splits the cost evenly.  Returns new rows carrying ``warm_cost_share``
    and ``warm_cost_dollars``; shares sum to 1 and dollars to ``total_cost``.
    """
    weights = [row["served"] + row["requeued"] for row in tenant_rows]
    total = sum(weights)
    attributed = []
    for row, weight in zip(tenant_rows, weights):
        share = weight / total if total else 1.0 / len(tenant_rows)
        attributed.append(
            dict(row, warm_cost_share=share, warm_cost_dollars=total_cost * share)
        )
    return attributed


@dataclass
class RunReport:
    """The typed outcome of one scenario run.

    Wraps the engine's :class:`~repro.engine.flstore.LoadReport` with the
    scenario context (spec, calibration, offered rate), the tier-level
    accounting the sharded front door adds, and — when an autoscaler drove
    the run — its :class:`~repro.engine.autoscale.AutoscaleSummary`.
    Constructed only by :func:`run`, which has already asserted
    conservation, so a ``RunReport`` in hand means no request was lost.
    """

    spec: ScenarioSpec
    load: LoadReport
    mean_service_seconds: float
    offered_rate_rps: float
    conserved: bool
    cached_bytes: int
    live_keys: int
    warm_functions: int
    #: The run's sojourn SLO (``None`` when the spec sets no SLO).
    slo_seconds: float | None = None
    #: Requests routed to the hottest shard (``None`` for plain topologies):
    #: the hot-key imbalance measure the router comparison reads.
    max_shard_routed: int | None = None
    #: Hot-key replication accounting (replication-enabled tiers only):
    #: tracked hot keys, bytes held as tier replicas, arrivals served by a
    #: non-primary holder, and replica copies warmed by scheduled events.
    replicated_keys: int | None = None
    replica_bytes: int | None = None
    replica_hits: int | None = None
    replica_warm_events: int | None = None
    autoscale: AutoscaleSummary | None = None
    #: Fault accounting (``FaultPlan.summary()``), faulted runs only.
    faults: dict | None = None
    #: Remediation accounting, remediated runs only.
    remediation: RemediationSummary | None = None
    #: Windowed goodput analysis around the first fault onset, faulted runs only.
    recovery: RecoveryMetrics | None = None
    #: Per-tenant breakdown rows (``LoadReport.tenant_rows``), multi-tenant
    #: runs only.  Each row conserves ``served + requeued + degraded +
    #: shed == offered`` for its tenant, and carries that tenant's slice of
    #: the warm-capacity cost (``warm_cost_share`` / ``warm_cost_dollars``,
    #: see :func:`attribute_warm_cost`).
    tenants: list[dict] | None = None
    #: Total warm-capacity cost of the run in dollars (the autoscaler's
    #: provisioned-GB-seconds integral, or the static provisioned capacity
    #: times the horizon), multi-tenant runs only.
    warm_capacity_cost_dollars: float | None = None

    def row(self) -> dict:
        """One flat result row (tables, CSV/JSON export, sweep grids)."""
        spec = self.spec
        row: dict = {"scenario": spec.name, "shards": spec.tier.shards}
        if spec.tier.sharded:
            row["router"] = spec.tier.router_kind
        if self.autoscale is not None:
            row["autoscaler"] = self.autoscale.policy
        row["utilization"] = spec.arrival.utilization
        row.update(self.load.row())
        row["conserved"] = self.conserved
        if self.max_shard_routed is not None:
            row["max_shard_routed"] = self.max_shard_routed
            row["cached_bytes"] = self.cached_bytes
            row["live_keys"] = self.live_keys
            row["warm_functions"] = self.warm_functions
        if self.replicated_keys is not None:
            row["replicated_keys"] = self.replicated_keys
            row["replica_bytes"] = self.replica_bytes
            row["replica_hits"] = self.replica_hits
            row["replica_warm_events"] = self.replica_warm_events
        if self.autoscale is not None:
            row.update(
                {k: v for k, v in self.autoscale.row().items() if k != "autoscaler"}
            )
        if self.faults is not None:
            row["fault_clauses"] = self.faults["fault_clauses"]
            row["fault_events"] = self.faults["fault_events"]
        if self.recovery is not None:
            row.update(self.recovery.row())
        if self.remediation is not None:
            row.update(self.remediation.row())
        if self.warm_capacity_cost_dollars is not None:
            row["warm_capacity_cost_dollars"] = self.warm_capacity_cost_dollars
        if self.tenants:
            for tenant_row in self.tenants:
                name = tenant_row["tenant"]
                row[f"{name}_p99"] = tenant_row["p99_sojourn_seconds"]
                row[f"{name}_share"] = tenant_row["service_share"]
                row[f"{name}_violations"] = tenant_row["violation_rate"]
                if "warm_cost_dollars" in tenant_row:
                    row[f"{name}_warm_cost"] = tenant_row["warm_cost_dollars"]
        return row

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        """A stable, typed, JSON-ready view of this report, walked from its fields.

        ``None``-valued fields are omitted (a plain-topology report carries
        no sharded columns at all), the spec serializes through
        :meth:`ScenarioSpec.to_dict`, and the other sections flatten to
        plain dicts without their per-request row lists (see
        :data:`_ROW_LISTS`) — so ``RunReport.from_dict(report.to_dict())``
        rebuilds an equivalent report and ``to_dict`` of the rebuilt report
        is byte-identical.
        """
        data: dict = {"schema_version": RUN_REPORT_SCHEMA_VERSION}
        for name in field_types(RunReport):
            value = getattr(self, name)
            if isinstance(value, ScenarioSpec):
                value = value.to_dict()
            elif dataclasses.is_dataclass(value):
                value = _flatten_section(value)
            if value is not None:
                data[name] = value
        return data

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` view serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a typed report from a :meth:`to_dict` payload.

        The rebuilt report carries empty ``outcomes`` and (for remediated
        runs) empty remediation record/anomaly lists — everything
        :meth:`to_dict` serializes round-trips exactly.  Loading is
        forward-compatible: unknown keys in every section (artifacts written
        by a newer ``schema_version``) are ignored rather than rejected, so
        a recorded fleet survives schema growth.
        """
        return _load_section(cls, data)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a typed report from a :meth:`to_json` string."""
        return cls.from_dict(json.loads(text))


def _flatten_section(section: Any) -> dict:
    """A report section as a plain dict (``asdict``) without its row lists.

    The row lists are emptied *before* ``asdict`` runs, which would
    otherwise deep-copy every outcome only for it to be dropped.
    """
    rows = {name: [] for name in field_types(type(section)) if name in _ROW_LISTS}
    flat = dataclasses.asdict(dataclasses.replace(section, **rows))
    for name in rows:
        del flat[name]
    return flat


def _load_section(section_type: type, data: Mapping[str, Any]) -> Any:
    """Rebuild a report section from its plain form, walking its field types.

    A field holding a dataclass (``X``, ``X | None`` or ``list[X]``)
    rebuilds recursively; unknown keys are ignored, absent optional fields
    take their defaults, and the row lists come back empty.
    """
    if section_type is ScenarioSpec:
        return ScenarioSpec.from_dict(data)
    kwargs = {}
    for name, kind in field_types(section_type).items():
        if name in _ROW_LISTS:
            kwargs[name] = []
        elif name in data:
            kwargs[name] = _load_field(kind, data[name])
    return section_type(**kwargs)


def _load_field(kind: Any, value: Any) -> Any:
    """One field's plain value rebuilt by its declared type ``kind``."""
    if value is None:
        return None
    for member in get_args(kind) or (kind,):
        if dataclasses.is_dataclass(member):
            if get_origin(kind) is list:
                return [_load_section(member, item) for item in value]
            return _load_section(member, value)
    return value


def _merge_tenant_traces(spec: ScenarioSpec, tier: Tier, mean_service: float):
    """Time-merge every tenant's trace into one open-loop submission block.

    Each tenant draws its own deterministic trace
    (:meth:`~repro.traces.generator.RequestTraceGenerator.tenant_trace`) and
    its own arrival process at ``rate_rps`` or ``utilization / E[S]``,
    seeded per tenant so one tenant's knobs never perturb another's stream.
    The merged block is sorted by arrival instant (ties in spec tenant
    order), carries each tenant's spec ``priority``, and reports the
    aggregate offered rate.
    """
    merged: list[tuple[float, int, object, float]] = []
    total_rate = 0.0
    for index, tenant in enumerate(spec.tenants):
        trace = tier.generator.tenant_trace(
            tenant.name, list(tenant.workloads), tenant.num_requests
        )
        if tenant.rate_rps is not None:
            tenant_rate = tenant.rate_rps
        else:
            tenant_rate = tenant.utilization / mean_service
        total_rate += tenant_rate
        process = make_arrival_process(
            tenant.arrival, tenant_rate, seed=spec.seed + index + 1
        )
        for at, request in zip(process.times(len(trace)), trace):
            merged.append((float(at), index, request, tenant.priority))
    merged.sort(key=lambda item: (item[0], item[1]))
    trace = [item[2] for item in merged]
    arrivals = [item[0] for item in merged]
    priorities = [item[3] for item in merged]
    return trace, arrivals, priorities, total_rate


def run(spec: ScenarioSpec) -> RunReport:
    """Build the spec's stack, serve its mix open-loop, and report.

    The run replays the spec's deterministic workload mix with arrival
    instants drawn from the spec's process at ``utilization / E[S]`` (or the
    explicit ``rate_rps``), with keep-alive daemons live and — if the spec
    enables one — the autoscaler's control loop ticking on the same virtual
    timeline.  Each request queues at its workload's Table 1 priority
    (:func:`~repro.workloads.registry.workload_priority`), or at its
    tenant's ``priority`` on a multi-tenant spec; only the ``priority``
    queue discipline reads it.  Conservation is asserted before the report is returned: a
    tier (resizing or not) must account for every offered request exactly
    once, as served, degraded, or shed.
    """
    tier = build_tier(spec)
    mean_service = tier.mean_service_seconds
    if spec.tenants:
        trace, arrivals, priorities, rate = _merge_tenant_traces(spec, tier, mean_service)
    elif spec.arrival.rate_rps is not None:
        rate = spec.arrival.rate_rps
    else:
        rate = spec.arrival.utilization / mean_service
    if fast_path_eligible(spec):
        # The closed-form queueing path: no per-request objects, no event
        # loop — this is what makes million-request specs single-digit
        # seconds (see repro.engine.vectorized for what it approximates).
        arrival_process = make_arrival_process(spec.arrival.kind, rate, seed=spec.seed)
        report = run_fast_path(tier.store, spec, arrival_process, label=spec.arrival.kind)
    else:
        if not spec.tenants:
            arrival_process = make_arrival_process(spec.arrival.kind, rate, seed=spec.seed)
            trace = tier.generator.mixed_trace(
                list(spec.workload.workloads), spec.workload.num_requests
            )
            arrivals = arrival_process.times(len(trace))
            priority = {name: workload_priority(name) for name in spec.workload.workloads}
            priorities = [priority[request.workload] for request in trace]
        label = spec.arrival.kind
        if tier.autoscaler is not None:
            label = f"{label}/{spec.tier.autoscaler.policy}"
        report = tier.store.run_open_loop(
            trace,
            arrivals,
            priorities=priorities,
            label=label,
            keepalive=True,
            autoscaler=tier.autoscaler,
            fault_plan=tier.fault_plan,
            remediation=tier.remediation,
            metrics=spec.metrics,
        )
    if not report.conserved:
        raise RuntimeError(
            f"conservation violated in scenario {spec.name!r}: "
            f"{report.served} served + {report.degraded} degraded + {report.shed} shed "
            f"!= {report.submitted} offered"
        )
    store = tier.store
    # A plain spec reports no routing columns, though it runs on one shard.
    max_shard_routed = max(store.routed_counts) if spec.tier.sharded else None
    replication_row: dict = {}
    if spec.tier.replication.enabled:
        replication_row = {
            "replicated_keys": store.replicated_keys,
            "replica_bytes": store.replica_cached_bytes,
            "replica_hits": store.replica_hits,
            "replica_warm_events": store.replica_warm_events,
        }
    tenant_rows = report.tenant_rows or None
    warm_capacity_cost = None
    if tenant_rows:
        # Warm capacity is a shared tier resource; for tenant runs, price the
        # whole run (the autoscaler's exact provisioned-GB-seconds integral
        # when one drove the run, else static capacity x horizon) and split
        # it across tenants by share of requests that consumed service.
        price = store.config.pricing.lambda_provisioned_cost_per_gb_second
        if tier.autoscaler is not None:
            warm_capacity_cost = tier.autoscaler.warm_capacity_cost_dollars
        else:
            warm_capacity_cost = store.provisioned_gb * report.horizon_seconds * price
        tenant_rows = attribute_warm_cost(tenant_rows, warm_capacity_cost)
    recovery = None
    if tier.fault_plan is not None and tier.fault_plan.first_onset_seconds is not None:
        recovery = compute_recovery_metrics(
            report.outcomes,
            onset_seconds=tier.fault_plan.first_onset_seconds,
            end_seconds=float(max(arrivals)) if len(arrivals) else 0.0,
            window_seconds=spec.remediation.control_interval_seconds,
            baseline_goodput_rps=rate,
        )
    return RunReport(
        spec=spec,
        load=report,
        mean_service_seconds=mean_service,
        slo_seconds=store.slo_seconds,
        offered_rate_rps=rate,
        conserved=True,
        cached_bytes=store.cached_bytes,
        live_keys=store.live_key_count,
        warm_functions=store.warm_function_count,
        max_shard_routed=max_shard_routed,
        **replication_row,
        autoscale=tier.autoscaler.summary() if tier.autoscaler is not None else None,
        faults=tier.fault_plan.summary() if tier.fault_plan is not None else None,
        remediation=tier.remediation.summary() if tier.remediation is not None else None,
        recovery=recovery,
        tenants=tenant_rows,
        warm_capacity_cost_dollars=warm_capacity_cost,
    )
