"""The declarative scenario specification: one typed spec per serving scenario.

A :class:`ScenarioSpec` is a frozen, validated description of everything a
serving experiment needs — the workload mix, the open-loop arrival process,
and the tier topology (shard count, router, admission control, per-function
concurrency, autoscaling policy) — detached from any particular entrypoint.
The same spec builds the stack (:func:`repro.scenario.build.build_tier`),
runs it (:func:`repro.scenario.build.run`), and sweeps it
(:func:`repro.scenario.sweep.sweep`).

Design rules:

* **Every string knob is validated here, at build time.**  An invalid
  ``shed_policy``, ``queue_discipline``, ``router_kind``, autoscaler policy,
  arrival kind, workload, or model name raises
  :class:`ScenarioValidationError` the moment the spec is constructed —
  never a ``KeyError`` three layers down a serving tier.
* **Specs are data.**  ``to_dict``/``from_dict`` round-trip losslessly, and
  so do the JSON and TOML file forms (:meth:`ScenarioSpec.save` /
  :meth:`ScenarioSpec.load`); ``from_dict`` rejects unknown keys so a typo
  in a checked-in spec cannot silently no-op.  Both walk the dataclass
  fields (:func:`field_types`), the dict form's only schema.
* **Specs are immutable.**  Variations are expressed as dotted-path
  overrides (:func:`apply_overrides`, the ``--set tier.shards=4`` CLI
  surface), which re-validate the whole tree.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence, get_args, get_origin, get_type_hints

from repro.common.errors import ConfigurationError
from repro.config import QUEUE_DISCIPLINES, SHED_POLICIES
from repro.engine.autoscale import AUTOSCALER_KINDS
from repro.engine.faults import FAULT_KINDS
from repro.engine.sharded import REPLICATION_POLICIES
from repro.engine.streaming import METRICS_MODES
from repro.fl.models import MODEL_ZOO
from repro.routing import ROUTER_KINDS
from repro.traces.arrivals import ARRIVAL_KINDS
from repro.workloads.registry import list_workloads

#: The default workload mix of serving scenarios: one P1 (inference), one P2
#: (clustering), one P4 (metadata) workload, so the offered stream touches
#: the policy classes with distinct data needs.
DEFAULT_SCENARIO_WORKLOADS: tuple[str, ...] = ("inference", "clustering", "scheduling_perf")


class ScenarioValidationError(ConfigurationError):
    """A scenario spec holds an invalid or inconsistent value.

    The single failure mode of the whole spec layer: unknown knob strings,
    out-of-range numbers, unknown dict keys, and cross-field inconsistencies
    (a multi-shard tier without a router) all raise this, at spec build
    time.
    """


def _fail(message: str) -> None:
    raise ScenarioValidationError(message)


def _coerce_int(spec: object, name: str, minimum: int | None = None) -> None:
    value = getattr(spec, name)
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            coerced = int(value)
        except (TypeError, ValueError):
            _fail(f"{type(spec).__name__}.{name} must be an integer, got {value!r}")
        if coerced != value:  # refuse silent truncation of e.g. 2.5 shards
            _fail(f"{type(spec).__name__}.{name} must be an integer, got {value!r}")
        object.__setattr__(spec, name, coerced)
        value = coerced
    if minimum is not None and value < minimum:
        _fail(f"{type(spec).__name__}.{name} must be >= {minimum}, got {value}")


def _coerce_float(
    spec: object, name: str, minimum: float | None = None, exclusive: bool = False
) -> None:
    value = getattr(spec, name)
    if not isinstance(value, float):
        try:
            coerced = float(value)
        except (TypeError, ValueError):
            _fail(f"{type(spec).__name__}.{name} must be a number, got {value!r}")
        object.__setattr__(spec, name, coerced)
        value = coerced
    if minimum is not None and (value <= minimum if exclusive else value < minimum):
        bound = f"> {minimum}" if exclusive else f">= {minimum}"
        _fail(f"{type(spec).__name__}.{name} must be {bound}, got {value}")


def _check_choice(spec: object, name: str, choices: Sequence[str]) -> None:
    value = getattr(spec, name)
    if value not in choices:
        _fail(
            f"{type(spec).__name__}.{name} must be one of {tuple(choices)}, got {value!r}"
        )


def _check_workloads(spec: object, owner: str = "") -> None:
    """Normalize ``spec.workloads`` (a sequence or a comma string) to a tuple
    of registered workload names; ``owner`` names the tenant in messages."""
    workloads = spec.workloads
    if isinstance(workloads, str):
        workloads = (w.strip() for w in workloads.split(",") if w.strip())
    object.__setattr__(spec, "workloads", tuple(workloads))
    if not spec.workloads:
        _fail(f"{type(spec).__name__}.workloads must name at least one workload{owner}")
    registered = set(list_workloads())
    unknown = sorted(set(spec.workloads) - registered)
    if unknown:
        _fail(f"unknown workloads {unknown}{owner}; registered workloads: {sorted(registered)}")


@dataclass(frozen=True)
class WorkloadMixSpec:
    """What is served: the workload mix replayed by every run of the spec."""

    #: Workload names (must be registered in :mod:`repro.workloads.registry`);
    #: interleaved round-aligned by ``RequestTraceGenerator.mixed_trace``.
    workloads: tuple[str, ...] = DEFAULT_SCENARIO_WORKLOADS
    #: Number of requests in the replayed trace.
    num_requests: int = 120

    def __post_init__(self) -> None:
        _check_workloads(self)
        _coerce_int(self, "num_requests", minimum=1)


@dataclass(frozen=True)
class ArrivalSpec:
    """When requests arrive: the open-loop arrival process driving the run.

    The offered rate is normally expressed as ``utilization`` — a multiple
    of the calibrated single-tier service rate (``rate = utilization /
    E[S]``), so specs stay meaningful if the latency model is recalibrated.
    An explicit ``rate_rps`` bypasses calibration entirely.
    """

    kind: str = "poisson"
    utilization: float = 1.0
    rate_rps: float | None = None

    def __post_init__(self) -> None:
        _check_choice(self, "kind", ARRIVAL_KINDS)
        _coerce_float(self, "utilization", minimum=0.0, exclusive=True)
        if self.rate_rps is not None:
            _coerce_float(self, "rate_rps", minimum=0.0, exclusive=True)


@dataclass(frozen=True)
class AdmissionSpec:
    """Per-shard admission control: queue bound and shedding policy."""

    #: Waiting requests allowed per shard; 0 means unbounded.
    max_queue_depth: int = 0
    shed_policy: str = "drop"

    def __post_init__(self) -> None:
        _coerce_int(self, "max_queue_depth", minimum=0)
        _check_choice(self, "shed_policy", SHED_POLICIES)


@dataclass(frozen=True)
class ReplicationSpec:
    """Hot-key replication across the tier's shards (read-only copies).

    ``policy="none"`` (the default) disables the machinery entirely — the
    tier is byte-identical to a pre-replication build.  ``"hot-static"``
    replicates the canonical P1 hot key (cross-client requests against the
    latest round); ``"hot-tracked"`` promotes any routing key after
    ``hot_threshold`` observed arrivals.  ``factor`` is the number of shards
    holding the key (primary included), clamped to the active shard count.
    """

    factor: int = 1
    policy: str = "none"
    #: Arrival count at which ``hot-tracked`` promotes a routing key.
    hot_threshold: int = 8

    def __post_init__(self) -> None:
        _coerce_int(self, "factor", minimum=1)
        _check_choice(self, "policy", REPLICATION_POLICIES)
        _coerce_int(self, "hot_threshold", minimum=1)

    @property
    def enabled(self) -> bool:
        """Whether any replication machinery is active."""
        return self.policy != "none"


@dataclass(frozen=True)
class AutoscalerSpec:
    """Whether (and how) an autoscaler drives the tier's warm capacity.

    ``enabled=False`` means no control loop is attached at all;
    ``enabled=True`` with ``policy="none"`` attaches the do-nothing
    autoscaler, which samples (and accrues the warm-capacity cost integral)
    but never scales — the fixed-capacity baseline of the autoscale sweep.
    """

    enabled: bool = False
    policy: str = "none"
    control_interval_seconds: float = 5.0

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            _fail(f"AutoscalerSpec.enabled must be a boolean, got {self.enabled!r}")
        _check_choice(self, "policy", AUTOSCALER_KINDS)
        _coerce_float(self, "control_interval_seconds", minimum=0.0, exclusive=True)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault clause injected into the run's virtual timeline.

    The one fault-clause type: the spec validates it here, and
    :class:`~repro.engine.faults.FaultPlan` schedules it as engine events.

    The four kinds exercise different layers of the tier:

    * ``shard-crash`` — the front door loses :attr:`shards_crashed` shards
      (``magnitude``, at least one) at onset, for good (their waiters drain
      as ``requeued``); instantaneous, no duration.  A spec's crash clauses
      may crash at most ``tier.shards - 1`` shards in total.
    * ``reclamation-storm`` — every ``interval_seconds`` within the window,
      each shard force-reclaims a Zipf-sized set of warm functions (exponent
      ``zipf_exponent``, the drawn count scaled by ``magnitude``).
    * ``slow-shard`` — one shard's service times are multiplied by
      ``magnitude`` for the window (gray degradation: nothing errors).
    * ``network-spike`` — every shard's communication latency/cost is
      multiplied by ``magnitude`` for the window.
    """

    kind: str = "shard-crash"
    onset_seconds: float = 0.0
    duration_seconds: float = 0.0
    magnitude: float = 1.0
    interval_seconds: float = 5.0
    zipf_exponent: float = 2.5

    def __post_init__(self) -> None:
        _check_choice(self, "kind", FAULT_KINDS)
        _coerce_float(self, "onset_seconds", minimum=0.0)
        _coerce_float(self, "duration_seconds", minimum=0.0)
        _coerce_float(self, "magnitude", minimum=0.0, exclusive=True)
        _coerce_float(self, "interval_seconds", minimum=0.0, exclusive=True)
        _coerce_float(self, "zipf_exponent", minimum=1.0, exclusive=True)
        if self.kind in ("reclamation-storm", "slow-shard", "network-spike"):
            if self.duration_seconds <= 0:
                _fail(f"FaultSpec.duration_seconds must be > 0 for a {self.kind} fault")

    @property
    def shards_crashed(self) -> int:
        """Shards a ``shard-crash`` clause takes down at onset (at least one)."""
        return max(int(self.magnitude), 1)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant sharing the serving tier with its own traffic and SLO.

    A tenant is a *flow*: its requests are generated from its own workload
    mix and arrival process (seeded independently, so adding a tenant never
    perturbs another tenant's trace), tagged with ``tenant_id == name``, and
    scheduled against other tenants by the tier's queue discipline —
    ``wfq``/``drr`` serve backlogged tenants in proportion to ``weight``,
    ``priority`` orders the ``priority`` discipline, and FIFO ignores both.

    ``slo_multiplier`` scales the tier's calibrated mean service time into
    this tenant's own sojourn SLO (0 disables violation accounting for the
    tenant); per-tenant violation rates feed the ``slo`` autoscaler policy
    and SLO-aware push-out shedding.

    All fields are flat scalars (plus a string list) so a tenant can be one
    ``[[tenants]]`` table in a TOML spec.
    """

    name: str = ""
    workloads: tuple[str, ...] = DEFAULT_SCENARIO_WORKLOADS
    num_requests: int = 60
    #: Arrival process kind (one of :data:`repro.traces.arrivals.ARRIVAL_KINDS`).
    arrival: str = "poisson"
    #: Offered load as a multiple of the tier's calibrated service rate.
    utilization: float = 1.0
    #: Explicit offered rate; overrides ``utilization`` when set.
    rate_rps: float | None = None
    #: Sojourn SLO as a multiple of the calibrated mean service time (0 = none).
    slo_multiplier: float = 3.0
    #: Orders the ``priority`` discipline (lower served first).
    priority: float = 0.0
    #: Fair share under ``wfq``/``drr`` (service in proportion to weight).
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            _fail(f"TenantSpec.name must be a non-empty string, got {self.name!r}")
        _check_workloads(self, owner=f" for tenant {self.name!r}")
        _coerce_int(self, "num_requests", minimum=1)
        _check_choice(self, "arrival", ARRIVAL_KINDS)
        _coerce_float(self, "utilization", minimum=0.0, exclusive=True)
        if self.rate_rps is not None:
            _coerce_float(self, "rate_rps", minimum=0.0, exclusive=True)
        _coerce_float(self, "slo_multiplier", minimum=0.0)
        _coerce_float(self, "priority")
        _coerce_float(self, "weight", minimum=0.0, exclusive=True)


@dataclass(frozen=True)
class RemediationSpec:
    """Whether (and how) the remediation controller guards the tier.

    ``enabled=True`` attaches a :class:`repro.engine.remediate.
    RemediationController` riding control ticks alongside the run; its
    shadow verification replays a ``shadow_rounds`` x ``shadow_requests``
    bounded fork of the scenario per candidate action.
    """

    enabled: bool = False
    control_interval_seconds: float = 5.0
    cooldown_seconds: float = 15.0
    max_actions: int = 4
    #: Scale of the bounded shadow simulation used to verify proposals.
    shadow_rounds: int = 4
    shadow_requests: int = 24

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            _fail(f"RemediationSpec.enabled must be a boolean, got {self.enabled!r}")
        _coerce_float(self, "control_interval_seconds", minimum=0.0, exclusive=True)
        _coerce_float(self, "cooldown_seconds", minimum=0.0)
        _coerce_int(self, "max_actions", minimum=0)
        _coerce_int(self, "shadow_rounds", minimum=1)
        _coerce_int(self, "shadow_requests", minimum=1)


@dataclass(frozen=True)
class TierSpec:
    """The serving topology the spec builds.

    Every topology is built as a ``ShardedEngineFLStore``.
    ``router_kind=None`` (the default) is the *plain* topology: one shard
    behind the default consistent-hash ring, with no routing columns in its
    reports — what the open-loop load sweep measures.  Naming a router routes
    arrivals over ``shards`` full shards; enabling the autoscaler
    additionally makes the tier resizable (``shards`` is then the *starting*
    count).
    """

    shards: int = 1
    router_kind: str | None = None
    function_concurrency: int = 1
    queue_discipline: str = "fifo"
    admission: AdmissionSpec = field(default_factory=AdmissionSpec)
    replication: ReplicationSpec = field(default_factory=ReplicationSpec)
    autoscaler: AutoscalerSpec = field(default_factory=AutoscalerSpec)

    def __post_init__(self) -> None:
        _coerce_int(self, "shards", minimum=1)
        if self.router_kind is not None:
            _check_choice(self, "router_kind", ROUTER_KINDS)
        _coerce_int(self, "function_concurrency", minimum=1)
        _check_choice(self, "queue_discipline", QUEUE_DISCIPLINES)
        if not isinstance(self.admission, AdmissionSpec):
            _fail(f"TierSpec.admission must be an AdmissionSpec, got {self.admission!r}")
        if not isinstance(self.autoscaler, AutoscalerSpec):
            _fail(f"TierSpec.autoscaler must be an AutoscalerSpec, got {self.autoscaler!r}")
        if not isinstance(self.replication, ReplicationSpec):
            _fail(f"TierSpec.replication must be a ReplicationSpec, got {self.replication!r}")
        if self.router_kind is None and self.shards != 1:
            _fail(
                f"a {self.shards}-shard tier needs a router; set tier.router_kind "
                f"(one of {ROUTER_KINDS}) or keep shards=1"
            )
        if self.router_kind is None and self.autoscaler.enabled:
            _fail(
                "an autoscaled tier must be sharded (the autoscaler actuates the "
                f"routing front door); set tier.router_kind (one of {ROUTER_KINDS})"
            )
        if self.router_kind is None and self.replication.enabled:
            _fail(
                "hot-key replication needs a sharded tier (replicas live on the "
                f"ring's successor shards); set tier.router_kind (one of {ROUTER_KINDS})"
            )

    @property
    def sharded(self) -> bool:
        """Whether this topology routes arrivals (and reports routing columns)."""
        return self.router_kind is not None


@dataclass(frozen=True)
class ScenarioSpec:
    """One serving scenario, end to end.

    A pure-data description: everything downstream — the simulation config,
    the serving stack, the trace, the arrival instants, the report — is a
    deterministic function of this spec (and nothing else), which is what
    makes sweeps reproducible and specs checkable into version control.
    """

    name: str = "scenario"
    model: str = "efficientnet_v2_small"
    seed: int = 7
    #: Training rounds ingested before serving.
    num_rounds: int = 12
    #: Sojourn-time SLO as a multiple of the calibrated mean service time;
    #: 0 disables the SLO (no violation accounting).
    slo_multiplier: float = 3.0
    #: Calibrated mean service time override.  ``None`` (the default) means
    #: "calibrate from the spec's own workload mix"; sweeps pin it once per
    #: grid so every cell shares one calibration (and one SLO).
    mean_service_seconds: float | None = None
    #: Metric pipeline: ``"full"`` retains per-request rows (exact
    #: percentiles, byte-identical to pre-knob reports); ``"streaming"``
    #: folds outcomes into accumulators whose size does not grow with the
    #: request count — required for million-request scale, approximate only
    #: in the percentile columns.  The stores still keep their model state
    #: per served request (persisted results, tracked request ids): about
    #: 584 B a request on ``sharded-burst`` (see ``repro.engine.streaming``).
    metrics: str = "full"
    workload: WorkloadMixSpec = field(default_factory=WorkloadMixSpec)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    tier: TierSpec = field(default_factory=TierSpec)
    #: Fault clauses scheduled on the run's virtual timeline (empty = healthy).
    faults: tuple[FaultSpec, ...] = ()
    #: Tenants sharing the tier.  Empty (the default) is the single-tenant
    #: scenario: the trace comes from ``workload``/``arrival`` exactly as
    #: before.  Non-empty *replaces* them: the offered stream is the
    #: time-merge of every tenant's own trace and arrival process, tagged
    #: with ``tenant_id``, with per-tenant SLOs, weights, and report rows.
    tenants: tuple[TenantSpec, ...] = ()
    #: The closed-loop remediation controller guarding the tier.
    remediation: RemediationSpec = field(default_factory=RemediationSpec)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            _fail(f"ScenarioSpec.name must be a non-empty string, got {self.name!r}")
        if self.model not in MODEL_ZOO:
            _fail(f"unknown model {self.model!r}; known models: {sorted(MODEL_ZOO)}")
        _coerce_int(self, "seed")
        _coerce_int(self, "num_rounds", minimum=1)
        for spec_name, spec_type in (
            ("workload", WorkloadMixSpec),
            ("arrival", ArrivalSpec),
            ("tier", TierSpec),
        ):
            if not isinstance(getattr(self, spec_name), spec_type):
                _fail(
                    f"ScenarioSpec.{spec_name} must be a {spec_type.__name__}, "
                    f"got {getattr(self, spec_name)!r}"
                )
        _coerce_float(self, "slo_multiplier", minimum=0.0)
        if self.mean_service_seconds is not None:
            _coerce_float(self, "mean_service_seconds", minimum=0.0, exclusive=True)
        _check_choice(self, "metrics", METRICS_MODES)
        object.__setattr__(self, "faults", tuple(self.faults))
        shards_crashed = 0
        for index, clause in enumerate(self.faults):
            if not isinstance(clause, FaultSpec):
                _fail(f"ScenarioSpec.faults[{index}] must be a FaultSpec, got {clause!r}")
            if clause.kind == "shard-crash":
                if not self.tier.sharded or self.tier.shards < 2:
                    _fail(
                        "a shard-crash fault needs a sharded tier with at least 2 "
                        "shards (the last shard can never be crashed); set "
                        "tier.router_kind and tier.shards >= 2"
                    )
                shards_crashed += clause.shards_crashed
        # Crashes are permanent, so the clauses' counts add up over the run.
        if shards_crashed > self.tier.shards - 1:
            _fail(
                f"the shard-crash clauses crash {shards_crashed} shards in total on "
                f"a {self.tier.shards}-shard tier, which would crash the last shard; "
                "at least one shard must survive"
            )
        if self.faults and self.metrics == "streaming":
            _fail(
                'metrics="streaming" cannot score fault recovery: time to recovery '
                "and the goodput dip are measured from per-request rows, which a "
                'streaming run does not keep; use metrics="full" on a faulted spec'
            )
        object.__setattr__(self, "tenants", tuple(self.tenants))
        seen_tenants: set[str] = set()
        for index, tenant in enumerate(self.tenants):
            if not isinstance(tenant, TenantSpec):
                _fail(f"ScenarioSpec.tenants[{index}] must be a TenantSpec, got {tenant!r}")
            if tenant.name in seen_tenants:
                _fail(f"duplicate tenant name {tenant.name!r}; tenant names must be unique")
            seen_tenants.add(tenant.name)
        if not isinstance(self.remediation, RemediationSpec):
            _fail(
                f"ScenarioSpec.remediation must be a RemediationSpec, "
                f"got {self.remediation!r}"
            )
        if self.remediation.enabled:
            if not self.tier.sharded:
                _fail(
                    "a remediated tier must be sharded (the controller actuates "
                    f"the routing front door); set tier.router_kind (one of {ROUTER_KINDS})"
                )
            if self.tier.autoscaler.enabled:
                _fail(
                    "remediation and autoscaling cannot both drive the tier: "
                    "two control loops actuating the same shard ring would fight; "
                    "disable tier.autoscaler or remediation"
                )

    # ------------------------------------------------------------- dict form

    def to_dict(self) -> dict:
        """The spec as a plain nested dict (JSON/TOML-ready, in field order)."""
        return _to_tree(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build (and fully validate) a spec from its dict form.

        Missing keys take their defaults — a TOML file may omit ``null``
        fields entirely — but *unknown* keys at any level raise
        :class:`ScenarioValidationError`, so a misspelt knob in a checked-in
        spec fails loudly instead of silently running the default.
        """
        return _from_tree(cls, data)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied (see :func:`apply_overrides`)."""
        return apply_overrides(self, overrides)

    # ----------------------------------------------------- content addressing

    def canonical_json(self) -> str:
        """The spec's canonical serialization: minified, key-sorted JSON.

        The single byte form behind :meth:`content_hash`.  Canonicalization
        makes the hash independent of *representation* — dict key order,
        JSON vs TOML file form, whitespace — while every *semantic* knob
        (any field ``to_dict`` serializes) changes the bytes.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """SHA-256 of :meth:`canonical_json` — the spec's content address.

        Two specs hash equal iff their validated dict forms are equal: a
        spec round-tripped through TOML, rebuilt from a key-shuffled dict,
        or run through a no-op ``--set`` override keeps its hash, and any
        change to a semantic knob changes it.  The run manifest
        (:mod:`repro.fleet.manifest`) keys recorded artifacts on this hash,
        so an edited scenario marks exactly its own cells stale.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------- file form

    def to_json(self, indent: int = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioValidationError(f"invalid JSON scenario spec: {exc}") from exc
        if not isinstance(data, dict):
            _fail(f"a scenario spec must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """The spec as a TOML document (``None`` fields are omitted)."""
        return _dump_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a TOML document."""
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioValidationError(f"invalid TOML scenario spec: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        """Write the spec to ``path`` (format chosen by the file suffix)."""
        path = Path(path)
        if path.suffix == ".toml":
            text = self.to_toml()
        elif path.suffix == ".json":
            text = self.to_json()
        else:
            _fail(f"scenario spec files must end in .json or .toml, got {path.name!r}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Read a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        if not path.exists():
            _fail(f"scenario spec file {path} does not exist")
        if path.suffix == ".toml":
            return cls.from_toml(path.read_text())
        if path.suffix == ".json":
            return cls.from_json(path.read_text())
        _fail(f"scenario spec files must end in .json or .toml, got {path.name!r}")
        raise AssertionError("unreachable")


@functools.cache
def field_types(record_type: type) -> dict[str, Any]:
    """A dataclass's fields, in declaration order, with their resolved types.

    The record dataclasses are their serialized forms' only schema: the
    spec's dict form (:func:`_to_tree`, :func:`_from_tree`) and the run
    report's (:class:`~repro.scenario.build.RunReport`) walk this table, so
    a new field is serialized, content-hashed, and reachable by ``--set``
    without further wiring.  Cached per class: resolving the hints is the
    costly step.
    """
    hints = get_type_hints(record_type)
    return {f.name: hints[f.name] for f in fields(record_type)}


def _to_tree(spec: Any) -> dict:
    """A spec dataclass as a nested dict: a spec-typed field becomes a nested
    table, a tuple of specs a list of tables, any other tuple a list."""
    tree = {}
    for name in field_types(type(spec)):
        value = getattr(spec, name)
        if is_dataclass(value):
            value = _to_tree(value)
        elif isinstance(value, tuple):
            value = [_to_tree(item) if is_dataclass(item) else item for item in value]
        tree[name] = value
    return tree


def _from_tree(spec_type: type, data: Any, path: str = "") -> Any:
    """Build spec dataclass ``spec_type`` from its dict form (the inverse of
    :func:`_to_tree`), rejecting unknown keys at every level."""
    label = path or "scenario"
    if not isinstance(data, Mapping):
        _fail(f"{label} must be a table/object, got {data!r}")
    types = field_types(spec_type)
    unknown = sorted(set(data) - set(types))
    if unknown:
        _fail(f"unknown {label} keys {unknown}; known keys: {sorted(types)}")
    kwargs = {}
    for name, value in data.items():
        kind = types[name]
        child = f"{path}.{name}" if path else name
        item_type = get_args(kind)[0] if get_origin(kind) is tuple else None
        if is_dataclass(kind):
            value = _from_tree(kind, value, child)
        elif is_dataclass(item_type):
            if isinstance(value, Mapping) or not isinstance(value, Sequence):
                _fail(f"{child} must be an array of tables/objects, got {value!r}")
            value = tuple(
                _from_tree(item_type, item, f"{child}[{index}]")
                for index, item in enumerate(value)
            )
        kwargs[name] = value
    return spec_type(**kwargs)


# ---------------------------------------------------------------------------
# Dotted-path overrides (the `--set tier.shards=4` surface)
# ---------------------------------------------------------------------------


def coerce_override(value: Any, current: Any, key: str) -> Any:
    """Coerce a CLI string override toward the type of the value it replaces.

    Non-string values (programmatic overrides, sweep axis values) pass
    through untouched; validation happens when the spec rebuilds.  Strings
    are interpreted: ``null`` clears optional fields (``none`` too, except
    on string-valued fields, where ``"none"`` is a legal knob value — the
    autoscaler policy), ``true``/``false`` are booleans, numbers parse by
    the current field's type (int stays int), and comma lists split for
    tuple-valued fields.
    """
    if not isinstance(value, str):
        return value
    text = value.strip()
    if text.lower() == "null" or (text.lower() == "none" and not isinstance(current, str)):
        return None
    if isinstance(current, bool):
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        _fail(f"override {key}={value!r} is not a boolean")
    if isinstance(current, list):
        return [item.strip() for item in text.split(",") if item.strip()]
    if isinstance(current, bool) is False and isinstance(current, int):
        try:
            return int(text)
        except ValueError:
            _fail(f"override {key}={value!r} is not an integer")
    if isinstance(current, float):
        try:
            return float(text)
        except ValueError:
            _fail(f"override {key}={value!r} is not a number")
    if current is None:
        # No type to steer by (router_kind, rate_rps, ...): numbers parse as
        # numbers, anything else stays a string and is validated downstream.
        for parse in (int, float):
            try:
                return parse(text)
            except ValueError:
                continue
    return text


def _descend(node: Any, part: str) -> Any:
    """One dotted-path step: a dict key, or an element of a table array.

    Table-array elements (``tenants``, ``faults``) are addressed by their
    ``name`` field when they have one (``tenants.bursty.weight``) or by
    zero-based position (``faults.0.magnitude``).
    """
    if isinstance(node, dict):
        return node.get(part)
    if isinstance(node, list):
        for item in node:
            if isinstance(item, dict) and item.get("name") == part:
                return item
        try:
            index = int(part)
        except ValueError:
            return None
        if 0 <= index < len(node):
            return node[index]
    return None


def _resolve_leaf(tree: dict, key: str) -> tuple[dict, str]:
    """Resolve a dotted path to its ``(parent dict, leaf key)`` in ``tree``.

    The single definition of what a settable spec field *is*: unknown paths
    and non-leaf (section) paths raise :class:`ScenarioValidationError`.
    Paths may traverse table arrays by element name or index
    (``tenants.bursty.weight``, ``tenants.0.weight``).  Shared by
    :func:`apply_overrides` and the CLI's ``--set``/``--sweep`` surfaces so
    the two can never diverge.
    """
    parts = key.split(".")
    node: Any = tree
    for part in parts[:-1]:
        child = _descend(node, part)
        if not isinstance(child, (dict, list)):
            _fail(f"unknown scenario field {key!r}")
        node = child
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node or isinstance(node[leaf], dict):
        _fail(f"unknown scenario field {key!r}")
    return node, leaf


def field_value(spec: ScenarioSpec, key: str) -> Any:
    """The current value of one dotted spec field (unknown paths raise)."""
    node, leaf = _resolve_leaf(spec.to_dict(), key)
    return node[leaf]


def apply_overrides(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild ``spec`` with dotted-path overrides applied.

    Keys are dotted paths into the spec's dict form
    (``tier.admission.max_queue_depth``); unknown paths raise
    :class:`ScenarioValidationError`.  The returned spec is re-validated
    from scratch, so an override can never smuggle in an invalid knob.
    """
    tree = spec.to_dict()
    for key, value in overrides.items():
        node, leaf = _resolve_leaf(tree, key)
        node[leaf] = coerce_override(value, node[leaf], key)
    return ScenarioSpec.from_dict(tree)


# ---------------------------------------------------------------------------
# Minimal TOML emission (tomllib reads; nothing in the stdlib writes)
# ---------------------------------------------------------------------------


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # valid TOML basic string
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(item) for item in value) + "]"
    raise ScenarioValidationError(f"cannot express {value!r} in a TOML scenario spec")


def _dump_toml(tree: Mapping[str, Any], prefix: str = "") -> str:
    """Emit the spec's nested-dict form as TOML; ``None`` values are omitted
    (TOML has no null — ``from_dict`` restores the field's default).

    Lists of tables (the ``faults`` clause list) emit as TOML
    arrays-of-tables (``[[faults]]`` per element); an empty list is dropped
    entirely, since ``from_dict`` defaults it and TOML's ``key = []`` form
    could not be reopened as a table array anyway.
    """
    scalars = []
    tables = []
    table_arrays = []
    for key, value in tree.items():
        if value is None:
            continue
        if isinstance(value, Mapping):
            tables.append((key, value))
        elif (
            isinstance(value, Sequence)
            and not isinstance(value, str)
            and any(isinstance(item, Mapping) for item in value)
        ):
            if not all(isinstance(item, Mapping) for item in value):
                raise ScenarioValidationError(
                    f"cannot express mixed table/scalar array {key!r} in TOML"
                )
            table_arrays.append((key, value))
        elif isinstance(value, Sequence) and not isinstance(value, str) and not value:
            continue
        else:
            scalars.append(f"{key} = {_toml_scalar(value)}")
    chunks = []
    if scalars:
        header = f"[{prefix}]\n" if prefix else ""
        chunks.append(header + "\n".join(scalars) + "\n")
    for key, value in tables:
        child_prefix = f"{prefix}.{key}" if prefix else key
        child = _dump_toml(value, prefix=child_prefix)
        if child:
            chunks.append(child)
    for key, items in table_arrays:
        child_prefix = f"{prefix}.{key}" if prefix else key
        for item in items:
            lines = [f"[[{child_prefix}]]"]
            for item_key, item_value in item.items():
                if item_value is None:
                    continue
                if isinstance(item_value, Mapping):
                    raise ScenarioValidationError(
                        f"cannot express nested table inside array {key!r} in TOML"
                    )
                lines.append(f"{item_key} = {_toml_scalar(item_value)}")
            chunks.append("\n".join(lines) + "\n")
    return "\n".join(chunks)
