"""Autoscaling warm capacity on the sharded serving tier.

The discrete-event engine gives the simulator a virtual timeline; this
module closes the control loop on top of it.  An :class:`Autoscaler` runs as
a recurring scheduled event on the tier's event loop: every control interval
it samples per-tier control signals (:class:`ControlSignals` — queue depth,
an arrival-rate EWMA, shed/requeue/degrade counter deltas from the admission
layer), asks its :class:`AutoscalerPolicy` for a :class:`ScaleDecision`, and
actuates the decision on the :class:`~repro.engine.sharded.ShardedEngineFLStore`:

* **within a shard** — spawn or retire warm instances behind each logical
  function (``set_function_concurrency``), which immediately grants freed
  slots to queued waiters;
* **across shards** — add or remove whole shards through the front door
  (``add_shard`` / ``remove_shard``); consistent hashing bounds the key
  remap, and a new shard joins with a cold cache whose warmup transient is
  paid by the traffic routed to it.

Capacity is measured in **units** — one execution slot on one active shard
(``slots_per_function x active_shards``).  Policies return a target in
units; the driver factors it into (shards, slots) deterministically, applies
at most one shard change per tick (provisioning is gradual), and integrates
the provisioned warm capacity over virtual time into a warm-capacity cost
(GB-seconds x the provisioned-concurrency price), so policies can be
compared at equal cost.

Three policies ship:

* :class:`NullAutoscaler` — never scales; a tier under it is byte-identical
  to one with no autoscaler attached (pinned in ``tests/test_autoscale.py``),
  and its cost integral is the fixed-capacity baseline.
* :class:`ReactiveThresholdAutoscaler` — classic step scaling on the queue
  backlog per slot, with hysteresis (distinct high/low watermarks) and a
  cooldown between actions.  It only reacts *after* queues build, so it lags
  a ramping arrival process by at least one cooldown.
* :class:`PredictiveAutoscaler` — a Holt (level + trend) double-exponential
  forecast of the arrival rate, scaled ``forecast_lead_seconds`` ahead and
  converted to capacity through the calibrated mean service time; on a
  diurnal process it provisions ahead of the peak and releases capacity on
  the downslope.

Declaratively, an autoscaler is attached through a scenario spec
(:mod:`repro.scenario`): ``tier.autoscaler.enabled`` plus a policy name
validated at spec build time — ``build_tier`` constructs the resizable tier,
the policy from one ``AutoscaleConfig``, and this driver, which ticks by the
policy's config, so there is no second control interval to drift apart.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class AutoscaleConfig:
    """Tunables of the autoscaling control loop."""

    #: Virtual-time spacing of control ticks (signal sampling + decisions).
    control_interval_seconds: float = 5.0
    #: Bounds on the shard count the driver will actuate.
    min_shards: int = 1
    max_shards: int = 8
    #: Bounds on per-function slots (warm instances behind each function).
    min_slots_per_function: int = 1
    max_slots_per_function: int = 4
    #: Reactive policy: minimum virtual time between two scale-up actions
    #: (kept short — under-capacity sheds traffic) and between two
    #: scale-down actions (kept long — releasing capacity too eagerly means
    #: paying the warmup transient again at the next ramp).
    scale_up_cooldown_seconds: float = 10.0
    scale_down_cooldown_seconds: float = 30.0
    #: Reactive policy: queue backlog per capacity unit that triggers a
    #: scale-up (high) or permits a scale-down (low) — the gap is the
    #: hysteresis band.
    high_backlog_per_unit: float = 1.0
    low_backlog_per_unit: float = 0.25
    #: Weight of the most recent arrival-rate sample — used both for the
    #: ``ControlSignals.arrival_rate_ewma`` signal the driver publishes and
    #: as the Holt *level* weight of the predictive policy (one smoothing
    #: constant, two consumers).
    ewma_alpha: float = 0.4
    #: Predictive policy: Holt trend weight.
    trend_beta: float = 0.3
    #: Predictive policy: how far ahead the forecast scales (covers the
    #: provisioning/warmup transient of the capacity it requests).
    forecast_lead_seconds: float = 10.0
    #: Predictive policy: utilization the forecast capacity targets
    #: (headroom = 1/target_utilization).
    target_utilization: float = 0.95
    #: SLO policy: the per-window violation rate (aggregate or worst tenant)
    #: above which capacity is added.
    slo_violation_target: float = 0.05

    def __post_init__(self) -> None:
        if self.control_interval_seconds <= 0:
            raise ConfigurationError("control_interval_seconds must be positive")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ConfigurationError("need 1 <= min_shards <= max_shards")
        if not 1 <= self.min_slots_per_function <= self.max_slots_per_function:
            raise ConfigurationError("need 1 <= min_slots_per_function <= max_slots_per_function")
        if self.scale_up_cooldown_seconds < 0 or self.scale_down_cooldown_seconds < 0:
            raise ConfigurationError("cooldown seconds must be >= 0")
        if not self.low_backlog_per_unit < self.high_backlog_per_unit:
            raise ConfigurationError("hysteresis needs low_backlog_per_unit < high watermark")
        if not 0 < self.ewma_alpha <= 1 or not 0 < self.trend_beta <= 1:
            raise ConfigurationError("ewma_alpha and trend_beta must be in (0, 1]")
        if not 0 < self.target_utilization <= 1:
            raise ConfigurationError("target_utilization must be in (0, 1]")
        if not 0 <= self.slo_violation_target < 1:
            raise ConfigurationError("slo_violation_target must be in [0, 1)")

    @property
    def min_capacity_units(self) -> int:
        """Smallest capacity (units) the driver will scale down to."""
        return self.min_shards * self.min_slots_per_function

    @property
    def max_capacity_units(self) -> int:
        """Largest capacity (units) the driver will scale up to."""
        return self.max_shards * self.max_slots_per_function


@dataclass(frozen=True, slots=True)
class ControlSignals:
    """One control tick's sampled view of the serving tier."""

    now: float
    #: Requests queued for an execution slot across the active shards.
    queue_depth: int
    #: Arrivals per second over the last control interval (raw sample).
    arrival_rate: float
    #: EWMA-smoothed arrival rate (``AutoscaleConfig.ewma_alpha``).
    arrival_rate_ewma: float
    #: Admission-layer counter deltas since the previous tick.
    shed_delta: int
    degraded_delta: int
    requeued_delta: int
    active_shards: int
    slots_per_function: int
    #: ``slots_per_function x active_shards`` — the policies' capacity scale.
    capacity_units: int
    #: Requests in flight at the front door (queued + executing + scheduled).
    inflight: int
    #: SLO accounting deltas since the previous tick, from the shards'
    #: per-flow tally (``flow_tally``): finishes, and those over their flow's
    #: SLO (the tenant's own, or the tier's ``slo_seconds`` for untagged
    #: requests; a flow without an SLO never violates).
    slo_violation_delta: int = 0
    finished_delta: int = 0
    #: Worst per-tenant violation rate over the last window (0.0 on
    #: tenant-free tiers).
    max_tenant_violation_rate: float = 0.0

    @property
    def violation_rate(self) -> float:
        """SLO violations per finished request over the window (0.0 if none)."""
        return self.slo_violation_delta / self.finished_delta if self.finished_delta else 0.0


class ControlSampler:
    """Per-tick :class:`ControlSignals` of one tier, for one control loop.

    Both control loops — the :class:`Autoscaler` and the remediation
    controller (:mod:`repro.engine.remediate`) — read the front door the same
    way.  Construction snapshots the tier's lifetime counters and per-flow
    tally; each :meth:`sample` call returns the signals whose deltas cover
    the interval since the previous call (or since construction).
    ``interval_seconds`` turns the arrival delta into a rate, and
    ``ewma_alpha`` smooths it into ``arrival_rate_ewma``.
    """

    def __init__(self, tier, interval_seconds: float, ewma_alpha: float = 0.4) -> None:
        self.tier = tier
        self.interval_seconds = interval_seconds
        self.ewma_alpha = ewma_alpha
        self._rate_ewma = 0.0
        self._seen_arrivals = tier.arrived_requests
        self._seen_shed = tier.shed_requests
        self._seen_degraded = tier.degraded_requests
        self._seen_requeued = tier.requeued_requests
        self._seen_tally = tier.flow_tally()

    def sample(self) -> ControlSignals:
        """The signals of the interval since the previous sample."""
        tier = self.tier
        arrivals = tier.arrived_requests
        rate = (arrivals - self._seen_arrivals) / self.interval_seconds
        self._seen_arrivals = arrivals
        alpha = self.ewma_alpha
        self._rate_ewma = alpha * rate + (1 - alpha) * self._rate_ewma
        shed = tier.shed_requests
        degraded = tier.degraded_requests
        requeued = tier.requeued_requests
        # Per-flow *window* deltas: their sums are the aggregate signals, and
        # the worst tenant's rate drives the "slo" policy, so one
        # noisy-neighbour victim is enough to trigger a scale-up even when
        # the aggregate rate looks healthy.
        tally = tier.flow_tally()
        finished_delta = violation_delta = 0
        max_tenant_rate = 0.0
        for flow, (finished, violations) in tally.items():
            seen_finished, seen_violations = self._seen_tally.get(flow, (0, 0))
            flow_finished = finished - seen_finished
            flow_violations = violations - seen_violations
            finished_delta += flow_finished
            violation_delta += flow_violations
            if flow is not None and flow_finished > 0:
                max_tenant_rate = max(max_tenant_rate, flow_violations / flow_finished)
        signals = ControlSignals(
            now=tier.loop.now,
            queue_depth=tier.waiting_requests,
            arrival_rate=rate,
            arrival_rate_ewma=self._rate_ewma,
            shed_delta=shed - self._seen_shed,
            degraded_delta=degraded - self._seen_degraded,
            requeued_delta=requeued - self._seen_requeued,
            active_shards=tier.num_shards,
            slots_per_function=tier.slots_per_function,
            capacity_units=tier.capacity_units,
            inflight=tier.inflight,
            slo_violation_delta=violation_delta,
            finished_delta=finished_delta,
            max_tenant_violation_rate=max_tenant_rate,
        )
        self._seen_shed, self._seen_degraded, self._seen_requeued = shed, degraded, requeued
        self._seen_tally = tally
        return signals


@dataclass(frozen=True, slots=True)
class ScaleDecision:
    """A policy's verdict for one control tick.

    ``target_capacity_units`` of ``None`` means hold; otherwise the driver
    factors the target into (shards, per-function slots) and actuates the
    difference.
    """

    target_capacity_units: int | None = None
    reason: str = ""

    @property
    def is_hold(self) -> bool:
        """Whether this decision leaves capacity unchanged."""
        return self.target_capacity_units is None


#: The no-op decision (shared instance; decisions are immutable).
HOLD = ScaleDecision()


class AutoscalerPolicy(abc.ABC):
    """Maps sampled control signals to scale decisions.

    ``config`` is the control loop's one :class:`AutoscaleConfig`: the
    :class:`Autoscaler` driving the policy ticks at its
    ``control_interval_seconds`` and actuates within its bounds.
    """

    #: Machine-friendly identifier (CLI, report labels, sweep rows).
    name: str = "autoscaler"

    def __init__(self, config: AutoscaleConfig | None = None) -> None:
        self.config = config or AutoscaleConfig()

    @abc.abstractmethod
    def decide(self, signals: ControlSignals) -> ScaleDecision:
        """The scale decision for one control tick."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class NullAutoscaler(AutoscalerPolicy):
    """Never scales: the fixed-capacity baseline.

    A tier driven by this policy is byte-identical to one with no autoscaler
    attached — the control loop samples but mutates nothing — which is the
    pinned guarantee that autoscaling is purely additive.
    """

    name = "none"

    def decide(self, signals: ControlSignals) -> ScaleDecision:
        return HOLD


def _cooling_down(last_at: float | None, cooldown: float, now: float) -> bool:
    """Whether an action taken at ``last_at`` still blocks another at ``now``."""
    return last_at is not None and now - last_at < cooldown


class ReactiveThresholdAutoscaler(AutoscalerPolicy):
    """Threshold scaling on queue backlog, with hysteresis and cooldowns.

    Scales up when the backlog per capacity unit crosses the high watermark
    or the admission layer shed anything since the last tick — by one unit,
    plus one per two requests shed, so sustained overload closes the gap in
    a few ticks rather than one unit at a time.  Scales down one unit when
    the backlog sits below the low watermark.  The watermark gap
    (hysteresis) and the asymmetric cooldowns (short up, long down) prevent
    flapping, but the policy still trails a ramp by construction: it only
    moves *after* the queue has built or requests were already shed.
    """

    name = "reactive"

    def __init__(self, config: AutoscaleConfig | None = None) -> None:
        super().__init__(config)
        self._last_scale_up_at: float | None = None
        self._last_scale_down_at: float | None = None

    def decide(self, signals: ControlSignals) -> ScaleDecision:
        config = self.config
        backlog_per_unit = signals.queue_depth / max(signals.capacity_units, 1)
        if backlog_per_unit > config.high_backlog_per_unit or signals.shed_delta > 0:
            if signals.capacity_units >= config.max_capacity_units or _cooling_down(
                self._last_scale_up_at, config.scale_up_cooldown_seconds, signals.now
            ):
                return HOLD
            step = 1 + signals.shed_delta // 2
            self._last_scale_up_at = signals.now
            return ScaleDecision(
                signals.capacity_units + step,
                reason=f"backlog {backlog_per_unit:.2f}/unit, shed {signals.shed_delta}",
            )
        if backlog_per_unit < config.low_backlog_per_unit:
            if signals.capacity_units <= config.min_capacity_units or _cooling_down(
                self._last_scale_down_at, config.scale_down_cooldown_seconds, signals.now
            ):
                return HOLD
            self._last_scale_down_at = signals.now
            return ScaleDecision(
                signals.capacity_units - 1,
                reason=f"backlog {backlog_per_unit:.2f}/unit below low watermark",
            )
        return HOLD


class PredictiveAutoscaler(AutoscalerPolicy):
    """Holt (level + trend) forecast of the arrival rate, scaled ahead.

    Each tick updates a double-exponential smoothing of the sampled arrival
    rate and extrapolates it ``forecast_lead_seconds`` into the future; the
    forecast converts to capacity units through the calibrated mean service
    time and the target utilization (Little's law:
    ``units = rate x E[S] / utilization``).  On a diurnal process the trend
    term sees the ramp coming, so capacity is provisioned *before* the peak
    arrives and released as the trend turns negative.
    """

    name = "predictive"

    def __init__(self, mean_service_seconds: float, config: AutoscaleConfig | None = None) -> None:
        if mean_service_seconds <= 0:
            raise ConfigurationError("mean_service_seconds must be positive")
        super().__init__(config)
        self.mean_service_seconds = float(mean_service_seconds)
        self._level: float | None = None
        self._trend = 0.0

    @property
    def forecast_rate(self) -> float:
        """The current arrival-rate forecast at the configured lead (rps)."""
        if self._level is None:
            return 0.0
        steps_ahead = self.config.forecast_lead_seconds / self.config.control_interval_seconds
        return max(self._level + self._trend * steps_ahead, 0.0)

    def decide(self, signals: ControlSignals) -> ScaleDecision:
        config = self.config
        rate = signals.arrival_rate
        if self._level is None:
            self._level = rate
        else:
            previous_level = self._level
            alpha, beta = config.ewma_alpha, config.trend_beta
            self._level = alpha * rate + (1 - alpha) * (previous_level + self._trend)
            self._trend = beta * (self._level - previous_level) + (1 - beta) * self._trend
        needed = self.forecast_rate * self.mean_service_seconds / config.target_utilization
        target = max(math.ceil(needed), config.min_capacity_units)
        target = min(target, config.max_capacity_units)
        if target == signals.capacity_units:
            return HOLD
        return ScaleDecision(
            target,
            reason=f"forecast {self.forecast_rate:.3f} rps -> {target} units",
        )


class SLOViolationAutoscaler(AutoscalerPolicy):
    """Scale on observed SLO violations rather than backlog proxies.

    Each tick compares the *window* violation rate — aggregate finishes, and
    the worst single tenant's, so one suffering tenant is enough to act —
    against ``slo_violation_target``; crossing it (or shedding anything)
    scales up one unit plus one per two violations over target, and a clean
    window with an idle queue releases one unit.  The same cooldown and
    hysteresis structure as the reactive policy prevents flapping, but the
    trigger is the contract itself: a tier can run deep queues without
    scaling as long as every tenant's sojourns stay inside its SLO.
    """

    name = "slo"

    def __init__(self, config: AutoscaleConfig | None = None) -> None:
        super().__init__(config)
        self._last_scale_up_at: float | None = None
        self._last_scale_down_at: float | None = None

    def decide(self, signals: ControlSignals) -> ScaleDecision:
        config = self.config
        pressure = max(signals.violation_rate, signals.max_tenant_violation_rate)
        if pressure > config.slo_violation_target or signals.shed_delta > 0:
            if signals.capacity_units >= config.max_capacity_units or _cooling_down(
                self._last_scale_up_at, config.scale_up_cooldown_seconds, signals.now
            ):
                return HOLD
            over_target = max(
                signals.slo_violation_delta
                - int(config.slo_violation_target * signals.finished_delta),
                0,
            )
            step = 1 + over_target // 2
            self._last_scale_up_at = signals.now
            return ScaleDecision(
                signals.capacity_units + step,
                reason=(
                    f"violation rate {pressure:.2f} over target "
                    f"{config.slo_violation_target:.2f}, shed {signals.shed_delta}"
                ),
            )
        backlog_per_unit = signals.queue_depth / max(signals.capacity_units, 1)
        if pressure == 0.0 and backlog_per_unit < config.low_backlog_per_unit:
            if signals.capacity_units <= config.min_capacity_units or _cooling_down(
                self._last_scale_down_at, config.scale_down_cooldown_seconds, signals.now
            ):
                return HOLD
            self._last_scale_down_at = signals.now
            return ScaleDecision(
                signals.capacity_units - 1,
                reason="clean SLO window with idle queue",
            )
        return HOLD


#: Policy names understood by :func:`make_autoscaler_policy` (and the CLI).
AUTOSCALER_KINDS: tuple[str, ...] = ("none", "reactive", "predictive", "slo")


def make_autoscaler_policy(
    kind: str,
    config: AutoscaleConfig | None = None,
    mean_service_seconds: float = 1.0,
) -> AutoscalerPolicy:
    """Build the autoscaling policy called ``kind``.

    ``mean_service_seconds`` calibrates the predictive policy's capacity
    conversion (ignored by the others).
    """
    if kind == "none":
        return NullAutoscaler(config)
    if kind == "reactive":
        return ReactiveThresholdAutoscaler(config)
    if kind == "predictive":
        return PredictiveAutoscaler(mean_service_seconds, config)
    if kind == "slo":
        return SLOViolationAutoscaler(config)
    raise ValueError(f"unknown autoscaler policy {kind!r}; expected one of {AUTOSCALER_KINDS}")


@dataclass(frozen=True, slots=True)
class ScaleEvent:
    """One actuated capacity change on the tier's virtual timeline."""

    time: float
    action: str  # "slots-up" | "slots-down" | "shard-added" | "shard-removed"
    reason: str
    shards: int
    slots_per_function: int
    capacity_units: int
    #: Replica copies warmed by scheduled events so far (hot-key replication
    #: tiers only; 0 otherwise).  A ``shard-added`` event on a replicated
    #: tier is a *warm* join — the delta between consecutive events shows
    #: how much of the join was seeded from replicas rather than served cold.
    replica_warm_events: int = 0


@dataclass
class AutoscaleSummary:
    """Aggregate accounting of one autoscaled run (one policy, one process)."""

    policy: str
    scale_events: int
    shard_adds: int
    shard_removes: int
    slot_changes: int
    final_shards: int
    final_slots_per_function: int
    peak_capacity_units: int
    capacity_unit_seconds: float
    provisioned_gb_seconds: float
    warm_capacity_cost_dollars: float
    #: Replica copies warmed over the run (hot-key replication tiers only).
    replica_warm_events: int = 0
    events: list[ScaleEvent] = field(default_factory=list, repr=False)

    def row(self) -> dict:
        """The scalar columns of this summary (for tables and JSON export)."""
        return {
            "autoscaler": self.policy,
            "scale_events": self.scale_events,
            "shard_adds": self.shard_adds,
            "shard_removes": self.shard_removes,
            "slot_changes": self.slot_changes,
            "final_shards": self.final_shards,
            "final_slots": self.final_slots_per_function,
            "peak_capacity_units": self.peak_capacity_units,
            "capacity_unit_seconds": self.capacity_unit_seconds,
            "warm_capacity_cost_dollars": self.warm_capacity_cost_dollars,
        }


class Autoscaler:
    """The control-loop driver: samples, decides, actuates, accounts.

    Attach one to a :class:`~repro.engine.sharded.ShardedEngineFLStore` run
    (``run_open_loop(..., autoscaler=...)``).  The driver schedules itself
    as a recurring event every ``control_interval_seconds`` of virtual time
    while requests are in flight; each tick it

    1. integrates the warm-capacity cost since the previous tick — exact
       for ``capacity_units`` (units only change at ticks); the GB integral
       is right-endpoint sampled at tick granularity, since a shard's warm
       fleet also grows *between* ticks as traffic warms it (the same
       estimator is applied to every policy, so cost comparisons are fair),
    2. samples :class:`ControlSignals` through its :class:`ControlSampler`,
    3. asks the policy for a decision and actuates it — per-function slots
       apply in full, shard count moves at most one per tick.
    """

    def __init__(self, tier, policy: AutoscalerPolicy) -> None:
        self.tier = tier
        self.policy = policy
        #: The policy's config: the predictive policy converts its per-tick
        #: trend to a forecast through its control interval, so the driver
        #: ticks at that interval and no other.
        self.config = policy.config
        self.events: list[ScaleEvent] = []
        self.ticks = 0
        self.capacity_unit_seconds = 0.0
        self.provisioned_gb_seconds = 0.0
        self.peak_capacity_units = tier.capacity_units
        self._last_accrual_at: float | None = None
        self._sampler: ControlSampler | None = None

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Begin the control loop (called by ``run_open_loop`` after submit)."""
        if self._sampler is not None:
            raise RuntimeError("an Autoscaler instance drives exactly one run")
        self._last_accrual_at = self.tier.loop.now
        self._sampler = ControlSampler(
            self.tier, self.config.control_interval_seconds, self.config.ewma_alpha
        )
        self.tier.loop.schedule(self.config.control_interval_seconds, self._tick)

    def finalize(self) -> None:
        """Close the capacity integral at the end of the run."""
        self._accrue()

    # ---------------------------------------------------------- the control tick

    def _tick(self) -> None:
        self._accrue()
        self.ticks += 1
        signals = self._sampler.sample()
        decision = self.policy.decide(signals)
        if not decision.is_hold:
            self._apply(decision, signals)
        if self.tier.inflight > 0:
            self.tier.loop.schedule(self.config.control_interval_seconds, self._tick)

    def _accrue(self) -> None:
        """Integrate warm capacity over the interval since the last accrual.

        ``capacity_units`` is piecewise-constant between ticks, so its
        integral is exact; ``provisioned_gb`` also moves with organic
        warm-fleet growth between ticks, so its integral is a right-endpoint
        step approximation at tick granularity.
        """
        now = self.tier.loop.now
        if self._last_accrual_at is None:
            self._last_accrual_at = now
            return
        elapsed = now - self._last_accrual_at
        if elapsed > 0:
            self.capacity_unit_seconds += self.tier.capacity_units * elapsed
            self.provisioned_gb_seconds += self.tier.provisioned_gb * elapsed
        self._last_accrual_at = now

    # ------------------------------------------------------------- actuation

    def _factor_target(
        self, target_units: int, current_shards: int, current_slots: int
    ) -> tuple[int, int]:
        """Deterministically factor a unit target into (shards, slots).

        Slots fill first (cheap, instant), shards only when the slot range
        cannot cover the target; the shard count moves at most one step from
        ``current_shards`` per tick, modelling gradual provisioning.
        """
        config = self.config
        target = max(config.min_capacity_units, min(int(target_units), config.max_capacity_units))
        shards = math.ceil(target / config.max_slots_per_function)
        # Shard-count hysteresis: keep an existing shard unless the target
        # fits in one fewer shard *with a unit of slack*.  Retiring a shard
        # dumps its cache, so flapping on a noisy target pays the cold-cache
        # warmup transient on every re-add; slot changes are free by
        # comparison and absorb the noise instead.
        shrink_room = (current_shards - 1) * config.max_slots_per_function - 1
        if shards < current_shards and target > shrink_room:
            shards = current_shards
        shards = max(config.min_shards, min(shards, config.max_shards))
        shards = max(current_shards - 1, min(shards, current_shards + 1))
        slots = math.ceil(target / shards)
        if target > current_shards * current_slots:
            # A scale-up must never lower the per-function slots of the
            # already-warm shards: a target that crosses a shard boundary
            # would otherwise factor to fewer slots (e.g. 2x4 asked for 9
            # gives 3x3), retiring warm instances exactly while the one new
            # shard is still paying its cold-cache warmup.
            slots = max(slots, current_slots)
        if target < current_shards * current_slots and (shards, slots) == (
            current_shards,
            current_slots,
        ):
            # Integer rounding would otherwise swallow a scale-down decision
            # entirely (e.g. 2 shards x 4 slots asked to release one unit
            # still rounds to 2 x 4) and the tier could never release
            # capacity.  The actuator's release quantum at fixed shards is
            # one slot *per shard*, so pick whichever single step — one slot
            # fewer everywhere, or one shard fewer — lands closest to the
            # target (ties prefer the slot step: retiring a shard dumps its
            # cache).
            candidates = []
            if slots > config.min_slots_per_function:
                candidates.append((current_shards, slots - 1))
            if current_shards > config.min_shards:
                candidates.append((current_shards - 1, slots))
            if candidates:
                shards, slots = max(
                    candidates,
                    key=lambda pair: (pair[0] * pair[1], pair[0] == current_shards),
                )
        slots = max(config.min_slots_per_function, min(slots, config.max_slots_per_function))
        return shards, slots

    def _apply(self, decision: ScaleDecision, signals: ControlSignals) -> None:
        tier = self.tier
        shards, slots = self._factor_target(
            decision.target_capacity_units, signals.active_shards, signals.slots_per_function
        )
        if shards > signals.active_shards:
            tier.add_shard()
            self._record("shard-added", decision.reason)
        elif shards < signals.active_shards:
            tier.remove_shard()
            self._record("shard-removed", decision.reason)
        if slots != tier.slots_per_function:
            action = "slots-up" if slots > tier.slots_per_function else "slots-down"
            tier.set_function_concurrency(slots)
            self._record(action, decision.reason)
        self.peak_capacity_units = max(self.peak_capacity_units, tier.capacity_units)

    def _record(self, action: str, reason: str) -> None:
        tier = self.tier
        self.events.append(
            ScaleEvent(
                time=tier.loop.now,
                action=action,
                reason=reason,
                shards=tier.num_shards,
                slots_per_function=tier.slots_per_function,
                capacity_units=tier.capacity_units,
                replica_warm_events=tier.replica_warm_events,
            )
        )

    # ------------------------------------------------------------- reporting

    @property
    def warm_capacity_cost_dollars(self) -> float:
        """Provisioned warm capacity integrated over virtual time, in dollars."""
        price = self.tier.config.pricing.lambda_provisioned_cost_per_gb_second
        return self.provisioned_gb_seconds * price

    def summary(self) -> AutoscaleSummary:
        """Aggregate accounting of the run this autoscaler drove."""
        return AutoscaleSummary(
            policy=self.policy.name,
            scale_events=len(self.events),
            shard_adds=sum(1 for e in self.events if e.action == "shard-added"),
            shard_removes=sum(1 for e in self.events if e.action == "shard-removed"),
            slot_changes=sum(1 for e in self.events if e.action.startswith("slots-")),
            final_shards=self.tier.num_shards,
            final_slots_per_function=self.tier.slots_per_function,
            peak_capacity_units=self.peak_capacity_units,
            capacity_unit_seconds=self.capacity_unit_seconds,
            provisioned_gb_seconds=self.provisioned_gb_seconds,
            warm_capacity_cost_dollars=self.warm_capacity_cost_dollars,
            replica_warm_events=self.tier.replica_warm_events,
            events=list(self.events),
        )
