"""A closed-loop remediation controller with shadow-verified actuation.

Where the autoscaler (:mod:`repro.engine.autoscale`) tracks *load*, this
controller responds to *faults*.  It rides the same control-tick mechanism —
a recurring scheduled event on the tier's virtual timeline, sampling the
same queue-depth / counter-delta signals through its own
:class:`~repro.engine.autoscale.ControlSampler` — and closes a
detect → propose → verify → actuate loop (the k8s-auto-fix shape):

1. **Detect.**  Each tick compares the sampled signals against EWMA
   baselines learned from the run's own healthy ticks: queue depth and
   SLO-violation-rate anomalies (relative to baseline, with absolute
   floors; the violation rate comes from the shards' per-flow tally, and
   only a tier with an SLO of its own arms that detector), plus two
   *structural* signals no healthy run produces — capacity below the
   spec's nominal (a crashed shard, demoted slots) and bursts of
   force-drained waiters (``requeued`` deltas, the
   conservation-pressure signature of reclamation storms and crashes).
2. **Propose.**  Anomalies map to a ranked action list: re-add the lost
   shard, promote per-function slots back to nominal, reroute arrivals via
   join-shortest-queue, or switch shedding from ``drop`` to
   ``degrade-to-objstore``.  Actuation never raises capacity above the
   spec's nominal (shards x slots), so a remediated run costs the same warm
   capacity as an unremediated one.
3. **Verify.**  The top proposal is forked into a bounded *shadow
   simulation* (an injected runner; the scenario layer builds a shrunk
   snapshot spec of the tier's current degraded state and replays the
   arrival process's prefix) with and without the action applied.  The
   action is accepted only if the forecast p99 or goodput improves and
   neither regresses beyond tolerance.  Every accept **and** reject is
   logged with its forecast deltas.
4. **Actuate** on accept, then cool down.

Two guardrails keep the controller provably inert on healthy runs (pinned
by the no-fault byte-identity test): performance anomalies alone are
*logged but never actuated* — actuation requires structural evidence of a
fault — and baselines only update on healthy ticks, so an anomaly cannot
teach the detector to ignore itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.engine.autoscale import ControlSampler, ControlSignals

#: Actions the controller can propose, in rank order (capacity restoration
#: first, capacity-neutral rebalancing after).
REMEDIATION_ACTIONS: tuple[str, ...] = (
    "add-shard",
    "promote-slots",
    "reroute-jsq",
    "shed-degrade",
)


@dataclass(frozen=True)
class RemediationConfig:
    """Tunables of the remediation control loop."""

    #: Virtual-time spacing of control ticks.
    control_interval_seconds: float = 5.0
    #: EWMA weight of the newest healthy sample in the baselines.
    ewma_alpha: float = 0.4
    #: Ticks before the baselines are trusted (no anomalies during warmup).
    warmup_ticks: int = 2
    #: Queue-depth anomaly: depth must exceed both this multiple of the
    #: baseline and the absolute floor.
    queue_depth_factor: float = 3.0
    min_queue_depth: int = 6
    #: SLO-violation anomaly: the recent violation rate must exceed both
    #: this absolute rate and ``queue_depth_factor`` x its baseline.
    violation_rate_threshold: float = 0.5
    #: Structural anomaly: waiters force-drained (``requeued``) in a tick.
    #: A healthy run never force-drains, so any positive count is evidence.
    requeue_spike_threshold: int = 1
    #: Minimum virtual time between verification attempts (accept or not).
    cooldown_seconds: float = 15.0
    #: Hard cap on actuations per run.
    max_actions: int = 4
    #: Shadow gate: minimum forecast improvement (seconds of p99, rps of
    #: goodput) and maximum tolerated regression on the other metric.
    improvement_epsilon: float = 0.0
    regression_tolerance: float = 0.10

    def __post_init__(self) -> None:
        if self.control_interval_seconds <= 0:
            raise ConfigurationError("control_interval_seconds must be positive")
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        if self.warmup_ticks < 0:
            raise ConfigurationError("warmup_ticks must be >= 0")
        if self.queue_depth_factor < 1:
            raise ConfigurationError("queue_depth_factor must be >= 1")
        if self.min_queue_depth < 1:
            raise ConfigurationError("min_queue_depth must be >= 1")
        if not 0 < self.violation_rate_threshold <= 1:
            raise ConfigurationError("violation_rate_threshold must be in (0, 1]")
        if self.requeue_spike_threshold < 1:
            raise ConfigurationError("requeue_spike_threshold must be >= 1")
        if self.cooldown_seconds < 0:
            raise ConfigurationError("cooldown_seconds must be >= 0")
        if self.max_actions < 0:
            raise ConfigurationError("max_actions must be >= 0")
        if self.improvement_epsilon < 0:
            raise ConfigurationError("improvement_epsilon must be >= 0")
        if self.regression_tolerance < 0:
            raise ConfigurationError("regression_tolerance must be >= 0")


@dataclass(frozen=True, slots=True)
class Anomaly:
    """One detected deviation from the tier's healthy baseline."""

    time: float
    kind: str  # "capacity-loss" | "requeue-spike" | "queue-depth" | "slo-violation"
    value: float
    baseline: float

    @property
    def structural(self) -> bool:
        """Whether this anomaly is direct evidence of a fault (not just load)."""
        return self.kind in ("capacity-loss", "requeue-spike")


@dataclass(frozen=True, slots=True)
class Proposal:
    """One ranked candidate action for a detected anomaly set."""

    action: str
    reason: str


@dataclass(frozen=True, slots=True)
class RemediationRecord:
    """One verification attempt: the proposal, the forecast, the verdict."""

    time: float
    anomalies: tuple[str, ...]
    action: str
    accepted: bool
    reason: str
    forecast_p99_baseline: float | None = None
    forecast_p99_candidate: float | None = None
    forecast_goodput_baseline: float | None = None
    forecast_goodput_candidate: float | None = None

    @property
    def forecast_p99_delta(self) -> float | None:
        """Forecast p99 change (negative is an improvement), if verified."""
        if self.forecast_p99_baseline is None or self.forecast_p99_candidate is None:
            return None
        return self.forecast_p99_candidate - self.forecast_p99_baseline

    @property
    def forecast_goodput_delta(self) -> float | None:
        """Forecast goodput change (positive is an improvement), if verified."""
        if self.forecast_goodput_baseline is None or self.forecast_goodput_candidate is None:
            return None
        return self.forecast_goodput_candidate - self.forecast_goodput_baseline

    def row(self) -> dict:
        """The scalar columns of this record (for logs and JSON export)."""
        return {
            "time": self.time,
            "anomalies": list(self.anomalies),
            "action": self.action,
            "accepted": self.accepted,
            "reason": self.reason,
            "forecast_p99_delta": self.forecast_p99_delta,
            "forecast_goodput_delta": self.forecast_goodput_delta,
        }


@dataclass
class RemediationSummary:
    """Aggregate accounting of one remediated run."""

    ticks: int
    anomalies_detected: int
    actions_taken: int
    accepts: int
    rejects: int
    shadow_runs: int
    final_shards: int
    final_slots_per_function: int
    final_router_kind: str
    final_shed_policy: str
    records: list[RemediationRecord] = field(default_factory=list, repr=False)
    anomalies: list[Anomaly] = field(default_factory=list, repr=False)

    def row(self) -> dict:
        """The scalar columns of this summary (for tables and JSON export)."""
        return {
            "remediation_ticks": self.ticks,
            "anomalies_detected": self.anomalies_detected,
            "actions_taken": self.actions_taken,
            "shadow_accepts": self.accepts,
            "shadow_rejects": self.rejects,
            "shadow_runs": self.shadow_runs,
        }


class RemediationController:
    """The detect → propose → verify → actuate loop over a sharded tier.

    Parameters
    ----------
    tier:
        The :class:`~repro.engine.sharded.ShardedEngineFLStore` to guard.
    config:
        Control-loop tunables.  The violation-rate detector reads the tier's
        own SLO (its ``slo_seconds``; ``None`` disables that detector).
    nominal_shards / nominal_slots:
        The spec's intended capacity.  Detection flags capacity below it;
        actuation never raises capacity above it (equal warm-capacity cost
        versus an unremediated run, by construction).
    shadow_runner:
        ``callable(action, state) -> forecast`` forking the bounded shadow
        simulation; ``state`` captures the tier's current degraded shape
        (shards, slots, router kind, shed policy) and the forecast dict
        carries ``p99_baseline/candidate`` and ``goodput_baseline/candidate``.
        Without one (unit tests), proposals are accepted unverified.
    """

    def __init__(
        self,
        tier,
        config: RemediationConfig | None = None,
        nominal_shards: int | None = None,
        nominal_slots: int | None = None,
        shadow_runner=None,
    ) -> None:
        self.tier = tier
        self.config = config or RemediationConfig()
        self.nominal_shards = nominal_shards if nominal_shards is not None else tier.num_shards
        self.nominal_slots = (
            nominal_slots if nominal_slots is not None else tier.slots_per_function
        )
        self.shadow_runner = shadow_runner
        self.records: list[RemediationRecord] = []
        self.anomaly_log: list[Anomaly] = []
        self.ticks = 0
        self.actions_taken = 0
        self.shadow_runs = 0
        self._depth_baseline = 0.0
        self._violation_baseline = 0.0
        self._last_verify_at: float | None = None
        self._shadow_cache: dict[tuple, dict] = {}
        self._sampler: ControlSampler | None = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin the control loop (called by ``run_open_loop`` after submit)."""
        if self._sampler is not None:
            raise RuntimeError("a RemediationController instance drives exactly one run")
        self._sampler = ControlSampler(self.tier, self.config.control_interval_seconds)
        self.tier.loop.schedule(self.config.control_interval_seconds, self._tick)

    # ------------------------------------------------------- the control tick

    def _tick(self) -> None:
        self.ticks += 1
        signals = self._sampler.sample()
        anomalies = self._detect(signals)
        self.anomaly_log.extend(anomalies)
        if any(a.structural for a in anomalies) and self._may_act(signals.now):
            # Walk the ranked proposals until one survives shadow verification
            # (every verdict is logged); the whole walk counts as one
            # verification attempt for cooldown purposes.
            for proposal in self._propose(signals, anomalies):
                record = self._verify(proposal, signals, anomalies)
                self.records.append(record)
                self._last_verify_at = signals.now
                if record.accepted:
                    self._actuate(proposal)
                    break
        if not anomalies:
            # Baselines learn only from healthy ticks: an ongoing anomaly
            # must not teach the detector that broken is the new normal.
            alpha = self.config.ewma_alpha
            self._depth_baseline = alpha * signals.queue_depth + (1 - alpha) * self._depth_baseline
            self._violation_baseline = (
                alpha * self._violation_rate(signals) + (1 - alpha) * self._violation_baseline
            )
        if self.tier.inflight > 0:
            self.tier.loop.schedule(self.config.control_interval_seconds, self._tick)

    def _violation_rate(self, signals: ControlSignals) -> float:
        """The window violation rate, when the tier's SLO arms that detector."""
        return signals.violation_rate if self.tier.slo_seconds is not None else 0.0

    # -------------------------------------------------------------- detection

    def _detect(self, signals: ControlSignals) -> list[Anomaly]:
        config = self.config
        now = signals.now
        anomalies: list[Anomaly] = []
        if (
            signals.active_shards < self.nominal_shards
            or signals.slots_per_function < self.nominal_slots
        ):
            nominal = self.nominal_shards * self.nominal_slots
            current = signals.active_shards * signals.slots_per_function
            anomalies.append(Anomaly(now, "capacity-loss", float(current), float(nominal)))
        if signals.requeued_delta >= config.requeue_spike_threshold:
            anomalies.append(Anomaly(now, "requeue-spike", float(signals.requeued_delta), 0.0))
        if self.ticks > config.warmup_ticks:
            depth = signals.queue_depth
            depth_gate = max(
                float(config.min_queue_depth), config.queue_depth_factor * self._depth_baseline
            )
            if depth > depth_gate:
                anomalies.append(Anomaly(now, "queue-depth", float(depth), self._depth_baseline))
            violation = self._violation_rate(signals)
            violation_gate = max(
                config.violation_rate_threshold,
                config.queue_depth_factor * self._violation_baseline,
            )
            if violation > violation_gate:
                anomalies.append(
                    Anomaly(now, "slo-violation", violation, self._violation_baseline)
                )
        return anomalies

    def _may_act(self, now: float) -> bool:
        if self.actions_taken >= self.config.max_actions:
            return False
        if self._last_verify_at is None:
            return True
        return now - self._last_verify_at >= self.config.cooldown_seconds

    # --------------------------------------------------------------- proposal

    def _propose(self, signals: ControlSignals, anomalies: list[Anomaly]) -> list[Proposal]:
        kinds = {a.kind for a in anomalies}
        proposals: list[Proposal] = []
        if signals.active_shards < self.nominal_shards:
            proposals.append(
                Proposal(
                    "add-shard",
                    f"tier at {signals.active_shards}/{self.nominal_shards} shards",
                )
            )
        if signals.slots_per_function < self.nominal_slots:
            proposals.append(
                Proposal(
                    "promote-slots",
                    f"slots at {signals.slots_per_function}/{self.nominal_slots}",
                )
            )
        # _propose only runs on structural anomalies, so any anomaly set here
        # justifies the capacity-neutral rebalancing proposals.
        pressured = bool(kinds)
        router_kind = self.tier.router.kind
        if pressured and router_kind != "jsq":
            proposals.append(
                Proposal(
                    "reroute-jsq",
                    f"rebalance {router_kind} routing by live queue depth",
                )
            )
        if pressured and self.tier.shed_policy == "drop" and signals.shed_delta > 0:
            proposals.append(
                Proposal(
                    "shed-degrade",
                    f"{signals.shed_delta} drops last tick; degrade instead",
                )
            )
        return proposals

    # ----------------------------------------------------------- verification

    def _verify(
        self, proposal: Proposal, signals: ControlSignals, anomalies: list[Anomaly]
    ) -> RemediationRecord:
        anomaly_kinds = tuple(a.kind for a in anomalies)
        if self.shadow_runner is None:
            return RemediationRecord(
                time=signals.now,
                anomalies=anomaly_kinds,
                action=proposal.action,
                accepted=True,
                reason=f"{proposal.reason} (no shadow runner attached; trusted)",
            )
        state = {
            "shards": signals.active_shards,
            "slots": signals.slots_per_function,
            "router_kind": self.tier.router.kind,
            "shed_policy": self.tier.shed_policy,
        }
        key = (proposal.action, *sorted(state.items()))
        forecast = self._shadow_cache.get(key)
        if forecast is None:
            forecast = self.shadow_runner(proposal.action, state)
            self._shadow_cache[key] = forecast
            self.shadow_runs += 1
        config = self.config
        p99_base = forecast["p99_baseline"]
        p99_cand = forecast["p99_candidate"]
        goodput_base = forecast["goodput_baseline"]
        goodput_cand = forecast["goodput_candidate"]
        improves = (
            p99_base - p99_cand > config.improvement_epsilon
            or goodput_cand - goodput_base > config.improvement_epsilon
        )
        tolerable = p99_cand <= p99_base * (1 + config.regression_tolerance) and (
            goodput_cand >= goodput_base * (1 - config.regression_tolerance)
        )
        accepted = improves and tolerable
        if accepted:
            reason = (
                f"{proposal.reason}; shadow forecast p99 {p99_base:.3f}->{p99_cand:.3f}s, "
                f"goodput {goodput_base:.3f}->{goodput_cand:.3f} rps"
            )
        elif not improves:
            reason = (
                f"{proposal.reason}; rejected: shadow forecast no improvement "
                f"(p99 {p99_base:.3f}->{p99_cand:.3f}s, "
                f"goodput {goodput_base:.3f}->{goodput_cand:.3f} rps)"
            )
        else:
            reason = (
                f"{proposal.reason}; rejected: forecast regression beyond "
                f"{config.regression_tolerance:.0%} tolerance"
            )
        return RemediationRecord(
            time=signals.now,
            anomalies=anomaly_kinds,
            action=proposal.action,
            accepted=accepted,
            reason=reason,
            forecast_p99_baseline=p99_base,
            forecast_p99_candidate=p99_cand,
            forecast_goodput_baseline=goodput_base,
            forecast_goodput_candidate=goodput_cand,
        )

    # -------------------------------------------------------------- actuation

    def _actuate(self, proposal: Proposal) -> None:
        tier = self.tier
        if proposal.action == "add-shard":
            tier.add_shard()
        elif proposal.action == "promote-slots":
            tier.set_function_concurrency(
                min(self.nominal_slots, tier.slots_per_function + 1)
            )
        elif proposal.action == "reroute-jsq":
            tier.set_router_kind("jsq")
        elif proposal.action == "shed-degrade":
            tier.set_shed_policy("degrade-to-objstore")
        else:  # pragma: no cover - proposals are built from the fixed set
            raise ConfigurationError(f"unknown remediation action {proposal.action!r}")
        self.actions_taken += 1

    # ------------------------------------------------------------- reporting

    def summary(self) -> RemediationSummary:
        """Aggregate accounting of the run this controller guarded."""
        accepts = sum(1 for r in self.records if r.accepted)
        return RemediationSummary(
            ticks=self.ticks,
            anomalies_detected=len(self.anomaly_log),
            actions_taken=self.actions_taken,
            accepts=accepts,
            rejects=len(self.records) - accepts,
            shadow_runs=self.shadow_runs,
            final_shards=self.tier.num_shards,
            final_slots_per_function=self.tier.slots_per_function,
            final_router_kind=self.tier.router.kind,
            final_shed_policy=self.tier.shed_policy,
            records=list(self.records),
            anomalies=list(self.anomaly_log),
        )


__all__ = [
    "REMEDIATION_ACTIONS",
    "Anomaly",
    "Proposal",
    "RemediationConfig",
    "RemediationController",
    "RemediationRecord",
    "RemediationSummary",
]
