"""Typed fault injection across the serving tier, scheduled as engine events.

The seed's :class:`~repro.serverless.faults.ZipfianFaultInjector` samples
function reclamations on the analytic serve path; everything built since —
the discrete-event engine, the sharded front door, the router, the
autoscaler — had never seen a fault.  This module closes that gap: a
:class:`FaultPlan` turns a spec's validated fault clauses
(:class:`~repro.scenario.spec.FaultSpec`: kind, onset, duration, magnitude)
into scheduled events on the tier's event loop, so faults strike *mid-run*,
interleaved with arrivals, control ticks, and daemons on one virtual
timeline.

Four fault kinds, chosen to hit different layers of the stack:

* ``shard-crash`` — the front door loses whole shards
  (:meth:`~repro.engine.sharded.ShardedEngineFLStore.crash_shard`): the ring
  rebuilds, queued waiters drain as ``requeued``, warm capacity is gone.
* ``reclamation-storm`` — correlated burst reclamations: every
  ``interval_seconds`` within the fault window, a Zipf-sized set of warm
  functions is force-reclaimed *across every shard*
  (:meth:`~repro.engine.flstore.EngineFLStore.force_reclaim`), draining
  their waiters as ``requeued`` and dropping cached keys.
* ``slow-shard`` — gray degradation: one shard's executions hold their
  slots ``magnitude`` times as long (``service_time_multiplier``), while
  its analytic latency records stay healthy — only sojourn times and queue
  depths reveal it.
* ``network-spike`` — a transient network fault: requests served inside the
  window have the communication components of their latency and cost scaled
  by ``magnitude`` (:func:`repro.network.model.spike_latency` /
  :func:`~repro.network.model.spike_cost`).

Every clause draws from an independently derived RNG stream
(``derive_rng(seed, f"fault-{kind}-{i}")``), so adding a clause never
perturbs the randomness of the others.  Conservation
(``served + degraded + shed == offered``, requeued counted inside served)
holds through every fault kind — the injected paths reuse the engine's
existing drain/shed semantics rather than inventing new exits.

:func:`compute_recovery_metrics` quantifies the damage: windowed goodput
against the pre-onset baseline gives a time-to-recovery and a goodput-dip
area, the two numbers the fault-recovery sweep compares with and without
the remediation controller (:mod:`repro.engine.remediate`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng

if TYPE_CHECKING:  # the spec layer imports this module; annotations only
    from repro.scenario.spec import FaultSpec

#: The fault taxonomy (see the module docstring and EXPERIMENTS.md).
FAULT_KINDS: tuple[str, ...] = (
    "shard-crash",
    "reclamation-storm",
    "slow-shard",
    "network-spike",
)


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault event on the run's virtual timeline."""

    time: float
    clause_index: int
    kind: str
    detail: str


class FaultPlan:
    """Schedules a list of fault clauses as events on a tier's event loop.

    Works against any :class:`~repro.engine.sharded.ShardedEngineFLStore`
    front door; a ``shard-crash`` needs at least two shards (the last shard
    can never be crashed).  ``start()`` is called by ``run_open_loop`` after
    arrivals are scheduled; onsets are relative to that instant.
    """

    def __init__(self, tier, clauses: Sequence[FaultSpec], seed: int = 7) -> None:
        self.tier = tier
        self.clauses = list(clauses)
        self.seed = seed
        self.records: list[FaultRecord] = []
        self._rngs = [
            derive_rng(seed, f"fault-{clause.kind}-{index}")
            for index, clause in enumerate(self.clauses)
        ]
        self._started = False
        for clause in self.clauses:
            if clause.kind == "shard-crash" and tier.num_shards < 2:
                raise ConfigurationError(
                    "a shard-crash fault needs a sharded tier with at least 2 "
                    "shards (the last shard can never be crashed)"
                )

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Schedule every clause's events (called once, at run start)."""
        if self._started:
            raise RuntimeError("a FaultPlan instance drives exactly one run")
        self._started = True
        base = self.tier.loop.now
        for index, clause in enumerate(self.clauses):
            if clause.kind == "shard-crash":
                self.tier.loop.schedule_at(
                    base + clause.onset_seconds, self._make_crash(index, clause)
                )
            elif clause.kind == "reclamation-storm":
                self.tier.loop.schedule_at(
                    base + clause.onset_seconds,
                    self._make_storm(index, clause, base + clause.onset_seconds),
                )
            elif clause.kind == "slow-shard":
                self.tier.loop.schedule_at(
                    base + clause.onset_seconds, self._make_slowdown(index, clause)
                )
            elif clause.kind == "network-spike":
                self.tier.loop.schedule_at(
                    base + clause.onset_seconds, self._make_spike(index, clause)
                )

    # ------------------------------------------------------------ fault kinds

    def _record(self, index: int, kind: str, detail: str) -> None:
        self.records.append(FaultRecord(self.tier.loop.now, index, kind, detail))

    def _make_crash(self, index: int, clause: FaultSpec):
        def _crash() -> None:
            for _ in range(clause.shards_crashed):
                shard_index = self.tier.crash_shard()
                self._record(index, clause.kind, f"shard {shard_index} crashed")

        return _crash

    def _make_storm(self, index: int, clause: FaultSpec, onset: float):
        rng = self._rngs[index]
        window_end = onset + clause.duration_seconds

        def _burst() -> None:
            total = 0
            for engine in self.tier.active_shards:
                warm = list(engine.flstore.cluster.function_ids())
                if not warm:
                    continue
                count = int(math.ceil(float(rng.zipf(clause.zipf_exponent)) * clause.magnitude))
                count = min(count, len(warm))
                chosen = rng.choice(warm, size=count, replace=False)
                reclaimed = engine.force_reclaim(str(fid) for fid in chosen)
                total += len(reclaimed)
            self._record(
                index, clause.kind, f"burst reclaimed {total} warm functions tier-wide"
            )
            next_at = self.tier.loop.now + clause.interval_seconds
            if next_at <= window_end:
                self.tier.loop.schedule_at(next_at, _burst)

        return _burst

    def _make_slowdown(self, index: int, clause: FaultSpec):
        rng = self._rngs[index]

        def _degrade() -> None:
            engines = self.tier.active_shards
            victim = engines[int(rng.integers(len(engines)))]
            victim.service_time_multiplier = clause.magnitude
            self._record(
                index,
                clause.kind,
                f"service time x{clause.magnitude:g} for {clause.duration_seconds:g}s",
            )

            def _heal() -> None:
                victim.service_time_multiplier = 1.0
                self._record(index, clause.kind, "slow shard healed")

            self.tier.loop.schedule(clause.duration_seconds, _heal)

        return _degrade

    def _make_spike(self, index: int, clause: FaultSpec):
        def _spike() -> None:
            # The spike hits every shard's network path at once (a regional
            # event, not a per-shard one); shards added mid-window join at
            # the healthy multiplier, as a freshly provisioned path would.
            victims = self.tier.active_shards
            for engine in victims:
                engine.network_fault_multiplier = clause.magnitude
            self._record(
                index,
                clause.kind,
                f"network x{clause.magnitude:g} for {clause.duration_seconds:g}s",
            )

            def _clear() -> None:
                for engine in victims:
                    engine.network_fault_multiplier = 1.0
                self._record(index, clause.kind, "network spike cleared")

            self.tier.loop.schedule(clause.duration_seconds, _clear)

        return _spike

    # ------------------------------------------------------------- reporting

    @property
    def first_onset_seconds(self) -> float | None:
        """The earliest clause onset (what recovery metrics measure from)."""
        if not self.clauses:
            return None
        return min(clause.onset_seconds for clause in self.clauses)

    def summary(self) -> dict:
        """Scalar accounting of the injected faults (for report rows)."""
        by_kind: dict[str, int] = {}
        for record in self.records:
            by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
        return {
            "fault_clauses": len(self.clauses),
            "fault_events": len(self.records),
            "fault_events_by_kind": by_kind,
        }


# ---------------------------------------------------------------------------
# Recovery metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryMetrics:
    """How a run's goodput weathered its faults.

    Goodput here counts strictly ``served`` completions (requeued and
    degraded requests finished, but not the way anyone wanted), against the
    pre-onset baseline rate.

    ``time_to_recovery_seconds`` is the *last* instant (measured from fault
    onset) at which the cumulative served rate since onset sat below
    ``recovery_fraction`` of the baseline — after it, the run has served, on
    average over the whole incident, at least that fraction of what a
    healthy tier would have.  The cumulative form makes the clock robust to
    sparse-traffic noise (a single empty 5-second window does not reset it),
    while a run that keeps re-dipping (an unremediated storm) or never
    regains capacity keeps its clock running to the horizon
    (``recovered=False``).  ``goodput_dip_area`` integrates the windowed
    deficit (``max(0, baseline - goodput) x window`` over windows of
    ``window_seconds``) across the post-onset horizon: the number of
    requests' worth of serving capacity the fault destroyed.
    """

    onset_seconds: float
    window_seconds: float
    baseline_goodput_rps: float
    time_to_recovery_seconds: float
    goodput_dip_area: float
    recovered: bool

    def row(self) -> dict:
        """The scalar columns of these metrics (for tables and JSON export)."""
        return {
            "time_to_recovery_seconds": self.time_to_recovery_seconds,
            "goodput_dip_area": self.goodput_dip_area,
            "baseline_goodput_rps": self.baseline_goodput_rps,
            "recovered": self.recovered,
        }


def compute_recovery_metrics(
    outcomes,
    onset_seconds: float,
    end_seconds: float,
    window_seconds: float = 5.0,
    recovery_fraction: float = 0.9,
    baseline_goodput_rps: float | None = None,
) -> RecoveryMetrics:
    """Windowed goodput analysis of ``outcomes`` around a fault onset.

    ``outcomes`` are the run's :class:`~repro.engine.flstore.EngineOutcome`
    rows; ``onset_seconds`` is the (absolute) virtual time of the first
    fault; ``end_seconds`` bounds the analysis horizon (typically the last
    arrival instant, so the post-run drain does not read as a dip).

    ``baseline_goodput_rps`` is what a healthy tier would serve.  The
    scenario layer passes the spec's offered rate (exact, and equal to the
    healthy serving rate whenever the tier keeps up); when ``None``, the
    baseline is estimated as the mean served rate over the pre-onset span —
    a noisy estimate when few requests complete before onset.
    """
    if window_seconds <= 0:
        raise ConfigurationError(f"window_seconds must be > 0, got {window_seconds}")
    if not 0 < recovery_fraction <= 1:
        raise ConfigurationError(
            f"recovery_fraction must be in (0, 1], got {recovery_fraction}"
        )
    served_times = sorted(
        o.completed_at for o in outcomes if o.disposition == "served"
    )
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
    threshold = recovery_fraction * baseline
    dip_area = 0.0
    num_windows = int(math.ceil(horizon / window_seconds))
    for k in range(num_windows):
        lo = onset_seconds + k * window_seconds
        hi = min(lo + window_seconds, end_seconds)
        width = hi - lo
        if width <= 0:
            break
        # Completions in [lo, hi): served_times is sorted.
        count = bisect.bisect_left(served_times, hi) - bisect.bisect_left(served_times, lo)
        dip_area += max(0.0, baseline - count / width) * width
    # Cumulative catch-up clock: the rate-since-onset ratio decays between
    # completions and jumps at each one, so its local minima sit just before
    # each completion and at the horizon — checking those points finds the
    # last instant the run was still behind.
    post = [t for t in served_times if onset_seconds < t <= end_seconds]
    last_below = 0.0
    for index, t in enumerate(post):
        elapsed = t - onset_seconds
        if index / elapsed < threshold:
            last_below = elapsed
    if len(post) / horizon < threshold:
        last_below = horizon
    recovered = last_below < horizon
    return RecoveryMetrics(
        onset_seconds=onset_seconds,
        window_seconds=window_seconds,
        baseline_goodput_rps=baseline,
        time_to_recovery_seconds=last_below,
        goodput_dip_area=dip_area,
        recovered=recovered,
    )


__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRecord",
    "RecoveryMetrics",
    "compute_recovery_metrics",
]
