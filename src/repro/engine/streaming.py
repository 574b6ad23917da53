"""Streaming load metrics (the ``metrics="streaming"`` mode).

The default (``metrics="full"``) report pipeline retains every
:class:`~repro.engine.flstore.EngineOutcome`, then aggregates at the end
(:func:`repro.engine.flstore.build_load_report`) — exact, byte-stable, and
O(n) in request count.  At a million requests that's hundreds of MB of
Python objects, so this module provides the row-free alternative the
scenario knob selects, whose own state does not grow with the request
count:

* :class:`StreamingQuantiles` — a log-bucketed histogram sketch.  Counts per
  geometric bucket, quantiles answered at the bucket's geometric midpoint:
  within half a bucket (under 1% at ``growth=1.02``) of the order statistic
  at 0-based rank ``floor(q * (n - 1))``, a few KB of state, deterministic.
  ``np.percentile`` interpolates from that order statistic toward the next,
  so with few requests the sketched and exact columns differ by more.
* :class:`DepthAccumulator` — the time-weighted queue-depth integral updated
  incrementally per queue change.  On the event path both pipelines use it
  (the full one directly, this one through
  :meth:`StreamingLoadCollector.note_depth`), so their mean and max queue
  depth agree exactly.
* :class:`StreamingLoadCollector` — folds outcomes (or whole numpy batches
  from the vectorized fast path) into running counts, sums, SLO-violation
  counters, and the sketches above, then builds a
  :class:`~repro.engine.flstore.LoadReport` whose ``outcomes`` list is
  empty by construction.  Its counts, rates, horizon and queue-depth
  columns equal the full pipeline's.  Its means are running sums, equal to
  the full pipeline's within float rounding, not exactly: up to 2.9e-14 s
  on the registered unfaulted scenarios at seed 7, and
  ``tests/test_streaming_metrics.py`` holds them to rel 1e-9.  Its three
  percentile columns carry the sketch's error.

The collector is O(1) in the request count; the run around it is not.  On
the event path the stores keep the oracle's own model state for every
served request: its persisted result (the object store's slotted entry
and key, and the result itself), its request tracker entry, and the request
id both share.  A streaming ``sharded-burst`` run still holds about 553 B
per offered request once it ends (tracemalloc: 553 B between 500 and 1,500
requests, 554 B between 2,000 and 8,000; ``tests/test_streaming_metrics.py``
pins the slope), and its traced peak grows about 1,010 B per request,
because the trace's request objects are alive while it runs.

A run on the vectorized fast path (:mod:`repro.engine.vectorized`) holds,
besides the collector, one float64 per request, the waits, because
``mean_queue_depth`` there is numpy's pairwise sum over every wait divided
by the horizon (a running sum would round differently in the last digits
and move the pinned ``million-request`` report), plus O(``_CHUNK``) scratch
per block.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flstore imports us)
    from repro.engine.flstore import EngineOutcome, LoadReport


class StreamingQuantiles:
    """Log-bucketed quantile sketch: O(buckets) memory, bounded relative error.

    Values are counted in geometric buckets ``[min_value * growth**i,
    min_value * growth**(i+1))``; the ``q``-quantile is answered at the
    geometric midpoint of the bucket holding the order statistic at 0-based
    rank ``floor(q * (n - 1))``, clamped to the exactly-tracked min/max.  The
    answer is within half a bucket of that order statistic — under 1%
    relative error at the default ``growth=1.02`` — and the whole sketch is
    ~12 KB.

    The bound is against that order statistic, not against
    ``np.percentile``, which interpolates from it toward the next one.  With
    many requests the two nearly coincide; with few they need not:
    ``noisy-neighbor``'s steady tenant finishes 48 requests, and its p50 is
    12.82 s sketched against 15.05 s exact.
    """

    __slots__ = (
        "_min_value",
        "_log_min",
        "_log_growth",
        "_num_bins",
        "_counts",
        "_total",
        "_low",
        "_high",
    )

    def __init__(
        self, min_value: float = 1e-6, max_value: float = 1e7, growth: float = 1.02
    ) -> None:
        if not (0.0 < min_value < max_value):
            raise ValueError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ValueError("growth must exceed 1.0")
        self._min_value = min_value
        self._log_min = math.log(min_value)
        self._log_growth = math.log(growth)
        self._num_bins = int(math.ceil((math.log(max_value) - self._log_min) / self._log_growth))
        # Bin 0 is the underflow bucket (values <= min_value); the last bin
        # is the overflow bucket (values >= max_value).
        self._counts = np.zeros(self._num_bins + 2, dtype=np.int64)
        self._total = 0
        self._low = math.inf
        self._high = -math.inf

    @property
    def count(self) -> int:
        return self._total

    def add(self, value: float) -> None:
        if value <= self._min_value:
            index = 0
        else:
            index = min(
                int((math.log(value) - self._log_min) / self._log_growth) + 1,
                self._num_bins + 1,
            )
        self._counts[index] += 1
        self._total += 1
        if value < self._low:
            self._low = value
        if value > self._high:
            self._high = value

    def add_array(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        clipped = np.maximum(values, self._min_value)
        indexes = ((np.log(clipped) - self._log_min) / self._log_growth).astype(np.int64) + 1
        indexes[values <= self._min_value] = 0
        np.clip(indexes, 0, self._num_bins + 1, out=indexes)
        self._counts += np.bincount(indexes, minlength=self._counts.size)
        self._total += int(values.size)
        self._low = min(self._low, float(values.min()))
        self._high = max(self._high, float(values.max()))

    def quantile(self, q: float) -> float:
        """The approximate ``q``-quantile (``q`` in [0, 1])."""
        if self._total == 0:
            return 0.0
        # The order statistic np.percentile interpolates around; landing on
        # its floor keeps the sketch within one bucket of the exact answer.
        rank = int(q * (self._total - 1))
        cumulative = np.cumsum(self._counts)
        index = int(np.searchsorted(cumulative, rank + 1))
        if index <= 0:
            return float(self._low)
        if index >= self._num_bins + 1:
            return float(self._high)
        midpoint = math.exp(self._log_min + (index - 0.5) * self._log_growth)
        return float(min(max(midpoint, self._low), self._high))


class DepthAccumulator:
    """Incremental time-weighted queue-depth profile (mean and max).

    The one queue-depth path of both metrics modes: the front door observes
    the tier-wide waiting count at every change, in firing order, and the
    integral accumulates without retaining the ``(time, depth)`` stream.
    """

    __slots__ = ("_integral", "_prev_time", "_depth", "max_depth")

    def __init__(self) -> None:
        self._integral = 0.0
        self._prev_time: float | None = None
        self._depth = 0
        self.max_depth = 0

    def observe(self, now: float, depth: int) -> None:
        if self._prev_time is not None:
            self._integral += self._depth * (now - self._prev_time)
        self._prev_time = now
        self._depth = depth
        if depth > self.max_depth:
            self.max_depth = depth

    def finalize(self, start: float, end: float) -> tuple[float, int]:
        """Mean depth over ``[start, end]`` and the max observed depth."""
        if self._prev_time is None or end <= start:
            return 0.0, self.max_depth
        integral = self._integral + self._depth * (end - self._prev_time)
        return integral / (end - start), self.max_depth


class _TenantAccumulator:
    """Per-tenant running counts and a sojourn sketch (streaming mode)."""

    __slots__ = (
        "offered",
        "served",
        "requeued",
        "degraded",
        "shed",
        "sojourn_sum",
        "violations",
        "quantiles",
    )

    def __init__(self) -> None:
        self.offered = 0
        self.served = 0
        self.requeued = 0
        self.degraded = 0
        self.shed = 0
        self.sojourn_sum = 0.0
        self.violations = 0
        self.quantiles = StreamingQuantiles()

    @property
    def finished(self) -> int:
        return self.served + self.requeued + self.degraded


class StreamingLoadCollector:
    """Fold outcomes into O(1) state; build a row-free ``LoadReport``.

    One collector serves one open-loop run.  The engine (or sharded front
    door) routes every completed outcome through :meth:`fold` instead of
    appending it to a list, and queue-depth changes through
    :meth:`note_depth`; the vectorized fast path folds whole numpy chunks
    through :meth:`fold_served_arrays`.  Counts, rates, horizon, and the
    mean queue depth come out identical to the full pipeline; the means are
    running sums, equal to the full pipeline's within float rounding; the
    percentile columns carry the sketch's error (see
    :class:`StreamingQuantiles` for its bound).  ``tenant_slos`` arms
    the per-tenant breakdown rows (one :class:`_TenantAccumulator` per
    observed tenant, each its own few-KB sketch).
    """

    def __init__(
        self,
        slo_seconds: float | None = None,
        tenant_slos: "dict[str, float | None] | None" = None,
    ) -> None:
        self.slo_seconds = slo_seconds
        self.tenant_slos = dict(tenant_slos) if tenant_slos else {}
        self.served = 0
        self.requeued = 0
        self.degraded = 0
        self.shed = 0
        self.sojourn_sum = 0.0
        self.wait_sum = 0.0
        self.violations = 0
        self.last_completion = -math.inf
        self.quantiles = StreamingQuantiles()
        self.depth = DepthAccumulator()
        self._tenants: dict[str, _TenantAccumulator] = {}

    @property
    def completed(self) -> int:
        """Finished (non-shed) outcomes folded so far."""
        return self.served + self.degraded

    def fold(self, outcome: "EngineOutcome") -> None:
        completed_at = outcome.completed_at
        if completed_at > self.last_completion:
            self.last_completion = completed_at
        disposition = outcome.disposition
        tenant = outcome.request.tenant_id
        acc: _TenantAccumulator | None = None
        if tenant is not None:
            acc = self._tenants.get(tenant)
            if acc is None:
                acc = self._tenants[tenant] = _TenantAccumulator()
            acc.offered += 1
        if disposition == "shed":
            self.shed += 1
            if acc is not None:
                acc.shed += 1
            return
        if disposition == "degraded":
            self.degraded += 1
            if acc is not None:
                acc.degraded += 1
        else:
            self.served += 1
            if disposition == "requeued":
                self.requeued += 1
                if acc is not None:
                    acc.requeued += 1
            elif acc is not None:
                acc.served += 1
        sojourn = outcome.sojourn_seconds
        self.sojourn_sum += sojourn
        self.wait_sum += outcome.wait_seconds
        if self.slo_seconds is not None and sojourn > self.slo_seconds:
            self.violations += 1
        self.quantiles.add(sojourn)
        if acc is not None:
            acc.sojourn_sum += sojourn
            acc.quantiles.add(sojourn)
            slo = self.tenant_slos.get(tenant)
            if slo is not None and sojourn > slo:
                acc.violations += 1

    def fold_served_arrays(self, sojourns: np.ndarray, waits: np.ndarray) -> None:
        """Fold one chunk of served-disposition requests (vectorized path)."""
        if sojourns.size == 0:
            return
        self.served += int(sojourns.size)
        self.sojourn_sum += float(sojourns.sum())
        self.wait_sum += float(waits.sum())
        if self.slo_seconds is not None:
            self.violations += int(np.count_nonzero(sojourns > self.slo_seconds))
        self.quantiles.add_array(sojourns)

    def note_depth(self, now: float, depth: int) -> None:
        self.depth.observe(now, depth)

    def tenant_rows(self) -> list[dict]:
        """Per-tenant rows mirroring :func:`~repro.engine.flstore.build_tenant_rows`.

        Same columns and conservation invariant (``served + requeued +
        degraded + shed == offered``); the two percentile columns come from
        the sketch (within half a bucket of the order statistic at rank
        ``floor(q * (n - 1))``) instead of ``np.percentile`` interpolation.
        """
        if not self._tenants:
            return []
        total_finished = sum(acc.finished for acc in self._tenants.values())
        rows = []
        for tenant in sorted(self._tenants):
            acc = self._tenants[tenant]
            finished = acc.finished
            rows.append(
                {
                    "tenant": tenant,
                    "offered": acc.offered,
                    "served": acc.served,
                    "requeued": acc.requeued,
                    "degraded": acc.degraded,
                    "shed": acc.shed,
                    "service_share": finished / total_finished if total_finished else 0.0,
                    "mean_sojourn_seconds": acc.sojourn_sum / finished if finished else 0.0,
                    "p50_sojourn_seconds": acc.quantiles.quantile(0.50) if finished else 0.0,
                    "p99_sojourn_seconds": acc.quantiles.quantile(0.99) if finished else 0.0,
                    "violation_rate": acc.violations / finished if finished else 0.0,
                    "slo_seconds": self.tenant_slos.get(tenant),
                }
            )
        return rows

    def note_completion_time(self, completed_at: float) -> None:
        if completed_at > self.last_completion:
            self.last_completion = completed_at

    def build_report(
        self,
        label: str,
        submitted: int,
        first_arrival: float,
        last_arrival: float,
        keepalive_pings: int = 0,
        reclamations: int = 0,
        depth_profile: tuple[float, int] | None = None,
    ) -> "LoadReport":
        """Assemble the ``LoadReport`` (same formulas as the full pipeline).

        ``depth_profile`` overrides the incremental accumulator when the
        caller computed the profile analytically (the vectorized fast path:
        mean depth is total wait over the horizon, exactly).
        """
        from repro.engine.flstore import LoadReport

        if submitted == 0:
            first_arrival = 0.0
        completed = self.completed
        last_completion = (
            self.last_completion if self.last_completion > -math.inf else first_arrival
        )
        horizon = max(last_completion - first_arrival, 0.0)
        arrival_span = last_arrival - first_arrival if submitted > 1 else 0.0
        offered = submitted / arrival_span if arrival_span > 0 else 0.0
        goodput = self.served / horizon if horizon > 0 else 0.0
        if depth_profile is not None:
            mean_depth, max_depth = depth_profile
        else:
            mean_depth, max_depth = self.depth.finalize(first_arrival, last_completion)
        mean_service = (self.sojourn_sum - self.wait_sum) / completed if completed else 0.0
        return LoadReport(
            label=label,
            submitted=submitted,
            completed=completed,
            offered_rps=offered,
            goodput_rps=goodput,
            horizon_seconds=horizon,
            mean_sojourn_seconds=self.sojourn_sum / completed if completed else 0.0,
            p50_sojourn_seconds=self.quantiles.quantile(0.50) if completed else 0.0,
            p95_sojourn_seconds=self.quantiles.quantile(0.95) if completed else 0.0,
            p99_sojourn_seconds=self.quantiles.quantile(0.99) if completed else 0.0,
            mean_wait_seconds=self.wait_sum / completed if completed else 0.0,
            mean_service_seconds=mean_service,
            mean_queue_depth=mean_depth,
            max_queue_depth=max_depth,
            keepalive_pings=keepalive_pings,
            reclamations=reclamations,
            served=self.served,
            requeued=self.requeued,
            degraded=self.degraded,
            shed=self.shed,
            shed_rate=self.shed / submitted if submitted else 0.0,
            violation_rate=self.violations / completed if completed else 0.0,
            slo_seconds=self.slo_seconds,
            tenant_rows=self.tenant_rows(),
            outcomes=[],
        )


#: The metric pipelines a run can select.
METRICS_MODES: tuple[str, ...] = ("full", "streaming")


def check_metrics_mode(metrics: str) -> str:
    """Validate a ``metrics=`` knob value, returning it unchanged."""
    if metrics not in METRICS_MODES:
        raise ValueError(f"metrics must be one of {METRICS_MODES}, got {metrics!r}")
    return metrics
