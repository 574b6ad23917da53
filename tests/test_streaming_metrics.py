"""Streaming metrics: full/streaming equivalence, fast-path sanity, memory.

The ``metrics="streaming"`` knob swaps the retained-row collector for O(1)
accumulators (:mod:`repro.engine.streaming`) and — on eligible plain-tier
specs — the event loop for the vectorized fast path
(:mod:`repro.engine.vectorized`).  These tests pin the contract:

* on the *event path*, a streaming run's report equals a full run's report
  in every exact column (counts, rates, means, depth profile, tenant rows),
  with only the percentile columns sketched (log-bucket quantiles, ~1%
  bucket error); both modes share one queue-depth accumulator, so the depth
  profile matches to the bit;
* the fast path preserves counts and conservation exactly, and its queueing
  columns stay within the documented approximation of the event path;
* a streaming run retains no per-request rows and its peak allocation stays
  flat in the request count (the memory guard).
"""

import math
import tracemalloc

import pytest

from repro.engine.streaming import METRICS_MODES, check_metrics_mode
from repro.engine.vectorized import fast_path_eligible
from repro.scenario import get_scenario, run
from repro.scenario.spec import ScenarioValidationError

#: LoadReport columns that must be *exactly* preserved by streaming
#: accumulation: integer accounting, and the depth profile both modes read
#: off one accumulator.
EXACT_FIELDS = (
    "submitted",
    "completed",
    "served",
    "requeued",
    "degraded",
    "shed",
    "max_queue_depth",
    "mean_queue_depth",
    "keepalive_pings",
    "reclamations",
)
#: Closed-form aggregates, equal up to float summation order.
EXACT_FLOAT_FIELDS = (
    "offered_rps",
    "goodput_rps",
    "horizon_seconds",
    "mean_sojourn_seconds",
    "mean_wait_seconds",
    "mean_service_seconds",
    "shed_rate",
    "violation_rate",
)
#: The only approximated columns on the event path: sketch-quantile error
#: is ~1% per bucket; 5% leaves headroom for interpolation at the tails.
SKETCHED_FIELDS = ("p50_sojourn_seconds", "p95_sojourn_seconds", "p99_sojourn_seconds")
#: The same three classes for each per-tenant row.  A tenant holds few
#: requests, so its sketched quantiles are bounded by the sketch's own
#: guarantee rather than by a relative error (see ``assert_within_sketch``).
TENANT_EXACT_COLUMNS = (
    "tenant",
    "offered",
    "served",
    "requeued",
    "degraded",
    "shed",
    "slo_seconds",
)
TENANT_FLOAT_COLUMNS = ("service_share", "mean_sojourn_seconds", "violation_rate")
TENANT_SKETCHED_COLUMNS = {"p50_sojourn_seconds": 0.50, "p99_sojourn_seconds": 0.99}
#: Bucket growth of the default ``StreamingQuantiles`` sketch.
SKETCH_GROWTH = 1.02


def _close(actual, expected) -> bool:
    return math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-12)


def assert_within_sketch(sketched, values, q, label):
    """``sketched`` is within one bucket of the order statistics around the
    exact ``q``-quantile of ``values`` (the pair ``np.percentile``
    interpolates between): the sketch answers from the lower one's bucket."""
    if not values:
        assert sketched == 0.0, label
        return
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low, high = ordered[math.floor(position)], ordered[math.ceil(position)]
    assert low / SKETCH_GROWTH <= sketched <= high * SKETCH_GROWTH, label


def assert_streaming_matches_full(full, stream):
    """Streaming report equals the full one everywhere but the sketches."""
    for field in EXACT_FIELDS:
        assert getattr(stream, field) == getattr(full, field), field
    for field in EXACT_FLOAT_FIELDS:
        assert _close(getattr(stream, field), getattr(full, field)), field
    for field in SKETCHED_FIELDS:
        exact = getattr(full, field)
        sketched = getattr(stream, field)
        assert sketched == pytest.approx(exact, rel=0.05), field
    assert len(stream.tenant_rows) == len(full.tenant_rows)
    for full_row, stream_row in zip(full.tenant_rows, stream.tenant_rows):
        tenant = full_row["tenant"]
        for column in TENANT_EXACT_COLUMNS:
            assert stream_row[column] == full_row[column], (tenant, column)
        for column in TENANT_FLOAT_COLUMNS:
            assert _close(stream_row[column], full_row[column]), (tenant, column)
        sojourns = [
            o.sojourn_seconds
            for o in full.outcomes
            if o.tenant_id == tenant and o.disposition != "shed"
        ]
        for column, q in TENANT_SKETCHED_COLUMNS.items():
            assert_within_sketch(stream_row[column], sojourns, q, (tenant, column))
    assert stream.outcomes == []
    assert len(full.outcomes) == full.submitted
    assert full.conserved and stream.conserved


class TestMetricsModeKnob:
    def test_modes(self):
        assert METRICS_MODES == ("full", "streaming")
        for mode in METRICS_MODES:
            check_metrics_mode(mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="metrics"):
            check_metrics_mode("rows")

    def test_spec_rejects_unknown_mode(self):
        spec = get_scenario("engine-baseline")
        with pytest.raises(ScenarioValidationError, match="metrics"):
            spec.with_overrides({"metrics": "rows"})


#: Event-path scenarios for the mode comparison: hashed shards shedding
#: under a burst, two tenants under WFQ with SLO push-out, and a tier whose
#: shards join and retire mid-run.
EVENT_PATH_SCENARIOS = {
    "sharded-burst": {"workload.num_requests": 512},
    "noisy-neighbor": {},
    "autoscale-diurnal": {},
}


class TestEventPathEquivalenceSharded:
    """Shed, tenant and resizing tiers: both modes run the event loop."""

    @pytest.fixture(scope="class", params=sorted(EVENT_PATH_SCENARIOS))
    def reports(self, request):
        spec = get_scenario(request.param).with_overrides(EVENT_PATH_SCENARIOS[request.param])
        streaming = spec.with_overrides({"metrics": "streaming"})
        assert not fast_path_eligible(streaming)
        return run(spec), run(streaming)

    def test_streaming_matches_full(self, reports):
        full, stream = reports
        assert_streaming_matches_full(full.load, stream.load)

    def test_tier_accounting_preserved(self, reports):
        full, stream = reports
        assert stream.max_shard_routed == full.max_shard_routed
        assert stream.conserved and full.conserved


class TestEventPathEquivalencePlain:
    """Plain tier forced onto the event path (priority queues are ineligible)."""

    @pytest.fixture(scope="class")
    def reports(self):
        spec = get_scenario("engine-baseline").with_overrides(
            {"workload.num_requests": 256, "tier.queue_discipline": "priority"}
        )
        assert not fast_path_eligible(spec.with_overrides({"metrics": "streaming"}))
        full = run(spec)
        stream = run(spec.with_overrides({"metrics": "streaming"}))
        return full, stream

    def test_streaming_matches_full(self, reports):
        full, stream = reports
        assert_streaming_matches_full(full.load, stream.load)


class TestFastPathEligibility:
    def test_million_request_scenario_is_eligible(self):
        assert fast_path_eligible(get_scenario("million-request"))

    def test_full_metrics_is_not(self):
        assert not fast_path_eligible(get_scenario("engine-baseline"))

    def test_dynamic_topologies_are_not(self):
        for name in ("sharded-burst", "jsq-hotkey", "autoscale-diurnal"):
            spec = get_scenario(name).with_overrides({"metrics": "streaming"})
            assert not fast_path_eligible(spec), name
        # A faulted spec never streams: its recovery is scored from rows.
        with pytest.raises(ScenarioValidationError, match="fault recovery"):
            get_scenario("fault-recovery").with_overrides({"metrics": "streaming"})

    def test_priority_discipline_is_not(self):
        spec = get_scenario("engine-baseline").with_overrides(
            {"metrics": "streaming", "tier.queue_discipline": "priority"}
        )
        assert not fast_path_eligible(spec)


class TestFastPathSanity:
    """The fast path against the event path on the same plain-tier spec.

    Counts and conservation are exact by construction.  The queueing columns
    carry the documented approximation (steady-state oracle memoization, no
    keep-alive daemon re-cooling idle functions), so they are
    bounded loosely here — at low utilization the gap stays well under the
    factor the bounds allow, and tightening them would pin the approximation
    rather than the contract.
    """

    @pytest.fixture(scope="class")
    def reports(self):
        spec = get_scenario("engine-baseline").with_overrides(
            {"workload.num_requests": 512, "arrival.utilization": 0.4}
        )
        event = run(spec)
        fast = run(spec.with_overrides({"metrics": "streaming"}))
        return event.load, fast.load

    def test_counts_exact(self, reports):
        event, fast = reports
        for field in ("submitted", "completed", "served", "requeued", "degraded", "shed"):
            assert getattr(fast, field) == getattr(event, field), field
        assert fast.conserved
        assert fast.outcomes == []

    def test_queueing_columns_close(self, reports):
        event, fast = reports
        assert fast.mean_sojourn_seconds == pytest.approx(event.mean_sojourn_seconds, rel=0.35)
        assert fast.mean_wait_seconds == pytest.approx(event.mean_wait_seconds, rel=0.35)
        assert fast.mean_queue_depth == pytest.approx(event.mean_queue_depth, rel=0.35)
        assert 0 < fast.max_queue_depth <= 2 * event.max_queue_depth

    def test_percentiles_ordered(self, reports):
        _, fast = reports
        assert 0.0 < fast.p50_sojourn_seconds <= fast.p95_sojourn_seconds
        assert fast.p95_sojourn_seconds <= fast.p99_sojourn_seconds


class TestStreamingMemoryGuard:
    """A 10^5-request streaming run must not accumulate per-request state.

    The fast path holds a handful of float64 arrays (~0.8 MB each at this
    size) plus chunked transients — measured peak is ~10 MB.  The 24 MB
    bound fails loudly if anyone reintroduces per-request object retention
    (the full path's outcome rows alone would blow well past it).
    """

    def test_hundred_thousand_requests_bounded(self):
        spec = get_scenario("million-request").with_overrides(
            {"workload.num_requests": 100_000}
        )
        run(spec)  # warm imports, registries, and calibration caches
        tracemalloc.start()
        try:
            report = run(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.load.outcomes == []
        assert report.load.completed == 100_000
        assert report.conserved
        assert peak < 24 * 2**20

    def test_registered_million_request_run_serves_every_request(self):
        """The registered headline run, at its full 10^6 requests."""
        spec = get_scenario("million-request")
        assert spec.workload.num_requests == 10**6
        row = run(spec).row()
        assert row["conserved"] is True
        assert row["completed"] == row["served"] == 10**6
