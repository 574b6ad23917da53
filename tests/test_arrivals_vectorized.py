"""Arrival generation is byte-identical to the original scalar loops.

The reference functions below are verbatim copies of the original scalar
loops (same draw order, same float accumulation), kept as independent
copies of what each process computes.  Every process must reproduce them
bit-for-bit at seed 7 — both through ``times()`` (list API) and
``times_array()`` (ndarray API) — across sizes and non-default parameters.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.traces.arrivals import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrival_process,
)


def _reference_poisson(process: PoissonArrivals, num_requests: int) -> list[float]:
    gaps = process._rng().exponential(scale=1.0 / process.rate_rps, size=num_requests)
    return np.cumsum(gaps).tolist()


def _reference_bursty(process: BurstyArrivals, num_requests: int) -> list[float]:
    rng = process._rng(process.mean_on_seconds, process.mean_off_seconds)
    arrivals: list[float] = []
    clock = 0.0
    while len(arrivals) < num_requests:
        on_duration = rng.exponential(process.mean_on_seconds)
        t = clock + rng.exponential(1.0 / process.burst_rate_rps)
        while t <= clock + on_duration and len(arrivals) < num_requests:
            arrivals.append(t)
            t += rng.exponential(1.0 / process.burst_rate_rps)
        clock += on_duration + rng.exponential(process.mean_off_seconds)
    return arrivals


def _reference_diurnal(process: DiurnalArrivals, num_requests: int) -> list[float]:
    rng = process._rng(process.amplitude, process.period_seconds)
    peak_rate = process.rate_rps * (1.0 + process.amplitude)
    arrivals: list[float] = []
    t = 0.0
    while len(arrivals) < num_requests:
        t += rng.exponential(1.0 / peak_rate)
        if rng.random() <= process._rate_at(t) / peak_rate:
            arrivals.append(t)
    return arrivals


_REFERENCES = {
    "poisson": _reference_poisson,
    "bursty": _reference_bursty,
    "diurnal": _reference_diurnal,
}


class TestByteIdentityAtSeed7:
    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    @pytest.mark.parametrize("rate", [2.0, 8.0, 50.0])
    @pytest.mark.parametrize("num_requests", [0, 1, 7, 500, 5000])
    def test_times_matches_the_pre_vectorization_loop(self, kind, rate, num_requests):
        process = make_arrival_process(kind, rate, seed=7)
        expected = _REFERENCES[kind](process, num_requests)
        assert process.times(num_requests) == expected

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_times_array_equals_times_exactly(self, kind):
        process = make_arrival_process(kind, 8.0, seed=7)
        arr = process.times_array(2500)
        assert arr.dtype == np.float64
        assert arr.tolist() == process.times(2500)

    def test_bursty_with_non_default_windows(self):
        process = BurstyArrivals(8.0, seed=7, mean_on_seconds=2.0, mean_off_seconds=0.0)
        assert process.times(3000) == _reference_bursty(process, 3000)

    def test_bursty_with_long_quiet_gaps(self):
        # Sparse windows: most windows hold zero or one arrival, exercising
        # the terminating-draw bookkeeping.
        process = BurstyArrivals(0.5, seed=7, mean_on_seconds=0.2, mean_off_seconds=30.0)
        assert process.times(400) == _reference_bursty(process, 400)

    def test_bursty_across_internal_block_boundaries(self):
        # A high-rate burst pulls tens of thousands of gap draws from one
        # window.
        process = BurstyArrivals(20000.0, seed=7, mean_on_seconds=10.0, mean_off_seconds=5.0)
        assert process.times(150_000) == _reference_bursty(process, 150_000)

    def test_sparse_bursty_windows_stay_linear(self):
        # At 0.1 req/s an ON window holds about two arrivals; generation must
        # hold no memory beyond its output, whatever the window count.
        process = BurstyArrivals(0.1, seed=7)
        tracemalloc.start()
        try:
            arrivals = process.times_array(10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arrivals.tolist() == _reference_bursty(process, 10_000)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        ("rate", "num_requests"),
        [
            # noisy-neighbor's bursty tenant: about two arrivals per window.
            (0.092, 3000),
            # hotkey-replicated's offered rate: about 39 arrivals per window.
            (1.97, 1500),
        ],
    )
    def test_bursty_at_registered_scenario_rates(self, rate, num_requests):
        process = BurstyArrivals(rate, seed=7)
        expected = _reference_bursty(process, num_requests)
        assert process.times_array(num_requests).tolist() == expected
        assert process.times(num_requests) == expected

    def test_diurnal_with_non_default_cycle(self):
        process = DiurnalArrivals(8.0, seed=7, amplitude=0.3, period_seconds=40.0)
        assert process.times(3000) == _reference_diurnal(process, 3000)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_other_seeds_match_too(self, kind):
        # The equivalence is structural, not a seed-7 coincidence.
        process = make_arrival_process(kind, 8.0, seed=123)
        assert process.times(1200) == _REFERENCES[kind](process, 1200)


class TestArrayApiContract:
    def test_empty_request_count_yields_empty_array(self):
        for kind in ARRIVAL_KINDS:
            arr = make_arrival_process(kind, 8.0).times_array(0)
            assert arr.size == 0 and arr.dtype == np.float64

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_times_are_non_decreasing_and_positive(self, kind):
        arr = make_arrival_process(kind, 8.0).times_array(4000)
        assert arr.size == 4000
        assert float(arr[0]) > 0.0
        assert bool(np.all(np.diff(arr) >= 0.0))
