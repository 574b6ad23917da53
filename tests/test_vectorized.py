"""The fast path's streamed loop and its per-block steps against their loop forms.

``run_fast_path`` serves a run in ``_CHUNK`` blocks
(:func:`repro.engine.vectorized._serve_stream`).  ``_start_times`` computes
one block's single-slot FIFO starts with a vectorized guess, fill and
certificate (:func:`repro.engine.vectorized._fifo_starts`), carrying each
function's busy time to the next block.  The loop it replaced is kept here
verbatim as the executable specification, and every start must equal the
loop's bit for bit: on exact ties, zero services, requests with no
function, interleaved functions, busy periods that span blocks or outgrow
the short-period cutoff, and near-ties built to defeat the guess.  The
several-slot heap branch is pinned to its own loop the same way,
``_max_queue_depth`` and its carried frontier to the lexsort sweep it
replaced, and the whole loop to the whole-array pipeline it replaced, on
every ``LoadReport`` column.  Every property feeds the per-block steps one
block at a time under ``_CHUNK`` patches down to one request, so busy
times, slot heaps and the frontier cross many block boundaries.
"""

from __future__ import annotations

import contextlib
import heapq
import tracemalloc
from math import inf
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import vectorized
from repro.engine.streaming import StreamingLoadCollector
from repro.scenario import build as scenario_build
from repro.scenario import get_scenario, run


def reference_start_times(arrivals, function_index, service, num_functions, slots):
    """``_start_times`` as one Python loop per branch (the pre-vectorized form)."""
    n = arrivals.size
    starts = np.empty(n, dtype=np.float64)
    if slots == 1:
        busy = [-inf] * num_functions
        for chunk_start in range(0, n, vectorized._CHUNK):
            stop = min(chunk_start + vectorized._CHUNK, n)
            arrived = arrivals[chunk_start:stop].tolist()
            functions = function_index[chunk_start:stop].tolist()
            services = service[chunk_start:stop].tolist()
            out = arrived
            for i, at in enumerate(arrived):
                f = functions[i]
                if f < 0:
                    continue
                free_at = busy[f]
                begin = at if at > free_at else free_at
                out[i] = begin
                busy[f] = begin + services[i]
            starts[chunk_start:stop] = out
        return starts
    heaps = [[-inf] * slots for _ in range(num_functions)]
    heapreplace = heapq.heapreplace
    for chunk_start in range(0, n, vectorized._CHUNK):
        stop = min(chunk_start + vectorized._CHUNK, n)
        arrived = arrivals[chunk_start:stop].tolist()
        functions = function_index[chunk_start:stop].tolist()
        services = service[chunk_start:stop].tolist()
        out = arrived
        for i, at in enumerate(arrived):
            f = functions[i]
            if f < 0:
                continue
            heap = heaps[f]
            free_at = heap[0]
            begin = at if at > free_at else free_at
            out[i] = begin
            heapreplace(heap, begin + services[i])
        starts[chunk_start:stop] = out
    return starts


def reference_max_queue_depth(arrivals, starts, waits):
    """``_max_queue_depth`` as a sorted +1/-1 sweep (the pre-searchsorted form)."""
    queued = waits > 0.0
    count = int(np.count_nonzero(queued))
    if count == 0:
        return 0
    times = np.concatenate([arrivals[queued], starts[queued]])
    deltas = np.concatenate([np.ones(count, dtype=np.int64), np.full(count, -1, dtype=np.int64)])
    order = np.lexsort((deltas, times))
    return int(np.cumsum(deltas[order]).max())


def near_ties(rng, functions, num_functions):
    """Arrivals at, or one ulp either side of, the loop's busy-until time.

    The guess sums services in a different order from the loop, so it
    cannot tell these apart: it misses heads and invents them.
    """
    service = rng.uniform(0.05, 1.0, functions.size)
    arrivals = np.empty(functions.size)
    busy = [1e3] * num_functions
    for k, f in enumerate(functions.tolist()):
        if f < 0:
            arrivals[k] = 1e3
            continue
        side = int(rng.integers(-1, 2))
        at = busy[f] if side == 0 else float(np.nextafter(busy[f], side * inf))
        arrivals[k] = at
        busy[f] = (at if at > busy[f] else busy[f]) + service[k]
    return arrivals, service


def stream(shape, n, num_functions, seed):
    """``(arrivals, function_index, service)`` for one request stream.

    * ``ties``: arrivals on an integer grid and services of 0, 1 or 2, so
      arrivals tie each other and the busy-until time exactly.
    * ``light``: Poisson-like, with repeated arrival instants and some zero
      services.
    * ``overloaded``: arrivals far faster than service near 10^6, so busy
      periods span chunks, outgrow the short-period cutoff, and round.
    * ``near-tie``: see :func:`near_ties`.
    """
    rng = np.random.default_rng(seed)
    functions = rng.integers(-1, num_functions, n)
    if shape == "ties":
        arrivals = np.sort(rng.integers(0, n // 2 + 1, n)).astype(float)
        service = rng.integers(0, 3, n).astype(float)
    elif shape == "light":
        arrivals = np.cumsum(rng.exponential(2.0, n) * (rng.random(n) < 0.8))
        service = rng.exponential(1.0, n) * (rng.random(n) < 0.9)
    elif shape == "overloaded":
        arrivals = 1e6 + np.cumsum(rng.exponential(0.05, n))
        service = rng.exponential(1.0, n)
    else:
        arrivals, service = near_ties(rng, functions, num_functions)
    return arrivals, functions, service


SHAPES = ("ties", "light", "overloaded", "near-tie")


@st.composite
def streams(draw):
    """A stream plus the ``_CHUNK`` and ``_SHORT_PERIOD`` to run it under."""
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 300))
    num_functions = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    chunk = draw(st.sampled_from([1, 2, 3, 7, 64, vectorized._CHUNK]))
    short = draw(st.sampled_from([1, 2, 5, vectorized._SHORT_PERIOD]))
    return stream(shape, n, num_functions, seed), num_functions, chunk, short


def exact(got, expected):
    """Bitwise equality of two float arrays."""
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def spy(name):
    """Patch ``vectorized.<name>`` with a mock that calls through and counts calls."""
    return mock.patch.object(vectorized, name, wraps=getattr(vectorized, name))


def in_arrival_order(arrivals, functions, service):
    """The stream sorted by arrival, as every arrival process emits one.

    Only ``near-tie`` streams need it: each function's arrivals track its
    own busy time, and requests with no function arrive at 10^3 s.  Each
    function's arrivals increase, so a stable sort keeps its requests in
    order, and with them its busy times and near-ties.
    """
    order = np.argsort(arrivals, kind="stable")
    return arrivals[order], functions[order], service[order]


def blocks(n):
    """The ``(start, stop)`` bounds of the ``_CHUNK`` blocks over ``n`` requests."""
    chunk = vectorized._CHUNK
    return [(start, min(start + chunk, n)) for start in range(0, n, chunk)]


def streamed_start_times(arrivals, functions, service, num_functions, slots):
    """``_start_times`` fed one block at a time, each function's slot heap carried."""
    free = [[-inf] * slots for _ in range(num_functions)]
    return np.concatenate(
        [
            vectorized._start_times(arrivals[a:b], functions[a:b], service[a:b], free)
            for a, b in blocks(arrivals.size)
        ]
    )


def streamed_max_queue_depth(arrivals, starts, waits):
    """``_max_queue_depth`` fed one block at a time, the frontier carried."""
    peak, frontier = 0, np.empty(0)
    for a, b in blocks(arrivals.size):
        depth, frontier = vectorized._max_queue_depth(
            arrivals[a:b], starts[a:b], waits[a:b], frontier
        )
        peak = max(peak, depth)
    return peak


def streamed_report(arrivals, functions, service, num_functions, slots, slo, source="test"):
    """``_serve_stream``'s ``LoadReport``, each request its own class."""
    return vectorized._serve_stream(
        arrivals.copy(),
        (np.arange(a, b) for a, b in blocks(arrivals.size)),
        service,
        functions,
        [[-inf] * slots for _ in range(num_functions)],
        StreamingLoadCollector(slo),
        label="test",
        source=source,
    )


def whole_array_report(arrivals, functions, service, num_functions, slots, slo):
    """The whole-array pipeline the streamed loop replaced, on the reference loops.

    Starts, waits, completions and sojourns are full-length arrays, folded
    one ``_CHUNK`` chunk at a time; the mean depth divides one sum over
    every wait by the horizon, and the max depth is the lexsort sweep's.
    """
    starts = reference_start_times(arrivals, functions, service, num_functions, slots)
    waits = starts - arrivals
    completions = starts + service
    sojourns = completions - arrivals
    collector = StreamingLoadCollector(slo)
    for a, b in blocks(arrivals.size):
        collector.fold_served_arrays(sojourns[a:b], waits[a:b])
    last_completion = float(completions.max())
    collector.note_completion_time(last_completion)
    horizon = last_completion - float(arrivals[0])
    return collector.build_report(
        "test",
        submitted=arrivals.size,
        first_arrival=float(arrivals[0]),
        last_arrival=float(arrivals[-1]),
        depth_profile=(
            float(waits.sum()) / horizon if horizon > 0 else 0.0,
            reference_max_queue_depth(arrivals, starts, waits),
        ),
    )


@contextlib.contextmanager
def constants(chunk=None, short=None):
    """Patch ``_CHUNK`` and ``_SHORT_PERIOD``; ``None`` keeps the module's value."""
    with (
        mock.patch.object(vectorized, "_CHUNK", chunk or vectorized._CHUNK),
        mock.patch.object(vectorized, "_SHORT_PERIOD", short or vectorized._SHORT_PERIOD),
    ):
        yield


def start_times(arrivals, functions, service, num_functions, slots=1, chunk=None, short=None):
    """Block-fed ``_start_times`` under the constants, the loop's starts, and the fallback count."""
    with constants(chunk, short), spy("_scalar_starts") as fallback:
        starts = streamed_start_times(arrivals, functions, service, num_functions, slots)
        expected = reference_start_times(arrivals, functions, service, num_functions, slots)
    return starts, expected, fallback.call_count


def fast_path_peak(num_requests):
    """tracemalloc's peak over ``run_fast_path`` serving ``million-request``."""
    spec = get_scenario("million-request").with_overrides(
        {"seed": 7, "workload.num_requests": num_requests}
    )
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return vectorized.run_fast_path(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    with mock.patch.object(scenario_build, "run_fast_path", traced):
        report = run(spec)
    assert report.load.completed == num_requests
    return peaks[0]


class TestSingleSlotRecurrence:
    @settings(max_examples=300, deadline=None)
    @given(case=streams())
    def test_equals_the_loop_bit_for_bit(self, case):
        (arrivals, functions, service), num_functions, chunk, short = case
        starts, expected, _ = start_times(
            arrivals, functions, service, num_functions, chunk=chunk, short=short
        )
        assert exact(starts, expected)

    def test_near_ties_defeat_the_guess_and_the_fallback_restores_the_loop(self):
        arrivals, functions, service = stream("near-tie", 2000, 1, seed=11)
        starts, expected, fallbacks = start_times(arrivals, functions, service, 1, chunk=500)
        assert fallbacks > 0
        assert exact(starts, expected)

    def test_long_periods_across_chunks_need_no_fallback(self):
        """Bursts of ~40 requests at 10^6 s, 100 s apart, in chunks of 64.

        Heads clear by seconds, so the guess is right and no chunk falls
        back; the fill alone must round as the loop does, carry the busy
        time across chunk boundaries, and continue periods past the cutoff.
        """
        rng = np.random.default_rng(5)
        bursts = np.repeat(1e6 + 100.0 * np.arange(50), 40)
        arrivals = bursts + np.tile(np.cumsum(rng.uniform(0.0, 0.01, 40)), 50)
        service = rng.uniform(0.1, 2.0, arrivals.size)
        functions = np.zeros(arrivals.size, dtype=np.int64)
        starts, expected, fallbacks = start_times(
            arrivals, functions, service, 1, chunk=64, short=4
        )
        assert fallbacks == 0
        assert exact(starts, expected)
        assert (starts > arrivals).sum() > 1900

    def test_registered_million_request_run_never_falls_back(self):
        """The claimed speed is the path the registered run takes."""
        spec = get_scenario("million-request").with_overrides({"seed": 7})
        with spy("_scalar_starts") as fallback, spy("_fifo_starts") as fifo:
            report = run(spec)
        assert report.load.completed == 10**6
        assert fifo.call_count >= 10**6 // vectorized._CHUNK
        assert fallback.call_count == 0


class TestSeveralSlotHeap:
    @settings(max_examples=150, deadline=None)
    @given(case=streams(), slots=st.integers(2, 3))
    def test_equals_the_loop_bit_for_bit(self, case, slots):
        (arrivals, functions, service), num_functions, chunk, _ = case
        starts, expected, _ = start_times(
            arrivals, functions, service, num_functions, slots=slots, chunk=chunk
        )
        assert exact(starts, expected)


class TestMaxQueueDepth:
    def test_a_start_at_an_arrivals_instant_counts_first(self):
        # The second waiter starts at 1.0, the instant the third arrives:
        # one waiter at a time, never two.
        arrivals = np.array([0.0, 0.5, 1.0])
        starts = np.array([0.0, 1.0, 2.0])
        waits = starts - arrivals
        assert reference_max_queue_depth(arrivals, starts, waits) == 1
        for chunk in (1, 2, 3):
            with constants(chunk):
                assert streamed_max_queue_depth(arrivals, starts, waits) == 1

    def test_nobody_waits(self):
        arrivals = np.array([0.0, 1.0])
        depth, frontier = vectorized._max_queue_depth(arrivals, arrivals, np.zeros(2), np.empty(0))
        assert (depth, frontier.size) == (0, 0)

    def test_the_frontier_keeps_only_the_starts_after_the_last_arrival(self):
        # Two earlier waiters start at 2.5 and 3.5.  Both requests of this
        # block queue too: one starts at 2.5, before the block's last arrival
        # at 3.0, and the other at 4.0, after it.
        arrivals = np.array([2.0, 3.0])
        starts = np.array([2.5, 4.0])
        depth, frontier = vectorized._max_queue_depth(
            arrivals, starts, starts - arrivals, np.array([2.5, 3.5])
        )
        # The first arrival finds the two carried waiters and itself.
        assert depth == 3
        assert frontier.tolist() == [3.5, 4.0]

    @settings(max_examples=200, deadline=None)
    @given(case=streams(), slots=st.integers(1, 3), shuffle=st.booleans())
    def test_equals_the_lexsort_sweep(self, case, slots, shuffle):
        (arrivals, functions, service), num_functions, chunk, _ = case
        arrivals, functions, service = in_arrival_order(arrivals, functions, service)
        starts = reference_start_times(arrivals, functions, service, num_functions, slots)
        if shuffle:
            order = np.random.default_rng(arrivals.size).permutation(arrivals.size)
            arrivals, functions, service = arrivals[order], functions[order], service[order]
            starts = starts[order]
        waits = starts - arrivals
        with constants(chunk):
            if (arrivals[1:] < arrivals[:-1]).any():
                # The depth count needs arrivals in order, so the streamed
                # loop rejects a stream out of order and names its source.
                with pytest.raises(ValueError, match="'shuffled'.*nondecreasing"):
                    streamed_report(
                        arrivals, functions, service, num_functions, slots, None, "shuffled"
                    )
                return
            depth = streamed_max_queue_depth(arrivals, starts, waits)
        assert depth == reference_max_queue_depth(arrivals, starts, waits)


class TestStreamedLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=streams(), slots=st.integers(1, 3), slo=st.sampled_from([None, 0.5, 3.0]))
    def test_every_report_column_equals_the_whole_array_pipeline(self, case, slots, slo):
        (arrivals, functions, service), num_functions, chunk, short = case
        arrivals, functions, service = in_arrival_order(arrivals, functions, service)
        with constants(chunk, short):
            streamed = streamed_report(arrivals, functions, service, num_functions, slots, slo)
            expected = whole_array_report(arrivals, functions, service, num_functions, slots, slo)
        assert streamed == expected

    def test_a_decrease_across_a_block_boundary_is_rejected(self):
        # Each block of two is in order; the second starts before the first ends.
        arrivals = np.array([0.0, 2.0, 1.0, 3.0])
        functions = np.zeros(4, dtype=np.int64)
        service = np.ones(4)
        with constants(2), pytest.raises(ValueError, match="requests 1 and 3"):
            streamed_report(arrivals, functions, service, 1, 1, None)

    def test_peak_memory_grows_by_one_float_per_request(self):
        """From 2^17 to 2^19 requests the peak grows by about 8 B a request.

        Every block's scratch is the same size at any run length; only the
        arrivals, which end holding the waits, grow with the run.
        """
        small, large = fast_path_peak(2**17), fast_path_peak(2**19)
        assert (large - small) / (2**19 - 2**17) <= 10
