"""The vectorized fast path: million-request single-tier runs in seconds.

The discrete-event path costs about 170 µs per request — generator
processes, heap traffic, per-request ``FLStore.serve`` calls: the bench's
``engine-baseline-1k`` workload runs about 6,000 requests per second on the
event path, scaled to the bench's reference machine (``bench/README.md``).
That is the right price for faulted, autoscaled, or admission-controlled
topologies, and the wrong one for the raw-speed question ("what does this
tier do under a million requests?").  This module answers that question in
single-digit seconds by replacing the event loop with closed-form queueing:

* **compact trace** — the request stream is represented as int64 *signature
  classes* (workload x target round), drawn a block at a time from the same
  RNG stream as :meth:`repro.traces.generator.RequestTraceGenerator.mixed_trace`
  (``Generator.choice`` is stream-identical drawn scalar or batched), so the
  fast path serves the same request sequence without materializing a million
  ``WorkloadRequest`` objects.
* **oracle memoization** — each distinct class is served through the real
  analytic :class:`~repro.core.flstore.FLStore` twice (a warm pass that
  pays the cold start and fills the cache, then a steady pass whose result
  is memoized), so per-class service times, costs, and execution-function
  routing come from the true oracle, not a model of it.
* **slot recurrence** — FIFO per-function c-slot queueing collapses to
  ``start = max(arrival, earliest-free-slot)``.  With one slot (c=1) numpy
  computes the starts exactly as the per-request loop would: a closed-form
  Lindley maximum guesses where each busy period begins, each period is
  filled with the loop's own left-to-right float additions, and every
  start is certified against the loop's step.  If all pass, the starts
  equal the loop's by induction; at the first that fails, the loop's step
  finishes the block, so the worst case costs about one loop
  (:func:`_fifo_starts`).  With c > 1 a per-function heap of slot free
  times runs the loop over Python floats.
* **block streaming** — the run is one loop over ``_CHUNK``-request
  blocks (:func:`_serve_stream`).  Each block draws its classes, runs the
  slot recurrence from every function's carried slot state, folds its
  waits and sojourns into a :class:`~repro.engine.streaming.
  StreamingLoadCollector`, and counts its peak queue depth.  The mean
  queue depth is exact (total wait over the horizon); the max depth counts
  the waiters each queued arrival finds, a binary search over the block's
  queued starts and a carried *frontier* of earlier queued starts not yet
  at or before the previous block's last arrival (:func:`_max_queue_depth`).
  The run holds one float64 per request: the arrival instants, which each
  finished block overwrites with its waits, so the total wait is numpy's
  pairwise sum over the whole run (a sum of per-block sums rounds
  differently in the last digits).  Everything else is O(``_CHUNK``)
  scratch, plus the frontier, which holds the requests still queued at a
  block boundary.

What the fast path approximates, relative to the event path: per-request
cache-state evolution (every request of a class gets the class's
steady-state oracle result, served straight after the class's warm pass),
same-instant tie ordering in the max-depth column, the sketched percentile
columns, and the keep-alive daemon (not scheduled — eligibility requires a
fault-free tier, where it only adds a report counter).  Counts,
conservation, means, rates, and the mean queue depth are exact given the
memoized oracle.  The memoized oracle itself runs warmer than a real run,
where other requests keep evicting a class's data: at 4,000 requests of the
``million-request`` mix (seed 7), ``clustering`` requests average 2.26
cache misses and 24.97 s of service on the event path against 0.79 and
12.71 s here, while ``inference`` and ``scheduling_perf`` agree to within
0.01 misses and 0.01 s.  So the latency columns understate a mix whose
working set does not fit in the cache.

Eligibility (:func:`fast_path_eligible`) is deliberately narrow: a plain
(unrouted, one-shard) tier, FIFO discipline, unbounded admission, no faults, no
autoscaler, no remediation, and ``metrics="streaming"``.  Everything else
takes the event path, which remains the semantic reference.
"""

from __future__ import annotations

import heapq
from math import inf

import numpy as np

from repro.common.ids import IdGenerator
from repro.common.rng import derive_rng
from repro.engine.streaming import StreamingLoadCollector
from repro.workloads.base import PolicyClass, WorkloadRequest
from repro.workloads.registry import get_workload

#: Requests per block of the streamed loop: large enough to amortize numpy
#: dispatch, small enough that a block's scratch arrays (and the Python
#: floats of the several-slot heap loop) stay a few MB on any run size.
_CHUNK = 65536

#: Busy periods of up to this many requests are filled together, one position
#: at a time; each longer one gets its own ``np.cumsum`` (see
#: :func:`_fifo_starts`).
_SHORT_PERIOD = 48


def fast_path_eligible(spec) -> bool:
    """Whether ``spec`` can run on the vectorized fast path.

    True only for the topology whose queueing is closed-form: one plain
    one-shard tier, FIFO queues, unbounded admission, nothing dynamic (no
    faults, autoscaler, or remediation controller mutating the tier
    mid-run), and streaming metrics (the fast path retains no rows).
    """
    return not explain_fast_path(spec)


def explain_fast_path(spec) -> list[str]:
    """The knobs disqualifying ``spec`` from the fast path (empty = eligible).

    The event-path fallback is silent by design (the run is still correct,
    just slower); this is the diagnostic surface — ``run-scenario --smoke``
    prints it, so a spec author can see exactly which knob keeps a scenario
    off the vectorized path.  Reasons mirror :func:`fast_path_eligible`'s
    conditions one-for-one, in the same order.
    """
    reasons: list[str] = []
    if spec.metrics != "streaming":
        reasons.append(f'metrics={spec.metrics!r} retains rows (needs "streaming")')
    if spec.tier.sharded:
        reasons.append(
            f"tier.router_kind={spec.tier.router_kind!r} routes arrivals over a sharded "
            "ring (needs None)"
        )
    if spec.tier.queue_discipline != "fifo":
        reasons.append(
            f"tier.queue_discipline={spec.tier.queue_discipline!r} reorders the queue "
            '(needs "fifo")'
        )
    if spec.tier.admission.max_queue_depth != 0:
        reasons.append(
            f"tier.admission.max_queue_depth={spec.tier.admission.max_queue_depth} bounds "
            "admission (needs 0 = unbounded)"
        )
    if spec.tenants:
        reasons.append(
            f"{len(spec.tenants)} tenant(s) need per-flow scheduling and SLO accounting"
        )
    if spec.faults:
        reasons.append(f"{len(spec.faults)} fault clause(s) mutate the tier mid-run")
    if spec.remediation.enabled:
        reasons.append("remediation.enabled attaches the repair control loop")
    if spec.tier.autoscaler.enabled:
        reasons.append("tier.autoscaler.enabled resizes the tier mid-run")
    return reasons


def _class_table(catalog, workload_names):
    """Map every (workload, trace position round) pair to a signature class.

    Mirrors ``mixed_trace``'s per-request construction: P1 workloads always
    target the newest round (one class per workload), P3 workloads follow
    the round's first participant, P2/P4 target the cycled round itself.
    Returns the ``(workload index, round position) -> class`` lookup plus
    each class's ``(workload, round, client)`` exemplar signature.
    """
    rounds = catalog.rounds()
    latest = catalog.latest_round
    classes: dict[tuple, int] = {}
    signatures: list[tuple] = []
    lookup = np.empty((len(workload_names), len(rounds)), dtype=np.int64)
    for name_index, name in enumerate(workload_names):
        workload = get_workload(name)
        for round_position, round_id in enumerate(rounds):
            request_round = round_id
            client_id = None
            if workload.policy_class is PolicyClass.P1_INDIVIDUAL:
                request_round = latest
            elif workload.policy_class is PolicyClass.P3_ACROSS_ROUNDS:
                participants = catalog.participants(round_id)
                client_id = participants[0] if participants else None
            key = (name, request_round, client_id)
            if key not in classes:
                classes[key] = len(signatures)
                signatures.append(key)
            lookup[name_index, round_position] = classes[key]
    return lookup, signatures


def _memoize_oracle(flstore, signatures):
    """Serve each signature class through the analytic oracle; memoize.

    Two passes: the first pays each class's cold start and fills the cache
    (exactly what the head of an event-path run does), the second serves
    against the warmed store and its results — service time, cost, execution
    function — stand in for every request of the class.  Request ids are
    unique per serve (the store's tracker rejects duplicates).
    """
    ids = IdGenerator(prefix="fastpath-req", width=6)

    def serve(signature):
        name, round_id, client_id = signature
        return flstore.serve(
            WorkloadRequest(
                request_id=ids.next(),
                workload=name,
                round_id=round_id,
                client_id=client_id,
            )
        )

    for signature in signatures:
        serve(signature)
    return [serve(signature) for signature in signatures]


def _class_stream(seed, lookup, num_requests):
    """Each ``_CHUNK`` block's class indices, drawn in turn from the mixed-trace RNG.

    ``lookup`` is :func:`_class_table`'s ``(workload index, round position)
    -> class`` table; the trace cycles the rounds every ``num_workloads``
    requests, as ``mixed_trace`` does.
    """
    rng = derive_rng(seed, "mixed-trace")
    num_workloads, num_rounds = lookup.shape
    for start in range(0, num_requests, _CHUNK):
        stop = min(start + _CHUNK, num_requests)
        name_index = rng.choice(num_workloads, size=stop - start)
        round_position = (np.arange(start, stop) // num_workloads) % num_rounds
        yield lookup[name_index, round_position]


def _scalar_starts(arrived, services, busy):
    """The FIFO single-slot step, one request at a time from ``busy`` on.

    ``busy`` is when the function frees up before ``arrived[0]``.  Returns
    the starts as a list and the function's busy-until time after the last
    request.  This is the reference the vectorized recurrence certifies
    against, and its fallback.
    """
    out = arrived.tolist()
    for i, (at, duration) in enumerate(zip(out, services.tolist())):
        begin = at if at > busy else busy
        out[i] = begin
        busy = begin + duration
    return out, busy


def _fifo_starts(arrived, services, busy):
    """One function's single-slot FIFO starts over one chunk, exactly as the loop.

    ``busy`` is when the function frees up before ``arrived[0]``; returns the
    starts and the busy-until time after the last request.

    1. **Guess** the busy-period heads from the closed-form Lindley maximum:
       in exact arithmetic, start ``k`` is the prior cumulative service plus
       the running maximum of ``arrival - prior cumulative service`` (seeded
       with ``busy``), so a period opens wherever that term sets a new
       maximum.  Rounding can move a near-tie either way, so this is a guess.
    2. **Fill** every period with the loop's own left-to-right additions,
       ``start[k] = start[k-1] + service[k-1]`` from the head's arrival.
       Periods of up to ``_SHORT_PERIOD`` requests are filled together, one
       position at a time; each longer one finishes with one ``np.cumsum``
       seeded with its last filled start (``np.cumsum`` adds left to right).
    3. **Certify** every start with the loop's step,
       ``start[k] == (a[k] if a[k] > free[k] else free[k])`` where
       ``free[k] = start[k-1] + service[k-1]``.  If all hold, the starts equal
       the loop's by induction on ``k``; at the first that fails, the prefix
       before it is already the loop's, and :func:`_scalar_starts` finishes
       the chunk, so the worst case costs about one loop plus the vector
       passes.
    """
    n = arrived.size
    # 1. Guess: ``ceiling`` holds the prior cumulative service, then arrival
    # minus it, then its running maximum from ``busy``.
    ceiling = np.empty(n + 1)
    ceiling[0] = busy
    ceiling[1] = 0.0
    np.cumsum(services[:-1], out=ceiling[2:])
    np.subtract(arrived, ceiling[1:], out=ceiling[1:])
    np.maximum.accumulate(ceiling, out=ceiling)
    opens = ceiling[1:] > ceiling[:-1]
    opens[0] = True
    heads = np.flatnonzero(opens)
    lengths = np.diff(heads, append=n)

    # 2. Fill.  Position 0 opens a period at its arrival, or at ``busy`` if it waits.
    starts = arrived.copy()
    if not arrived[0] > busy:
        starts[0] = busy
    longer = lengths > 1
    heads = heads[longer]
    lengths = lengths[longer]
    for offset in range(1, _SHORT_PERIOD):
        if not heads.size:
            break
        at = heads + offset
        starts[at] = starts[at - 1] + services[at - 1]
        longer = lengths > offset + 1
        heads = heads[longer]
        lengths = lengths[longer]
    for head, length in zip(heads.tolist(), lengths.tolist()):
        filled = head + _SHORT_PERIOD - 1
        stop = head + length
        tail = services[filled : stop - 1].copy()
        tail[0] += starts[filled]
        np.cumsum(tail, out=starts[filled + 1 : stop])

    # 3. Certify.
    free = np.empty(n)
    free[0] = busy
    np.add(starts[:-1], services[:-1], out=free[1:])
    failed = np.where(arrived > free, arrived, free) != starts
    if failed.any():
        first = int(failed.argmax())
        resume = float(free[first])
        starts[first:], busy = _scalar_starts(arrived[first:], services[first:], resume)
        return starts, busy
    return starts, float(starts[-1] + services[-1])


def _start_times(arrived, functions, services, free):
    """One block's FIFO c-slot start times, in arrival order.

    ``free[f]`` is function ``f``'s heap of slot free times (``c`` entries),
    carried from block to block and updated in place.  A request starts at
    ``max(arrival, earliest slot free)`` and occupies the slot for its
    service time; requests with no function (index -1) start on arrival.
    With one slot, each function's requests go through :func:`_fifo_starts`,
    the certified vectorized recurrence, which returns the loop's exact
    floats, with the heap's one entry as the busy-until time.  With
    several, the heaps run over plain Python floats (ndarray scalar access
    is several times slower), never holding more than one block of them.
    """
    slots = len(free[0]) if free else 1
    if slots == 1:
        starts = arrived.copy()
        for f, heap in enumerate(free):
            is_mine = functions == f
            count = np.count_nonzero(is_mine)
            if count == functions.size:
                starts[:], heap[0] = _fifo_starts(arrived, services, heap[0])
            elif count:
                mine = np.flatnonzero(is_mine)
                starts[mine], heap[0] = _fifo_starts(arrived[mine], services[mine], heap[0])
        return starts
    heapreplace = heapq.heapreplace
    out = arrived.tolist()
    functions = functions.tolist()
    services = services.tolist()
    for i, at in enumerate(out):
        f = functions[i]
        if f < 0:
            continue
        heap = free[f]
        free_at = heap[0]
        begin = at if at > free_at else free_at
        out[i] = begin
        heapreplace(heap, begin + services[i])
    return np.array(out, dtype=np.float64)


def _max_queue_depth(arrived, starts, waits, frontier):
    """One block's peak of concurrent waiters, and the frontier for the next.

    Only requests with a positive wait ever queue.  Taken in arrival order,
    the ``k``-th queued arrival of the run (from 1) finds ``k`` minus the
    number of queued starts at or before its instant waiting, itself
    included.  A start at exactly an arrival's instant counts first
    (``side="right"``), so a slot handoff at time ``t`` is counted after the
    departing waiter leaves — deterministic, and within one of the event
    path's sample-order-dependent value.

    Arrivals are nondecreasing, so a queued start of a later block, which
    comes after its own arrival, comes after every arrival of this one and
    never counts here, and an earlier queued start at or before the
    previous block's last arrival counts for every arrival of this one.
    ``frontier`` holds, sorted, the rest: the earlier queued starts after
    that arrival, one per earlier request still waiting then.  So the
    ``i``-th queued arrival of this block (from 1) finds ``frontier.size +
    i`` minus the queued starts at or before its instant, counted by binary
    search over the frontier and this block's queued starts.  Returns the
    peak (0 when nobody queues) and the next frontier: those starts, sorted
    (they are out of order with several functions or slots), less the ones
    at or before this block's last arrival.
    """
    queued = waits > 0.0
    pending = np.concatenate((frontier, starts[queued]))
    if (pending[1:] < pending[:-1]).any():
        pending.sort(kind="stable")
    peak = 0
    if queued.any():
        enqueued = arrived[queued]
        rank = np.arange(frontier.size + 1, frontier.size + enqueued.size + 1)
        peak = int((rank - np.searchsorted(pending, enqueued, side="right")).max())
    return peak, pending[np.searchsorted(pending, arrived[-1], side="right") :]


def _serve_stream(
    arrivals, classes, service_by_class, function_by_class, free, collector, *, label, source
):
    """Serve ``arrivals`` in ``_CHUNK`` blocks; return the streaming ``LoadReport``.

    ``classes`` yields each block's class indices (see :func:`_class_stream`),
    which pick its service times and functions from the per-class tables;
    ``free`` carries every function's slot heap (see :func:`_start_times`).
    Each block checks that its arrivals, ``source``'s output, do not
    decrease (the depth count relies on it), runs the slot recurrence,
    folds its waits and sojourns into ``collector``, keeps the running max
    completion, and counts its peak depth against the carried frontier
    (:func:`_max_queue_depth`).  Then it overwrites its arrivals with its
    waits: ``arrivals`` is the one full-length array, and it ends holding
    every wait, whose pairwise sum gives the exact mean queue depth.
    """
    n = arrivals.size
    first_arrival = float(arrivals[0]) if n else 0.0
    last_arrival = float(arrivals[-1]) if n else 0.0
    last_completion = -inf if n else 0.0
    max_depth = 0
    frontier = np.empty(0, dtype=np.float64)
    previous = -inf
    for start, block in zip(range(0, n, _CHUNK), classes, strict=True):
        arrived = arrivals[start : start + _CHUNK]
        if arrived[0] < previous or (arrived[1:] < arrived[:-1]).any():
            raise ValueError(
                f"arrivals from {source!r} decrease between requests {max(start - 1, 0)} "
                f"and {start + arrived.size - 1}; the fast path needs them nondecreasing"
            )
        previous = arrived[-1]
        services = service_by_class[block]
        starts = _start_times(arrived, function_by_class[block], services, free)
        waits = starts - arrived
        completions = starts + services
        collector.fold_served_arrays(completions - arrived, waits)
        last_completion = max(last_completion, float(completions.max()))
        depth, frontier = _max_queue_depth(arrived, starts, waits, frontier)
        max_depth = max(max_depth, depth)
        arrived[:] = waits

    collector.note_completion_time(last_completion)
    horizon = last_completion - first_arrival
    mean_depth = float(arrivals.sum()) / horizon if horizon > 0 else 0.0
    return collector.build_report(
        label,
        submitted=n,
        first_arrival=first_arrival,
        last_arrival=last_arrival,
        depth_profile=(mean_depth, max_depth),
    )


def run_fast_path(store, spec, arrival_process, slo_seconds, label):
    """Serve ``spec``'s mix on the fast path; return a streaming ``LoadReport``.

    ``store`` is the built (fully ingested) one-shard
    :class:`~repro.engine.sharded.ShardedEngineFLStore`; the caller has
    already checked :func:`fast_path_eligible`.  The report has the
    streaming pipeline's shape: ``outcomes`` empty, percentiles sketched,
    every other column closed-form.
    """
    shard = store.shards[0]
    workload_names = list(spec.workload.workloads)
    num_requests = spec.workload.num_requests
    lookup, signatures = _class_table(shard.catalog, workload_names)
    results = _memoize_oracle(shard.flstore, signatures)

    service_by_class = np.array(
        [result.latency.total_seconds for result in results], dtype=np.float64
    )
    functions: dict[str, int] = {}
    function_by_class = np.empty(len(results), dtype=np.int64)
    for class_id, result in enumerate(results):
        function_id = result.execution_function
        if function_id is not None and shard.platform.has_function(function_id):
            function_by_class[class_id] = functions.setdefault(function_id, len(functions))
        else:
            function_by_class[class_id] = -1

    return _serve_stream(
        arrival_process.times_array(num_requests),
        _class_stream(spec.seed, lookup, num_requests),
        service_by_class,
        function_by_class,
        [[-inf] * spec.tier.function_concurrency for _ in functions],
        StreamingLoadCollector(slo_seconds),
        label=label,
        source=arrival_process,
    )
