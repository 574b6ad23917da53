"""The vectorized fast path: million-request single-tier runs in seconds.

The discrete-event path costs about 170 µs per request — generator
processes, heap traffic, per-request ``FLStore.serve`` calls: the bench's
``engine-baseline-1k`` workload runs about 6,000 requests per second on the
event path, scaled to the bench's reference machine (``bench/README.md``).
That is the right price for faulted, autoscaled, or admission-controlled
topologies, and the wrong one for the raw-speed question ("what does this
tier do under a million requests?").  This module answers that question in
single-digit seconds by replacing the event loop with closed-form queueing:

* **compact trace** — the request stream is represented as one int64 array
  of *signature classes* (workload x target round), drawn from the same RNG
  stream as :meth:`repro.traces.generator.RequestTraceGenerator.mixed_trace`
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
  finishes the chunk, so the worst case costs about one loop
  (:func:`_fifo_starts`).  With c > 1 a per-function heap of slot free
  times runs the loop over Python floats.
* **array folding** — waits/sojourns/completions are pure ndarray math,
  folded chunk-wise into a :class:`~repro.engine.streaming.
  StreamingLoadCollector`; the mean queue depth is exact (total wait over
  the horizon), the max depth counts the waiters each queued arrival finds
  (a binary search over the queued starts).

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

#: Chunk size for the per-request loops and folds: large enough to amortize
#: numpy dispatch, small enough that transient Python floats stay ~6 MB even
#: on a million-request run.
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


def _class_stream(seed, num_classes_lookup, num_workloads, num_rounds, num_requests):
    """The per-request class indices, chunk-drawn from the mixed-trace RNG."""
    rng = derive_rng(seed, "mixed-trace")
    per_round = num_workloads
    class_index = np.empty(num_requests, dtype=np.int64)
    for start in range(0, num_requests, _CHUNK):
        stop = min(start + _CHUNK, num_requests)
        name_index = rng.choice(num_workloads, size=stop - start)
        round_position = (np.arange(start, stop) // per_round) % num_rounds
        class_index[start:stop] = num_classes_lookup[name_index, round_position]
    return class_index


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


def _start_times(arrivals, function_index, service, num_functions, slots):
    """FIFO c-slot start times, in arrival order.

    Each function owns ``slots`` execution slots; a request starts at
    ``max(arrival, earliest slot free)`` and occupies the slot for its
    service time.  Requests with no function (index -1) start immediately.
    Both branches run chunk-wise and carry each function's state across
    chunks.  With one slot, each function's requests in a chunk go through
    :func:`_fifo_starts`, the certified vectorized recurrence, which returns
    the loop's exact floats.  With several, a per-function heap of slot
    free times runs over plain Python floats (ndarray scalar access is
    several times slower), never holding more than one chunk of them.
    """
    n = arrivals.size
    starts = np.empty(n, dtype=np.float64)
    if slots == 1:
        busy = [-inf] * num_functions
        for chunk_start in range(0, n, _CHUNK):
            stop = min(chunk_start + _CHUNK, n)
            arrived = arrivals[chunk_start:stop]
            functions = function_index[chunk_start:stop]
            services = service[chunk_start:stop]
            out = starts[chunk_start:stop]
            out[:] = arrived
            for f in range(num_functions):
                is_mine = functions == f
                count = np.count_nonzero(is_mine)
                if count == functions.size:
                    out[:], busy[f] = _fifo_starts(arrived, services, busy[f])
                elif count:
                    mine = np.flatnonzero(is_mine)
                    out[mine], busy[f] = _fifo_starts(arrived[mine], services[mine], busy[f])
        return starts
    heaps = [[-inf] * slots for _ in range(num_functions)]
    heapreplace = heapq.heapreplace
    for chunk_start in range(0, n, _CHUNK):
        stop = min(chunk_start + _CHUNK, n)
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


def _max_queue_depth(arrivals, starts, waits):
    """Peak concurrent waiters, counted at each queued arrival.

    Only requests with a positive wait ever queue.  Taken in arrival order,
    the ``k``-th queued arrival (from 1) finds ``k`` minus the number of
    queued starts at or before its instant waiting, itself included, and
    the peak is the largest of these.  A start at exactly an arrival's
    instant counts first (``side="right"``), so a slot handoff at time ``t``
    is counted after the departing waiter leaves — deterministic, and within
    one of the event path's sample-order-dependent value.  The arrivals and
    starts are sorted only when they are not already nondecreasing; on one
    FIFO function both always are.
    """
    queued = waits > 0.0
    if not queued.any():
        return 0
    enqueued = arrivals[queued]
    if (enqueued[1:] < enqueued[:-1]).any():
        enqueued = np.sort(enqueued, kind="stable")
    begun = starts[queued]
    if (begun[1:] < begun[:-1]).any():
        begun = np.sort(begun)
    waiting = np.arange(1, enqueued.size + 1) - np.searchsorted(begun, enqueued, side="right")
    return int(waiting.max())


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

    arrivals = arrival_process.times_array(num_requests)
    class_index = _class_stream(
        spec.seed, lookup, len(workload_names), lookup.shape[1], num_requests
    )
    service = service_by_class[class_index]
    function_index = function_by_class[class_index]

    starts = _start_times(
        arrivals,
        function_index,
        service,
        num_functions=len(functions),
        slots=spec.tier.function_concurrency,
    )
    waits = starts - arrivals
    completions = starts + service
    sojourns = completions - arrivals

    collector = StreamingLoadCollector(slo_seconds)
    for start in range(0, num_requests, _CHUNK):
        stop = min(start + _CHUNK, num_requests)
        collector.fold_served_arrays(sojourns[start:stop], waits[start:stop])

    first_arrival = float(arrivals[0]) if num_requests else 0.0
    last_arrival = float(arrivals[-1]) if num_requests else 0.0
    last_completion = float(completions.max()) if num_requests else 0.0
    collector.note_completion_time(last_completion)
    horizon = last_completion - first_arrival
    mean_depth = float(waits.sum()) / horizon if horizon > 0 else 0.0
    max_depth = _max_queue_depth(arrivals, starts, waits)
    return collector.build_report(
        label,
        submitted=num_requests,
        first_arrival=first_arrival,
        last_arrival=last_arrival,
        depth_profile=(mean_depth, max_depth),
    )
