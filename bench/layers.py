"""Outside-in per-layer spans: timing wrappers around each layer's public calls.

The tracer never edits the program.  It replaces public functions and
methods with wrappers in the namespaces where callers look them up (a
module attribute, or a class attribute that instances resolve at call
time) and puts the originals back when the ``installed()`` block ends.

Every wrapper keeps a stack of open spans, so a layer's *self* time is its
span time minus the time of the spans it called; summed over all layers,
self time equals the wall time of the outermost span (``scenario.run``).
A layer called directly from itself (``times`` delegating to
``times_array``, ``crash_shard`` to ``remove_shard``) counts as one call
of the outer method.  ``incl_s`` (kept for ``INCLUSIVE`` layers) counts
only the outermost entry into a layer, so it never double-counts a layer
re-entered through another.

``scenario.run`` called while a ``scenario.run`` span is open is a
remediation shadow simulation and is recorded as ``engine.remediate``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

#: (layer, owner, attributes).  ``owner`` is ``"module"`` or
#: ``"module:Class"``; a class owner also covers every subclass that
#: defines the attribute itself.  ``"attr:record"`` counts ``attr``'s calls
#: under the method record ``record``.  Getters cheaper than a wrapper
#: (``is_cached``, ``get_function``, ``warm_functions``, slot acquire and
#: release) are left out: their time stays with their caller.
TARGETS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("scenario.build_tier", "repro.scenario.build", ("build_tier",)),
    ("scenario.build_tier", "repro.scenario", ("build_tier",)),
    ("engine.vectorized", "repro.scenario.build", ("run_fast_path",)),
    ("traces.arrivals", "repro.traces.arrivals:ArrivalProcess", ("times", "times_array")),
    (
        "traces.generator",
        "repro.traces.generator:RequestTraceGenerator",
        ("mixed_trace", "tenant_trace", "workload_trace"),
    ),
    ("engine.kernel", "repro.engine.kernel:EventLoop", ("run",)),
    (
        "engine.streaming",
        "repro.engine.streaming:StreamingLoadCollector",
        (
            "fold",
            "fold_served_arrays:fold",
            "note_depth",
            "note_completion_time",
            "tenant_rows",
            "build_report",
        ),
    ),
    ("engine.flstore.build_load_report", "repro.engine.flstore", ("build_load_report",)),
    ("engine.flstore.build_load_report", "repro.engine.sharded", ("build_load_report",)),
    ("core.flstore.serve", "repro.core.flstore:FLStore", ("serve",)),
    ("workloads.compute", "repro.workloads.base:Workload", ("compute",)),
    (
        "core.cache_engine",
        "repro.core.cache_engine:CacheEngine",
        (
            "ingest_round",
            "ingest_round_cold",
            "admit",
            "plan_request",
            "apply_evictions",
            "drop_lost_keys",
        ),
    ),
    (
        "core.serverless_cache",
        "repro.core.serverless_cache:ServerlessCacheCluster",
        ("place", "resolve", "resolve_many", "evict", "drop_lost_keys", "pick_execution_function"),
    ),
    (
        "serverless.platform",
        "repro.serverless.platform:ServerlessPlatform",
        (
            "spawn_function",
            "reclaim_function",
            "restore_function",
            "remove_function",
            "invoke",
            "ping",
            "enqueue_waiter",
            "evict_waiter",
            "drain_waiters",
            "set_function_concurrency",
        ),
    ),
    ("serverless.queue", "repro.serverless.function:RequestQueue", ("push", "pop", "evict")),
    ("cloud.object_store", "repro.cloud.object_store:ObjectStore", ("get", "put", "delete")),
    ("routing", "repro.routing.router:ShardRouter", ("route", "route_request", "replica_slots")),
    ("engine.autoscale.decide", "repro.engine.autoscale:AutoscalerPolicy", ("decide",)),
    (
        "engine.sharded.resize",
        "repro.engine.sharded:ShardedEngineFLStore",
        ("add_shard", "remove_shard", "crash_shard"),
    ),
)

#: Layers whose per-call durations are kept (for p50/p99).
SAMPLED = frozenset({"core.flstore.serve"})

#: Layers whose inclusive time is kept: the outermost entry's duration.
INCLUSIVE = frozenset({"scenario.build_tier", "engine.remediate"})

#: Layers that are not in ``TARGETS`` but are recorded by the run wrapper.
RUN_LAYERS = ("scenario.run", "engine.remediate")


class Span:
    """Totals of one layer over a traced run.

    ``incl_s`` is kept for ``INCLUSIVE`` layers and ``samples`` for
    ``SAMPLED`` ones; elsewhere they stay 0 and empty.
    """

    __slots__ = ("calls", "self_s", "incl_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.samples: list[float] = []


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


class Tracer:
    """One traced run's spans, method records and counters."""

    def __init__(self) -> None:
        #: Layer -> :class:`Span`, filled when the ``installed()`` block ends.
        self.spans: dict[str, Span] = {}
        #: ``"layer.record"`` -> [calls, self seconds].
        self.methods: dict[str, list] = {}
        #: Counts read from call arguments and results.
        self.counters = {"events": 0, "cache_hits": 0, "cache_misses": 0}
        #: Targets that could not be found (renamed or removed).
        self.missing: list[str] = []
        self._layer_of: dict[str, str] = {}
        #: ``INCLUSIVE`` layer -> [open entries, inclusive seconds].
        self._inclusive = {layer: [0, 0.0] for layer in INCLUSIVE}
        self._samples: dict[str, list[float]] = {layer: [] for layer in SAMPLED}
        #: Open spans, innermost last: ``[layer, time spent in child spans]``.
        self._stack: list[list] = [[None, 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, layer: str, record: str, fn, observe=None):
        """A wrapper that times ``fn`` as one call of ``layer``."""
        key = f"{layer}.{record}"
        self._layer_of[key] = layer
        method = self.methods.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        inclusive = self._inclusive.get(layer)
        samples = self._samples.get(layer)

        if observe is None and inclusive is None and samples is None:
            # The common case, kept to the fewest operations: some layers
            # take tens of thousands of calls per run, and every operation
            # here is added to each of them.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stack[-1][1] += elapsed
                    method[0] += 1
                    method[1] += elapsed - frame[1]

            return wrapper

        def call(fn, args, kwargs):
            return fn(*args, **kwargs)

        observe = observe or call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if inclusive is not None:
                inclusive[0] += 1
            start = clock()
            try:
                return observe(fn, args, kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                method[0] += 1
                method[1] += elapsed - frame[1]
                if inclusive is not None:
                    inclusive[0] -= 1
                    if not inclusive[0]:
                        inclusive[1] += elapsed
                if samples is not None:
                    samples.append(elapsed)

        return wrapper

    def _observer(self, layer: str):
        counters = self.counters
        if layer == "engine.kernel":

            def count_events(fn, args, kwargs):
                loop = args[0]
                before = loop.events_fired
                try:
                    return fn(*args, **kwargs)
                finally:
                    counters["events"] += loop.events_fired - before

            return count_events
        if layer == "core.flstore.serve":

            def count_hits(fn, args, kwargs):
                result = fn(*args, **kwargs)
                counters["cache_hits"] += result.cache_hits
                counters["cache_misses"] += result.cache_misses
                return result

            return count_hits
        return None

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _install_target(self, layer: str, owner_path: str, attrs: tuple[str, ...]) -> None:
        module_name, _, class_name = owner_path.partition(":")
        module = importlib.import_module(module_name)
        owners = [module]
        if class_name:
            base = getattr(module, class_name, None)
            if not isinstance(base, type):
                self.missing.append(owner_path)
                return
            owners = _subclasses(base)
        observe = self._observer(layer)
        for entry in attrs:
            attr, _, record = entry.partition(":")
            found = False
            for owner in owners:
                fn = owner.__dict__.get(attr)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                self._patch(owner, attr, self._wrap(layer, record or attr, fn, observe))
                found = True
            if not found:
                self.missing.append(f"{owner_path}.{attr}")

    def _install_run(self) -> None:
        """Wrap ``scenario.run``; nested calls are remediation shadow runs."""
        build = importlib.import_module("repro.scenario.build")
        fn = build.__dict__["run"]
        top = self._wrap("scenario.run", "run", fn)
        shadow = self._wrap("engine.remediate", "shadow", fn)
        stack = self._stack

        @functools.wraps(fn)
        def run(spec):
            nested = any(frame[0] == "scenario.run" for frame in stack)
            return (shadow if nested else top)(spec)

        self._patch(build, "run", run)

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        try:
            self._install_run()
            for layer, owner, attrs in TARGETS:
                self._install_target(layer, owner, attrs)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            self._collect_spans()

    # ------------------------------------------------------------- results

    def _collect_spans(self) -> None:
        spans = {layer: Span() for layer in (*RUN_LAYERS, *(target[0] for target in TARGETS))}
        for key, (calls, self_s) in self.methods.items():
            span = spans[self._layer_of[key]]
            span.calls += calls
            span.self_s += self_s
        for layer, (_, incl_s) in self._inclusive.items():
            spans[layer].incl_s = incl_s
        for layer, samples in self._samples.items():
            spans[layer].samples = samples
        self.spans = spans

    def counts(self) -> dict:
        """Every deterministic count of the run (compared across runs)."""
        counts = {f"{layer}.calls": span.calls for layer, span in self.spans.items()}
        counts.update({f"{key}.calls": value[0] for key, value in self.methods.items()})
        counts.update(self.counters)
        return counts

    def self_sum(self) -> float:
        """Sum of self time over every layer (equals the root span's wall)."""
        return sum(span.self_s for span in self.spans.values())
