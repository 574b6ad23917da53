"""The serverless platform: spawning, invoking, and billing function instances.

The platform emulates the provider-side behaviour FLStore relies on
(Section 4.5 of the paper):

* functions stay warm (and keep their memory) as long as they are invoked or
  pinged at least once per keep-alive interval,
* spawning a new function pays a cold-start latency,
* executions are billed per GB-second plus a per-request charge,
* keep-alive pings have a tiny but non-zero monthly cost per instance,
* the provider may reclaim warm functions at any time (fault injection is
  handled by :class:`repro.serverless.faults.ZipfianFaultInjector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.errors import DataNotFoundError, FunctionReclaimedError
from repro.common.ids import IdGenerator
from repro.common.units import GB
from repro.config import PricingConfig, ServerlessConfig
from repro.network.costs import TransferCostModel
from repro.serverless.function import RequestQueue, ServerlessFunction
from repro.simulation.clock import SimClock
from repro.simulation.records import CostBreakdown, LatencyBreakdown, OperationResult


@dataclass
class PlatformStats:
    """Cumulative accounting of the serverless platform."""

    functions_spawned: int = 0
    functions_reclaimed: int = 0
    invocations: int = 0
    cold_starts: int = 0
    billed_gb_seconds: float = 0.0
    total_execution_cost: float = 0.0


class ServerlessPlatform:
    """Manages a fleet of warm serverless functions.

    Parameters
    ----------
    config:
        Platform parameters (memory limits, cold-start latency, keep-alive
        interval, replication defaults).
    pricing:
        Cloud pricing used for execution and keep-alive billing.
    clock:
        Shared virtual clock; used to time-stamp invocations and compute
        keep-alive costs.
    """

    def __init__(
        self,
        config: ServerlessConfig | None = None,
        pricing: PricingConfig | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.config = config or ServerlessConfig()
        self.pricing = pricing or PricingConfig()
        self.clock = clock or SimClock()
        self.cost_model = TransferCostModel(self.pricing)
        self.stats = PlatformStats()
        self._functions: dict[str, ServerlessFunction] = {}
        self._ids = IdGenerator(prefix="fn")
        self._reclamation_listeners: list[Callable[[str], None]] = []
        #: Memoized warm-function list; invalidated whenever the fleet's
        #: composition changes (spawn/reclaim/restore/remove).  Placement
        #: scans it on every admission, so rebuilding it per call is wasteful.
        self._warm_cache: list[ServerlessFunction] | None = None
        #: Memoized invocation latency/cost per (memory_gb, busy_seconds).
        self._invoke_effects: dict[tuple[float, float], tuple[LatencyBreakdown, CostBreakdown]] = {}
        #: Memoized keep-alive cost per (instance_count, duration_hours).
        self._keepalive_effects: dict[tuple[int, float], CostBreakdown] = {}
        #: Per-function queues of requests waiting for an execution slot
        #: (populated by the discrete-event engine; empty on the analytic path).
        self._queues: dict[str, RequestQueue] = {}
        #: Concurrency limit applied to newly spawned functions.  Starts at
        #: the config value; the autoscaler re-scales it at runtime (see
        #: :meth:`set_function_concurrency`) to model spawning/retiring warm
        #: instances behind each logical function.
        self._function_concurrency = self.config.function_concurrency

    def add_reclamation_listener(self, listener: Callable[[str], None]) -> None:
        """Subscribe to reclamation events (called with the function id).

        Listeners let index structures (the cache cluster's liveness index)
        invalidate exactly the affected entries instead of probing every key
        after each fault-injection step.
        """
        self._reclamation_listeners.append(listener)

    # ----------------------------------------------------------- lifecycle

    def spawn_function(
        self,
        memory_bytes: int | None = None,
        cpu_cores: int = 2,
    ) -> tuple[ServerlessFunction, OperationResult]:
        """Provision a new warm function.

        Returns the function and an :class:`OperationResult` carrying the
        cold-start latency (there is no direct dollar charge for spawning).
        """
        memory = int(memory_bytes or self.config.default_function_memory_bytes)
        if memory > self.config.max_function_memory_bytes:
            raise ValueError(
                f"requested {memory} bytes exceeds the platform maximum of "
                f"{self.config.max_function_memory_bytes} bytes"
            )
        # Reclaimed functions stay in the fleet (they can be restored) but
        # hold no warm capacity, so only warm ones count toward the limit.
        warm = self.warm_count
        if warm >= self.config.max_warm_functions:
            raise RuntimeError(
                f"platform already has {warm} warm functions "
                f"(max_warm_functions={self.config.max_warm_functions})"
            )
        function = ServerlessFunction(
            self._ids.next(),
            memory_limit_bytes=memory,
            cpu_cores=cpu_cores,
            concurrency_limit=self._function_concurrency,
        )
        self._functions[function.function_id] = function
        self._warm_cache = None
        self.stats.functions_spawned += 1
        self.stats.cold_starts += 1
        latency = LatencyBreakdown(cold_start_seconds=self.config.cold_start_seconds)
        return function, OperationResult(value=function.function_id, latency=latency)

    def reclaim_function(self, function_id: str) -> None:
        """Simulate the provider reclaiming a warm function (memory lost)."""
        function = self._functions.get(function_id)
        if function is None:
            raise DataNotFoundError(function_id, "serverless platform")
        if function.is_warm:
            function.reclaim()
            self._warm_cache = None
            self.stats.functions_reclaimed += 1
            for listener in self._reclamation_listeners:
                listener(function_id)

    def restore_function(self, function_id: str) -> tuple[ServerlessFunction, OperationResult]:
        """Re-provision a previously reclaimed function (cold start, empty memory)."""
        function = self._functions.get(function_id)
        if function is None:
            raise DataNotFoundError(function_id, "serverless platform")
        function.restore()
        self._warm_cache = None
        self.stats.cold_starts += 1
        latency = LatencyBreakdown(cold_start_seconds=self.config.cold_start_seconds)
        return function, OperationResult(value=function_id, latency=latency)

    def remove_function(self, function_id: str) -> None:
        """Permanently remove a function from the fleet."""
        function = self._functions.pop(function_id, None)
        self._warm_cache = None
        if function is not None and function.is_warm:
            # Removal loses warm memory just like a reclamation does.
            for listener in self._reclamation_listeners:
                listener(function_id)

    # ------------------------------------------------------------- lookup

    def get_function(self, function_id: str) -> ServerlessFunction:
        """Return the function with ``function_id`` (warm or reclaimed)."""
        function = self._functions.get(function_id)
        if function is None:
            raise DataNotFoundError(function_id, "serverless platform")
        return function

    def has_function(self, function_id: str) -> bool:
        """Whether ``function_id`` exists on the platform."""
        return function_id in self._functions

    def functions(self) -> Iterator[ServerlessFunction]:
        """Iterate over every function (warm and reclaimed)."""
        return iter(list(self._functions.values()))

    def warm_functions(self) -> list[ServerlessFunction]:
        """Every function currently warm (shared memoized list; do not mutate)."""
        cached = self._warm_cache
        if cached is None:
            cached = [f for f in self._functions.values() if f.is_warm]
            self._warm_cache = cached
        return cached

    @property
    def warm_count(self) -> int:
        """Number of warm functions."""
        return len(self.warm_functions())

    @property
    def total_cached_bytes(self) -> int:
        """Bytes of FL metadata resident across all warm functions."""
        return sum(f.used_bytes for f in self.warm_functions())

    # ---------------------------------------------------------- execution

    def invoke(
        self,
        function_id: str,
        busy_seconds: float,
        payload_bytes: int = 0,
    ) -> OperationResult:
        """Invoke ``function_id`` for ``busy_seconds`` of compute.

        Returns the invocation latency (overhead + compute) and the billed
        cost (GB-seconds + per-request charge).  ``payload_bytes`` covers any
        request/response payload, billed at zero network cost because the
        caller (the request tracker) exchanges only small control messages.

        Raises
        ------
        FunctionReclaimedError
            If the function has been reclaimed; callers are expected to fail
            over to a replica or re-fetch from the persistent store.
        """
        function = self.get_function(function_id)
        if not function.is_warm:
            raise FunctionReclaimedError(function_id)
        if busy_seconds < 0:
            raise ValueError("busy_seconds must be non-negative")
        function.record_invocation(self.clock.now(), busy_seconds)
        self.stats.invocations += 1
        memory_gb = function.memory_limit_bytes / GB
        billed_seconds = max(busy_seconds, 0.001)  # providers bill a minimum duration
        self.stats.billed_gb_seconds += memory_gb * billed_seconds
        # Workload durations are discrete (per workload and key count), so
        # the frozen latency/cost pair is memoized per (memory, duration).
        effects = self._invoke_effects.get((memory_gb, busy_seconds))
        if effects is None:
            cost = self.cost_model.lambda_execution_cost(memory_gb, billed_seconds)
            latency = LatencyBreakdown(
                computation_seconds=busy_seconds,
                communication_seconds=self.config.invocation_overhead_seconds,
            )
            effects = (latency, cost)
            self._invoke_effects[(memory_gb, busy_seconds)] = effects
        latency, cost = effects
        self.stats.total_execution_cost += cost.total_dollars
        del payload_bytes  # control messages are negligible; kept for interface clarity
        return OperationResult(value=None, latency=latency, cost=cost)

    def ping(self, function_id: str) -> OperationResult:
        """Keep-alive ping: keeps the function warm, negligible latency/cost per call."""
        function = self.get_function(function_id)
        if not function.is_warm:
            raise FunctionReclaimedError(function_id)
        function.record_invocation(self.clock.now(), busy_seconds=0.0)
        return OperationResult(value=None)

    # ----------------------------------------------- concurrency & queueing
    #
    # The discrete-event engine (repro.engine) executes requests as timed
    # processes.  Each warm function admits ``concurrency_limit`` concurrent
    # executions; excess requests park an opaque waiter token in the
    # function's queue (FIFO or priority, per ``config.queue_discipline``).
    # The engine owns the tokens; the platform owns the ordering.

    def request_queue(self, function_id: str) -> RequestQueue:
        """The waiter queue of ``function_id`` (created on first use).

        The queue inherits the platform's discipline and admission bound
        (``config.max_queue_depth``; 0 keeps it unbounded) — the same bound
        the engine's admission control enforces.
        """
        queue = self._queues.get(function_id)
        if queue is None:
            queue = RequestQueue(self.config.queue_discipline, capacity=self.config.max_queue_depth)
            self._queues[function_id] = queue
        return queue

    def set_function_concurrency(self, limit: int) -> list[object]:
        """Re-scale every function (existing and future) to ``limit`` slots.

        Models the autoscaler spawning or retiring warm instances behind each
        logical function: raising the limit immediately hands the new slots
        to queued waiters (their tokens are returned so the engine can resume
        them); lowering it retires slots lazily — active executions finish,
        and freed slots above the new limit are simply not re-granted.
        """
        if limit <= 0:
            raise ValueError(f"concurrency limit must be positive, got {limit}")
        self._function_concurrency = int(limit)
        granted: list[object] = []
        for function in self._functions.values():
            function.concurrency_limit = self._function_concurrency
            queue = self._queues.get(function.function_id)
            while queue and len(queue) > 0 and function.has_execution_slot:
                function.begin_execution()
                granted.append(queue.pop())
        return granted

    @property
    def function_concurrency(self) -> int:
        """Concurrency limit currently applied to (new and existing) functions."""
        return self._function_concurrency

    @property
    def provisioned_slots(self) -> int:
        """Execution slots provisioned across the warm fleet."""
        return sum(f.concurrency_limit for f in self.warm_functions())

    @property
    def provisioned_gb(self) -> float:
        """Warm provisioned capacity in GB (memory x slots, summed over the fleet).

        One slot models one warm instance of the function, so a function with
        ``concurrency_limit`` slots keeps that many instances (each with the
        function's full memory) resident — this is the quantity the
        autoscaler's warm-capacity cost integrates over time.
        """
        return sum(
            f.memory_limit_bytes / GB * f.concurrency_limit for f in self.warm_functions()
        )

    def try_acquire_slot(self, function_id: str) -> bool:
        """Occupy an execution slot on ``function_id`` if one is free now."""
        function = self.get_function(function_id)
        if not function.has_execution_slot:
            return False
        function.begin_execution()
        return True

    def enqueue_waiter(
        self,
        function_id: str,
        token: object,
        priority: float = 0.0,
        flow: object = None,
        weight: float = 1.0,
    ) -> None:
        """Park ``token`` until :meth:`release_slot` hands it a freed slot.

        ``flow``/``weight`` identify the tenant flow for the ``wfq``/``drr``
        disciplines; untagged requests share the anonymous flow at weight 1.
        """
        self.request_queue(function_id).push(token, priority, flow=flow, weight=weight)

    def evict_waiter(self, flow: object) -> object | None:
        """Evict the newest queued waiter of ``flow`` from any function queue.

        The push-out primitive of SLO-aware shedding: scans the fleet's
        queues for the flow's most recently enqueued token and removes it so
        the admission layer can shed that request instead of an arriving one.
        Returns the evicted token, or ``None`` when the flow has no waiter.
        """
        best_queue = None
        best_depth = -1
        for queue in self._queues.values():
            depth = queue.queued_flows().get(flow, 0)
            if depth > best_depth and depth > 0:
                best_queue = queue
                best_depth = depth
        if best_queue is None:
            return None
        return best_queue.evict(flow)

    def release_slot(self, function_id: str) -> object | None:
        """Free one slot on ``function_id``; returns the next waiter granted it.

        The freed slot is immediately re-occupied by the head of the queue
        (if any), whose token is returned so the caller can resume it.
        Returns ``None`` when nobody was waiting.
        """
        function = self._functions.get(function_id)
        if function is None:
            return None
        function.end_execution()
        queue = self._queues.get(function_id)
        if queue and function.has_execution_slot:
            function.begin_execution()
            return queue.pop()
        return None

    def drain_waiters(self, function_id: str) -> list[object]:
        """Remove and return every waiter of ``function_id`` (e.g. on reclaim)."""
        queue = self._queues.get(function_id)
        return queue.drain() if queue else []

    def queue_depth(self, function_id: str) -> int:
        """Requests currently waiting for a slot on ``function_id``."""
        queue = self._queues.get(function_id)
        return len(queue) if queue else 0

    def total_queue_depth(self) -> int:
        """Requests waiting for a slot across the whole fleet."""
        return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------- billing

    def keepalive_cost(self, duration_hours: float, instance_count: int | None = None) -> CostBreakdown:
        """Cost of keep-alive pings for ``instance_count`` functions over ``duration_hours``.

        Defaults to the current number of warm functions.
        """
        count = self.warm_count if instance_count is None else instance_count
        cached = self._keepalive_effects.get((count, duration_hours))
        if cached is None:
            cached = self.cost_model.lambda_keepalive_cost(count, duration_hours)
            self._keepalive_effects[(count, duration_hours)] = cached
        return cached

    def memory_cost(self, duration_hours: float) -> CostBreakdown:
        """Cost of the memory held by warm functions for ``duration_hours``.

        Warm function memory is free on the provider side as long as the
        functions are regularly invoked (Section 4.5); only the keep-alive
        pings are billed, so this returns the keep-alive cost.
        """
        return self.keepalive_cost(duration_hours)
