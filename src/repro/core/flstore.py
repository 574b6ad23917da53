"""The FLStore facade: serving non-training FL requests from a serverless cache.

This module wires together the Cache Engine, the Request Tracker, the
serverless cache cluster, and the persistent store into the system of
Figure 5, and implements the end-to-end request workflow of Figure 6:

1. client updates and metadata arrive after each training round and are
   ingested (hot data into the serverless cache, everything into the
   persistent store),
2. a non-training request arrives at the Request Tracker,
3. the Cache Engine resolves the data the request needs to the functions
   caching it; misses are fetched from the persistent store,
4. the workload executes *on* the serverless functions holding the data
   (locality-aware execution), and
5. the tailored caching policy prefetches the data the next request will
   need and evicts data that is no longer necessary.

The :meth:`FLStore.serve` method returns a :class:`ServeResult` carrying the
workload output plus the latency and dollar cost of the request, decomposed
the same way the paper's evaluation reports them.

No modeled latency reads the workload's output: step 4's compute time is
analytic, and the result's write-back is off the critical path.  So
:meth:`FLStore.service_latency` runs the same serve path without its two
output steps — executing the workload and persisting the result (whose bill
it still charges) — and returns the latency ``serve`` would, bit for bit.
Service-time calibration (:func:`repro.scenario.build.calibrate_mean_service_seconds`)
reads only that latency, so it executes no workload.

What step 3 needs besides the cache's state is fixed by the request's
signature (workload, round, client, history, params) and the round catalog:
the required keys, the compute time and the result-transfer time.  Each store
keeps that :class:`RequestPlan` per signature for one
:attr:`~repro.fl.catalog.RoundCatalog.version` (:meth:`FLStore.request_plan`),
so a request whose signature this version has seen builds no keys;
ingesting a round moves the version and drops the plans.  The gather then
reads each key from the cache index once, and calls the policy per hit only
when the policy records accesses (the tailored bundle does not; LRU, LFU and
FIFO do, in key order).  Every output is the one a fresh plan would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple

from repro.cloud.object_store import ObjectStore
from repro.common.errors import DataNotFoundError
from repro.common.ids import IdGenerator
from repro.config import SimulationConfig
from repro.core.cache_engine import CacheEngine, IngestReport
from repro.core.policies.base import CachingPolicy
from repro.core.policies.factory import make_policy_bundle
from repro.core.request_tracker import RequestTracker
from repro.core.serverless_cache import ServerlessCacheCluster
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.models import ModelSpec, get_model_spec
from repro.fl.rounds import RoundRecord
from repro.network.costs import TransferCostModel
from repro.network.model import NetworkTopology
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.clock import SimClock
from repro.simulation.metrics import RequestRecord
from repro.simulation.records import (
    CostAccumulator,
    CostBreakdown,
    LatencyAccumulator,
    LatencyBreakdown,
)
from repro.workloads.base import (
    Workload,
    WorkloadRequest,
    memoized_compute,
    request_signature,
)
from repro.workloads.registry import get_workload

#: The base policy's ``record_access``, which does nothing: a store whose
#: policy keeps it calls no per-hit callback.
_NO_OP_RECORD_ACCESS = CachingPolicy.record_access

#: ``execute(workload, request, data) -> (result, bill of persisting it)``,
#: the one step in which :meth:`FLStore.serve` and
#: :meth:`FLStore.service_latency` differ.
_Execute = Callable[[Workload, WorkloadRequest, Mapping[DataKey, Any]], tuple[Any, CostBreakdown]]


class RequestPlan(NamedTuple):
    """What serving one request signature needs, whatever the cache holds."""

    #: The workload's ``required_keys``, in its order.
    keys: tuple[DataKey, ...]
    #: Modeled compute time on the executing function.
    compute_seconds: float
    #: Time to return the result to the client.
    result_seconds: float


@dataclass(slots=True)
class ServeResult:
    """Outcome of serving one non-training request."""

    request_id: str
    workload: str
    #: The workload's output.  Requests with equal compute inputs may share
    #: one dict (the store reuses results, see ``memoized_compute``), so it
    #: is read-only.
    result: dict[str, Any]
    latency: LatencyBreakdown
    cost: CostBreakdown
    cache_hits: int = 0
    cache_misses: int = 0
    failovers: int = 0
    prefetched_keys: int = 0
    evicted_keys: int = 0
    served_by: list[str] = field(default_factory=list)
    #: The function the workload executed on (None on substrates that run
    #: requests outside the serverless fleet, e.g. the aggregator baselines).
    #: The discrete-event engine queues concurrent requests on this function.
    execution_function: str | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of required objects found in the serverless cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0

    def to_record(self, system: str, model_name: str, round_id: int, client_id: int | None = None) -> RequestRecord:
        """Convert into a :class:`RequestRecord` for the metrics collector."""
        return RequestRecord(
            request_id=self.request_id,
            system=system,
            workload=self.workload,
            model_name=model_name,
            round_id=round_id,
            latency=self.latency,
            cost=self.cost,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            client_id=client_id,
        )


class FLStore:
    """Serverless storage and execution layer for non-training FL workloads."""

    system_name = "flstore"

    def __init__(
        self,
        config: SimulationConfig | None = None,
        policy: CachingPolicy | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.clock = SimClock()
        self.topology = NetworkTopology(self.config.network)
        self.cost_model = TransferCostModel(self.config.pricing)
        self.platform = ServerlessPlatform(
            config=self.config.serverless, pricing=self.config.pricing, clock=self.clock
        )
        self.cluster = ServerlessCacheCluster(self.platform)
        self.persistent_store = ObjectStore(
            self.topology.objstore, self.cost_model, name="persistent-store"
        )
        self.catalog = RoundCatalog()
        self.policy = policy or make_policy_bundle(
            "tailored", config=self.config.cache_policy, seed=self.config.seed
        )
        self.engine = CacheEngine(self.policy, self.cluster, self.persistent_store, catalog=self.catalog)
        self.tracker = RequestTracker()
        self.model_spec: ModelSpec = get_model_spec(self.config.job.model_name)
        self.ingest_cost = CostBreakdown.zero()
        self._request_ids = IdGenerator(prefix="req", width=6)
        #: Workload results by compute inputs (see ``memoized_compute``); it
        #: holds no simulated state and starts empty on every store.
        self._result_memo: dict = {}
        #: Request plans by signature (see :meth:`request_plan`), valid for
        #: catalog version ``_plan_version``; like the result memo it holds
        #: no simulated state and starts empty on every store.
        self._plan_memo: dict[tuple, RequestPlan] = {}
        self._plan_version = self.catalog.version
        #: Each request's share of the trace's always-on (keep-alive) hours.
        self._share_hours = self.config.trace_duration_hours / max(
            1, self.config.trace_num_requests
        )

    # --------------------------------------------------------------- ingest

    def ingest_round(self, record: RoundRecord) -> IngestReport:
        """Ingest a freshly completed training round (asynchronous to requests)."""
        report = self.engine.ingest_round(record, now=self.clock.now())
        self.ingest_cost = self.ingest_cost + report.backup_cost
        return report

    def ingest_round_cold(self, record: RoundRecord) -> IngestReport:
        """Register and back up a round without populating the cache.

        Used by replica-warmed shard joins, where cache placement arrives via
        scheduled warm events instead of the ingest policy (see
        :meth:`repro.core.cache_engine.CacheEngine.ingest_round_cold`).
        """
        report = self.engine.ingest_round_cold(record, now=self.clock.now())
        self.ingest_cost = self.ingest_cost + report.backup_cost
        return report

    # ---------------------------------------------------------------- serve

    def make_request(
        self,
        workload: str,
        round_id: int,
        client_id: int | None = None,
        history_rounds: int = 2,
        **params: Any,
    ) -> WorkloadRequest:
        """Convenience constructor for a request with an auto-generated id."""
        return WorkloadRequest(
            request_id=self._request_ids.next(),
            workload=workload,
            round_id=round_id,
            client_id=client_id,
            history_rounds=history_rounds,
            params=params,
        )

    def request_plan(self, workload: Workload, request: WorkloadRequest) -> RequestPlan:
        """``request``'s static plan: its required keys and fixed costs.

        The plan is a function of the request's
        :func:`~repro.workloads.base.request_signature` and of the round
        catalog, never of the request id or tenant (the ``required_keys``
        contract of :class:`~repro.workloads.base.Workload`).  So it is
        computed once per signature and catalog version and reused; a
        request whose params cannot be hashed is planned afresh.
        """
        catalog = self.catalog
        memo = self._plan_memo
        if self._plan_version != catalog.version:
            memo.clear()
            self._plan_version = catalog.version
        try:
            signature = request_signature(workload, request)
            plan = memo.get(signature)
        except TypeError:  # unhashable (or unorderable) params
            signature = plan = None
        if plan is None:
            keys = tuple(workload.required_keys(request, catalog))
            plan = RequestPlan(
                keys,
                workload.compute_seconds(self.model_spec, max(len(keys), 1)),
                self.topology.client.transfer_seconds(workload.result_size_bytes),
            )
            if signature is not None:
                memo[signature] = plan
        return plan

    def serve(self, request: WorkloadRequest) -> ServeResult:
        """Serve one non-training request end to end (Figure 6 workflow)."""
        return self._serve(request, self._execute)

    def service_latency(self, request: WorkloadRequest) -> LatencyBreakdown:
        """``serve(request).latency``, without executing the workload or writing its result.

        Runs every other step of :meth:`serve` in the same order (plan,
        tracker, gather with miss admission, invoke, prefetch and evictions,
        clock advance), so the cache, the tracker and the clock end as a
        ``serve`` would leave them and the latency is the same, bit for bit.
        Only the persistent store differs: it holds no result for the
        request.  Calibration reads nothing else of a served request.
        """
        return self._serve(request, self._bill_result).latency

    def _serve(self, request: WorkloadRequest, execute: _Execute) -> ServeResult:
        """The Figure 6 workflow, with ``execute`` (:data:`_Execute`) as its workload step.

        ``execute`` runs after the invoke and before the prefetch, so a
        workload that raises leaves the prefetch, the evictions and the clock
        untouched.
        """
        workload = get_workload(request.workload)
        required_keys, compute_seconds, result_seconds = self.request_plan(workload, request)
        tracked = self.tracker.submit(request.request_id)
        routed = tracked.function_ids

        latency = LatencyAccumulator()
        latency.add_communication(self.topology.client.rtt_seconds)
        cost = CostAccumulator()

        # --- resolve and gather required data ------------------------------
        # One pass over the cache index: hits load from their holders, misses
        # are fetched from the persistent store (and admitted, if the policy
        # says so) by ``fetch_missed``, and bytes are tallied per holder for
        # the execution pick.  The policy sees every access in key order,
        # except hits when its ``record_access`` is the base class's no-op.
        now = self.clock.now()
        policy = self.policy
        record_access = policy.record_access
        miss_fetch_seconds = 0.0
        record_hit = None
        if getattr(record_access, "__func__", None) is not _NO_OP_RECORD_ACCESS:

            def record_hit(key: DataKey) -> None:
                record_access(key, True, now)

        def fetch_missed(key: DataKey) -> tuple[Any, bool]:
            nonlocal miss_fetch_seconds
            fetch_latency, fetch_cost, value = self._fetch_from_persistent(key)
            latency.add(fetch_latency)
            cost.add(fetch_cost)
            miss_fetch_seconds += fetch_latency.total_seconds
            record_access(key, hit=False, now=now)
            if value is None or not policy.admit_on_miss:
                return value, False
            latency.add(self.engine.admit(key, value, now=now))
            return value, True

        gathered = self.cluster.gather(required_keys, record_hit, fetch_missed)
        # The failover timeout is paid once per failed primary function, not
        # once per key it held.
        failover_timeout = self.config.serverless.failover_timeout_seconds
        for _ in range(gathered.failed_functions):
            latency.add_queueing(failover_timeout)
        routed += gathered.holders

        # --- locality-aware execution on the serverless cache --------------
        execution_function = gathered.execution_function
        if execution_function is None:
            execution_function, spawn_latency = self._any_warm_function()
            latency.add(spawn_latency)
        invoke = self.platform.invoke(execution_function, busy_seconds=compute_seconds)
        latency.add(invoke.latency)
        cost.add(invoke.cost)
        if execution_function not in routed:
            routed.append(execution_function)
        if miss_fetch_seconds > 0:
            # The executing function is occupied (and billed per GB-second)
            # while it pulls cold objects from the persistent store; the
            # latency of that wait is already counted above, this adds the
            # corresponding serverless billing.
            memory_gb = (
                self.platform.get_function(execution_function).memory_limit_bytes / (1024**3)
            )
            cost.add(self.cost_model.lambda_execution_cost(memory_gb, miss_fetch_seconds))

        # --- execute, return the result and persist it ----------------------
        # ``serve`` runs the workload and writes its result here;
        # ``service_latency`` only prices the write.
        result, result_bill = execute(workload, request, gathered.data)
        latency.add_communication(result_seconds)
        cost.add(result_bill)  # asynchronous: cost counted, latency off the critical path

        # --- tailored prefetching and eviction ------------------------------
        plan = self.engine.plan_request(request, required_keys)
        prefetched = 0
        # Only a fetch changes liveness, so when every key is already live
        # each iteration below would skip: one scan answers for all of them.
        if not self.cluster.all_live(plan.prefetch_keys):
            is_live = self.cluster.is_live
            for key in plan.prefetch_keys:
                if is_live(key):
                    continue
                _, fetch_cost, value = self._fetch_from_persistent(key)
                if value is None:
                    continue
                cost.add(fetch_cost)  # prefetch is asynchronous: cost only
                self.engine.admit(key, value, now=self.clock.now())
                prefetched += 1
        evicted = self.engine.apply_evictions(plan.evict_keys)

        # --- per-request share of always-on costs ---------------------------
        cost.add(self.platform.keepalive_cost(self._share_hours))

        tracked.completed = True
        self.clock.advance(latency.total_seconds)
        return ServeResult(
            request_id=request.request_id,
            workload=request.workload,
            result=result,
            latency=latency.finalize(),
            cost=cost.finalize(),
            cache_hits=gathered.hits,
            cache_misses=gathered.misses,
            failovers=gathered.failovers,
            prefetched_keys=prefetched,
            evicted_keys=evicted,
            served_by=list(routed),
            execution_function=execution_function,
        )

    # ---------------------------------------------------------------- helpers

    def _execute(
        self, workload: Workload, request: WorkloadRequest, data: Mapping[DataKey, Any]
    ) -> tuple[dict[str, Any], CostBreakdown]:
        """Run ``workload`` on the gathered ``data`` and persist the result."""
        result = memoized_compute(self._result_memo, workload, request, data)
        stored = self.persistent_store.put(
            ("result", request.request_id), result, size_bytes=workload.result_size_bytes
        )
        return result, stored.cost

    def _bill_result(
        self, workload: Workload, request: WorkloadRequest, data: Mapping[DataKey, Any]
    ) -> tuple[None, CostBreakdown]:
        """What :meth:`_execute` would bill for the result write, running nothing."""
        del request, data
        return None, self.persistent_store.put_effects(workload.result_size_bytes)[1]

    def _fetch_from_persistent(self, key: DataKey) -> tuple[LatencyBreakdown, CostBreakdown, Any]:
        """Fetch a cold object from the persistent store (returns ``None`` if absent)."""
        try:
            result = self.persistent_store.get(key)
        except DataNotFoundError:
            return LatencyBreakdown.zero(), CostBreakdown.zero(), None
        return result.latency, result.cost, result.value

    def _any_warm_function(self) -> tuple[str, LatencyBreakdown]:
        """Return any warm function plus the cold-start latency of spawning one.

        The spawn latency is zero when the fleet already has a warm function;
        otherwise the caller must charge the returned cold-start latency to
        the request (it used to be silently dropped).
        """
        warm = self.platform.warm_functions()
        if warm:
            return warm[0].function_id, LatencyBreakdown.zero()
        function, spawn = self.platform.spawn_function()
        return function.function_id, spawn.latency

    # ------------------------------------------------------------- reporting

    def standby_cost(self, duration_hours: float | None = None) -> CostBreakdown:
        """Cost of keeping FLStore available for ``duration_hours`` with no requests."""
        hours = self.config.trace_duration_hours if duration_hours is None else duration_hours
        return self.platform.keepalive_cost(hours)

    @property
    def cached_bytes(self) -> int:
        """Bytes of FL metadata currently resident in the serverless cache."""
        return self.cluster.total_cached_bytes

    @property
    def warm_function_count(self) -> int:
        """Number of warm serverless functions backing the cache."""
        return self.platform.warm_count

    def component_overhead(self) -> dict[str, int]:
        """Memory overhead of the Cache Engine and Request Tracker (Section 5.5)."""
        return {
            "cache_engine_bytes": self.engine.memory_overhead_bytes(),
            "request_tracker_bytes": self.tracker.memory_overhead_bytes(),
        }


def build_default_flstore(
    config: SimulationConfig | None = None,
    policy_mode: str = "tailored",
) -> FLStore:
    """Build an FLStore instance with the requested policy variant.

    Parameters
    ----------
    config:
        Simulation configuration (defaults to the paper's setup).  Its
        ``serverless.replication_factor`` sets the replica functions per
        cached object (Section 4.5).
    policy_mode:
        Policy variant: ``"tailored"`` (FLStore), ``"limited"``, ``"static"``,
        ``"random-policy"``, ``"lru"``, ``"lfu"``, ``"fifo"`` or
        ``"random-eviction"`` (see Figure 11 and Table 2).
    """
    config = config or SimulationConfig()
    policy = make_policy_bundle(policy_mode, config=config.cache_policy, seed=config.seed)
    return FLStore(config=config, policy=policy)
