"""The per-shard serving engine: FLStore requests as timed processes.

:class:`EngineFLStore` is one shard of the serving tier — a facade over
:class:`repro.core.flstore.FLStore` that admits *overlapping* requests, driven
by the routing front door (:class:`repro.engine.sharded.ShardedEngineFLStore`),
which schedules arrivals, keeps the outcome rows, and builds the report.  The
analytic core stays the oracle for what a request does (which keys it
touches, which function executes it, what its service latency and dollar cost
are); the shard adds what the analytic path cannot express:

* requests arrive at virtual times (open-loop load from
  :mod:`repro.traces.arrivals`) instead of back to back,
* each execution function admits ``config.serverless.function_concurrency``
  concurrent requests; excess requests wait in the function's FIFO/priority
  queue (:class:`repro.serverless.function.RequestQueue`), so *sojourn time*
  (queue wait + service) degrades under load,
* keep-alive pings fire as *scheduled events* on the event heap instead of
  eager per-request callbacks; provider reclamations arrive the same way, as
  the ``reclamation-storm`` fault clause (:mod:`repro.engine.faults`).

Closed-loop equivalence is the design invariant: when requests arrive
sequentially (each one after the previous completed), a tier reproduces the
direct ``FLStore.serve`` path byte for byte — same :class:`ServeResult`
latencies, costs, hit counts, and routing.  ``tests/test_sharded.py``
enforces this for every registered workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.common.units import GB
from repro.core.flstore import FLStore, ServeResult
from repro.engine.kernel import SimTask, Timeout
from repro.engine.streaming import DepthAccumulator
from repro.network.model import spike_cost, spike_latency
from repro.simulation.metrics import RequestRecord
from repro.simulation.records import (
    CostAccumulator,
    CostBreakdown,
    LatencyAccumulator,
    LatencyBreakdown,
)
from repro.workloads.base import WorkloadRequest
from repro.workloads.registry import get_workload

if TYPE_CHECKING:  # the front door imports this module; annotations only
    from repro.engine.sharded import ShardedEngineFLStore

#: How a request left the engine:
#: ``served`` — executed on the serving tier (possibly after queueing);
#: ``requeued`` — its function was reclaimed while it waited, so it finished
#: without holding a slot (the PR-2 behaviour, now accounted for);
#: ``degraded`` — shed by admission control onto the object-store bypass;
#: ``shed`` — rejected outright at a full queue.
DISPOSITIONS: tuple[str, ...] = ("served", "requeued", "degraded", "shed")


@dataclass(slots=True)
class EngineOutcome:
    """One request's trip through the engine: analytic result plus timing."""

    request: WorkloadRequest
    result: ServeResult
    arrived_at: float
    started_at: float
    completed_at: float
    disposition: str = "served"

    def __post_init__(self) -> None:
        if self.disposition not in DISPOSITIONS:
            raise ValueError(
                f"unknown disposition {self.disposition!r}; expected one of {DISPOSITIONS}"
            )

    @property
    def tenant_id(self) -> str | None:
        """The tenant the request belongs to (``None`` on single-tenant runs)."""
        return self.request.tenant_id

    @property
    def wait_seconds(self) -> float:
        """Time spent queued for an execution slot."""
        return self.started_at - self.arrived_at

    @property
    def sojourn_seconds(self) -> float:
        """Arrival-to-completion time (queue wait + service)."""
        return self.completed_at - self.arrived_at

    def to_record(self, system: str, model_name: str) -> RequestRecord:
        """A :class:`RequestRecord` whose queueing component includes the wait."""
        latency = self.result.latency + LatencyBreakdown(queueing_seconds=self.wait_seconds)
        return RequestRecord(
            request_id=self.request.request_id,
            system=system,
            workload=self.request.workload,
            model_name=model_name,
            round_id=self.request.round_id,
            latency=latency,
            cost=self.result.cost,
            cache_hits=self.result.cache_hits,
            cache_misses=self.result.cache_misses,
            client_id=self.request.client_id,
        )


def rejection_result(flstore: FLStore, request: WorkloadRequest) -> ServeResult:
    """The :class:`ServeResult` of a request rejected by admission control.

    The client still pays the front-door round trip to learn about the
    rejection; nothing executes, so there is no compute latency or cost.
    """
    return ServeResult(
        request_id=request.request_id,
        workload=request.workload,
        result={"admitted": False, "shed_policy": "drop"},
        latency=LatencyBreakdown(communication_seconds=flstore.topology.client.rtt_seconds),
        cost=CostBreakdown.zero(),
    )


def serve_degraded(flstore: FLStore, request: WorkloadRequest) -> ServeResult:
    """Serve ``request`` on the degraded object-store bypass path.

    Models the ``degrade-to-objstore`` shedding policy: an ephemeral cold
    function fetches every required object from the persistent store,
    computes the workload, and writes the result back — never touching the
    serving tier's cache, queues, policies, or analytic clock, so admitted
    traffic is byte-unaffected by concurrent degraded serves.  (It does
    share the shard's workload-result memo and request plans, which hold
    no simulated state.)  The latency is dominated by the cold start plus
    the object-store fetches, which is exactly the regime FLStore exists
    to avoid; shedding onto it trades tail latency for availability.
    """
    workload = get_workload(request.workload)
    required, compute_seconds, result_seconds = flstore.request_plan(workload, request)
    serverless = flstore.config.serverless
    latency = LatencyAccumulator()
    cost = CostAccumulator()
    latency.add_communication(flstore.topology.client.rtt_seconds)
    latency.add(LatencyBreakdown(cold_start_seconds=serverless.cold_start_seconds))

    data = {}
    fetch_seconds = 0.0
    for key in required:
        fetch_latency, fetch_cost, value = flstore._fetch_from_persistent(key)
        latency.add(fetch_latency)
        cost.add(fetch_cost)
        fetch_seconds += fetch_latency.total_seconds
        if value is not None:
            data[key] = value

    latency.add(
        LatencyBreakdown(
            computation_seconds=compute_seconds,
            communication_seconds=serverless.invocation_overhead_seconds,
        )
    )
    # The ephemeral function is occupied (and billed) for the fetches and
    # the compute; it holds no cache, so it is billed at the default size.
    memory_gb = serverless.default_function_memory_bytes / GB
    billed_seconds = max(fetch_seconds + compute_seconds, 0.001)
    cost.add(flstore.cost_model.lambda_execution_cost(memory_gb, billed_seconds))

    result, result_bill = flstore._execute(workload, request, data)
    latency.add_communication(result_seconds)
    cost.add(result_bill)  # asynchronous: cost counted, latency off the critical path

    return ServeResult(
        request_id=request.request_id,
        workload=request.workload,
        result=result,
        latency=latency.finalize(),
        cost=cost.finalize(),
        cache_hits=0,
        cache_misses=len(required),
    )


@dataclass
class LoadReport:
    """Aggregate outcome of one open-loop run (one arrival process, one rate)."""

    label: str
    submitted: int
    completed: int
    offered_rps: float
    goodput_rps: float
    horizon_seconds: float
    mean_sojourn_seconds: float
    p50_sojourn_seconds: float
    p95_sojourn_seconds: float
    p99_sojourn_seconds: float
    mean_wait_seconds: float
    mean_service_seconds: float
    mean_queue_depth: float
    max_queue_depth: int
    keepalive_pings: int = 0
    reclamations: int = 0
    #: Admission-control accounting: every submitted request ends up in
    #: exactly one of served / requeued / degraded / shed, so
    #: ``served + requeued + degraded + shed == submitted`` always holds.
    served: int = 0
    requeued: int = 0
    degraded: int = 0
    shed: int = 0
    shed_rate: float = 0.0
    #: Fraction of completed (non-shed) requests whose sojourn exceeded the
    #: SLO (0.0 when no SLO was set for the run).
    violation_rate: float = 0.0
    slo_seconds: float | None = None
    #: Per-tenant breakdown rows (empty on single-tenant runs).  Each row
    #: counts ``served`` strictly (requeued listed separately), so the
    #: per-tenant conservation invariant reads ``served + requeued +
    #: degraded + shed == offered``.
    tenant_rows: list[dict] = field(default_factory=list)
    outcomes: list[EngineOutcome] = field(default_factory=list, repr=False)

    @property
    def conserved(self) -> bool:
        """Whether every submitted request is accounted for exactly once.

        ``served`` already includes ``requeued`` (both finished on the
        serving tier), so conservation reads ``served + degraded + shed ==
        submitted`` — the invariant every sweep asserts.
        """
        return self.served + self.degraded + self.shed == self.submitted

    def row(self) -> dict:
        """The scalar columns of this report (for tables and JSON export)."""
        return {
            "process": self.label,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "completed": self.completed,
            "p50_sojourn_seconds": self.p50_sojourn_seconds,
            "p95_sojourn_seconds": self.p95_sojourn_seconds,
            "p99_sojourn_seconds": self.p99_sojourn_seconds,
            "mean_wait_seconds": self.mean_wait_seconds,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "served": self.served,
            "shed": self.shed,
            "degraded": self.degraded,
            "requeued": self.requeued,
            "shed_rate": self.shed_rate,
            "violation_rate": self.violation_rate,
        }

    def to_records(self, system: str = "engine-flstore", model_name: str = "unknown") -> list[RequestRecord]:
        """Per-request :class:`RequestRecord` rows (completion order)."""
        return [outcome.to_record(system, model_name) for outcome in self.outcomes]


def build_tenant_rows(
    outcomes: Sequence[EngineOutcome],
    tenant_slos: "Mapping[str, float | None] | None" = None,
) -> list[dict]:
    """Per-tenant breakdown rows aggregated from tagged outcomes.

    Tenants are reported in sorted-name order.  ``served`` counts strictly
    served requests (requeued is its own column), so each row satisfies
    ``served + requeued + degraded + shed == offered``.  ``service_share``
    is the tenant's fraction of all finished (non-shed) tenant requests —
    the quantity WFQ/DRR drive toward the configured weight shares.
    ``tenant_slos`` supplies each tenant's own SLO for the row's
    ``violation_rate`` (tenants absent from the map report 0.0).
    """
    by_tenant: dict[str, list[EngineOutcome]] = {}
    for outcome in outcomes:
        tenant = outcome.request.tenant_id
        if tenant is not None:
            by_tenant.setdefault(tenant, []).append(outcome)
    if not by_tenant:
        return []
    slos = tenant_slos or {}
    total_finished = sum(
        1 for rows in by_tenant.values() for o in rows if o.disposition != "shed"
    )
    tenant_rows = []
    for tenant in sorted(by_tenant):
        rows = by_tenant[tenant]
        finished = [o for o in rows if o.disposition != "shed"]
        sojourns = np.array([o.sojourn_seconds for o in finished], dtype=float)
        slo = slos.get(tenant)
        violations = int(np.count_nonzero(sojourns > slo)) if slo is not None else 0
        tenant_rows.append(
            {
                "tenant": tenant,
                "offered": len(rows),
                "served": sum(1 for o in rows if o.disposition == "served"),
                "requeued": sum(1 for o in rows if o.disposition == "requeued"),
                "degraded": sum(1 for o in rows if o.disposition == "degraded"),
                "shed": sum(1 for o in rows if o.disposition == "shed"),
                "service_share": len(finished) / total_finished if total_finished else 0.0,
                "mean_sojourn_seconds": float(sojourns.mean()) if finished else 0.0,
                "p50_sojourn_seconds": float(np.percentile(sojourns, 50)) if finished else 0.0,
                "p99_sojourn_seconds": float(np.percentile(sojourns, 99)) if finished else 0.0,
                "violation_rate": violations / len(finished) if finished else 0.0,
                "slo_seconds": slo,
            }
        )
    return tenant_rows


def build_load_report(
    outcomes: list[EngineOutcome],
    arrival_times: Sequence[float],
    label: str,
    depth: DepthAccumulator,
    keepalive_pings: int = 0,
    reclamations: int = 0,
    slo_seconds: float | None = None,
    tenant_slos: "Mapping[str, float | None] | None" = None,
) -> LoadReport:
    """Aggregate ``outcomes`` into a :class:`LoadReport`.

    The front door's full-metrics report
    (:meth:`repro.engine.sharded.ShardedEngineFLStore.run_open_loop`).
    Sojourn statistics cover completed (non-shed) requests; shed rejections
    count toward ``shed``/``shed_rate`` only.  ``depth`` is the run's
    tier-wide queue-depth profile, finalized over the run's horizon.
    """
    submitted = len(arrival_times)
    finished = [o for o in outcomes if o.disposition != "shed"]
    served = sum(1 for o in outcomes if o.disposition in ("served", "requeued"))
    requeued = sum(1 for o in outcomes if o.disposition == "requeued")
    degraded = sum(1 for o in outcomes if o.disposition == "degraded")
    shed = len(outcomes) - len(finished)
    completed = len(finished)
    first_arrival = min(arrival_times) if submitted else 0.0
    last_completion = max((o.completed_at for o in outcomes), default=first_arrival)
    horizon = max(last_completion - first_arrival, 0.0)
    arrival_span = max(arrival_times) - first_arrival if submitted > 1 else 0.0
    # Degenerate spans (a single request, an instantaneous burst) report
    # 0.0 rather than infinity so exported JSON stays strictly valid.
    offered = submitted / arrival_span if arrival_span > 0 else 0.0
    goodput = served / horizon if horizon > 0 else 0.0
    sojourns = np.array([o.sojourn_seconds for o in finished], dtype=float)
    waits = np.array([o.wait_seconds for o in finished], dtype=float)
    services = sojourns - waits
    violations = int(np.count_nonzero(sojourns > slo_seconds)) if slo_seconds is not None else 0
    mean_depth, max_depth = depth.finalize(first_arrival, last_completion)
    return LoadReport(
        label=label,
        submitted=submitted,
        completed=completed,
        offered_rps=offered,
        goodput_rps=goodput,
        horizon_seconds=horizon,
        mean_sojourn_seconds=float(sojourns.mean()) if completed else 0.0,
        p50_sojourn_seconds=float(np.percentile(sojourns, 50)) if completed else 0.0,
        p95_sojourn_seconds=float(np.percentile(sojourns, 95)) if completed else 0.0,
        p99_sojourn_seconds=float(np.percentile(sojourns, 99)) if completed else 0.0,
        mean_wait_seconds=float(waits.mean()) if completed else 0.0,
        mean_service_seconds=float(services.mean()) if completed else 0.0,
        mean_queue_depth=mean_depth,
        max_queue_depth=max_depth,
        keepalive_pings=keepalive_pings,
        reclamations=reclamations,
        served=served,
        requeued=requeued,
        degraded=degraded,
        shed=shed,
        shed_rate=shed / submitted if submitted else 0.0,
        violation_rate=violations / completed if completed else 0.0,
        slo_seconds=slo_seconds,
        tenant_rows=build_tenant_rows(outcomes, tenant_slos),
        outcomes=outcomes,
    )


class EngineFLStore:
    """One engine-backed shard of the serving tier, driven by the front door.

    The routing front door (:class:`repro.engine.sharded.ShardedEngineFLStore`)
    schedules arrivals, retains the outcome rows, and owns the tier-level
    counters; the shard serves what is routed to it.  Admission control
    reads ``config.serverless``: at most ``max_queue_depth`` requests wait
    for a slot on this shard (``0`` means unbounded), and arrivals beyond
    that are shed per the tier's ``shed_policy`` (``"drop"`` or
    ``"degrade-to-objstore"``), which the front door may switch online.
    The tenant weights and SLOs that drive queue disciplines and push-out
    admission are the tier's too; only the push-out ranking's counters
    (:attr:`tenant_finished`, :attr:`tenant_slo_violations`) are per shard.

    Parameters
    ----------
    flstore:
        The analytic core used as the serving oracle.  On the engine path,
        reclamations come from the ``reclamation-storm`` fault clause
        (:mod:`repro.engine.faults`).
    tier:
        The front door.  The shard runs on its event loop, reports each
        ``+1`` / ``-1`` change of this shard's waiting count to its
        ``note_queue_change`` (summed into the tier-wide queue depth), and
        reads its ``shed_policy``, ``tenant_weights`` and
        ``tenant_slo_seconds``.
    """

    def __init__(self, flstore: FLStore, tier: ShardedEngineFLStore) -> None:
        self.flstore = flstore
        self.tier = tier
        self.loop = tier.loop
        self.platform = flstore.platform
        self.max_queue_depth = flstore.config.serverless.max_queue_depth
        self.keepalive_pings = 0
        self.reclamations = 0
        self.shed_requests = 0
        self.degraded_requests = 0
        self.requeued_requests = 0
        #: Gray-degradation lever (:mod:`repro.engine.faults`): executions on
        #: this engine hold their slot ``multiplier`` times as long, but the
        #: analytic latency/cost records are untouched — a slow shard looks
        #: healthy in its own metrics and only sojourn times reveal it.
        self.service_time_multiplier = 1.0
        #: Transient network-spike lever: requests served while it is above
        #: 1.0 have the communication components of their latency and cost
        #: scaled (``repro.network.model.spike_latency`` / ``spike_cost``) —
        #: unlike the gray multiplier, the surcharge is visible in records.
        self.network_fault_multiplier = 1.0
        self._outstanding = 0
        self._waiting = 0
        #: Lifetime finished/violation counts per tenant on this shard; with
        #: the tier's SLOs they rank push-out victims (empty on single-tenant
        #: tiers, which keeps every untagged code path byte-identical).
        self.tenant_finished: dict[str, int] = {}
        self.tenant_slo_violations: dict[str, int] = {}
        self._tenant_waiting: dict[str, int] = {}
        # One keep-alive daemon at a time: a shard retired and re-activated
        # within one interval would otherwise end up with two concurrent
        # daemons (the old one has not yet observed its dead re-arm check).
        self._keepalive_daemon = False

    # --------------------------------------------------------- passthroughs

    @property
    def catalog(self):
        """The round catalog of the underlying FLStore."""
        return self.flstore.catalog

    @property
    def config(self):
        """The simulation configuration of the underlying FLStore."""
        return self.flstore.config

    def ingest_round(self, record):
        """Ingest a training round into the underlying FLStore."""
        return self.flstore.ingest_round(record)

    # ---------------------------------------------------------------- tenancy

    def tenant_violation_rate(self, tenant: str | None) -> float:
        """Lifetime SLO-violation rate of ``tenant`` (0.0 before any finish)."""
        if tenant is None:
            return 0.0
        finished = self.tenant_finished.get(tenant, 0)
        if not finished:
            return 0.0
        return self.tenant_slo_violations.get(tenant, 0) / finished

    def _pushout_victim(
        self, arriving: str | None, queued: Mapping[str, int]
    ) -> str | None:
        """Which queued tenant's newest waiter to shed instead of the arrival.

        SLO-aware admission: among tenants with queued requests, the one
        with the highest lifetime violation rate (ties broken by backlog
        per unit weight, then name for determinism) is pushed out — but
        only when its violation rate strictly exceeds the arriving
        tenant's, so a well-behaved arrival is never traded for an
        equally well-behaved waiter.  Returns ``None`` to shed the arrival
        as before.
        """
        arriving_rate = self.tenant_violation_rate(arriving)
        weights = self.tier.tenant_weights
        victim = None
        best: tuple[float, float, str] | None = None
        for flow, depth in queued.items():
            if flow is None or depth <= 0:
                continue
            rate = self.tenant_violation_rate(flow)
            if rate <= arriving_rate:
                continue
            key = (rate, depth / weights.get(flow, 1.0), str(flow))
            if best is None or key > best:
                best = key
                victim = flow
        return victim

    def _try_pushout(self, request: WorkloadRequest) -> bool:
        """Shed a worse-violating queued tenant's request to admit ``request``.

        Returns whether a victim was evicted (its waiter resumes
        synchronously with a ``"shed"`` grant and records its own shed
        outcome), leaving admission room for the arrival.
        """
        if not self.tier.tenant_weights:
            return False
        victim = self._pushout_victim(request.tenant_id, self._tenant_waiting)
        if victim is None:
            return False
        token = self.platform.evict_waiter(victim)
        if token is None:
            return False
        token.resolve("shed")
        return True

    # -------------------------------------------------------------- admission

    def admit(self, request: WorkloadRequest, task: SimTask, priority: float = 0.0) -> None:
        """Admit an arrival now, inside the front door's routing event.

        The front door routes and admits in one event: this runs admission
        control and starts the request's process on ``task``, the front
        door's own task, which resolves with an :class:`EngineOutcome` when
        the request completes.  When ``max_queue_depth`` requests are
        already waiting, the arrival is shed per the tier's ``shed_policy``
        *before* the serving oracle runs, so a dropped request leaves no
        trace in the cache, the policies, or the analytic clock, and a drop
        resolves ``task`` before this call returns.
        """
        self._outstanding += 1
        if (
            self.max_queue_depth > 0
            and self._waiting >= self.max_queue_depth
            and not self._try_pushout(request)
        ):
            process = self._shed_process(request, self.loop.now)
        else:
            process = self._request_process(request, priority)
        self.loop.process(process, task=task)

    def _shed_process(self, request: WorkloadRequest, arrived_at: float):
        """Shed ``request`` per the tier's ``shed_policy``; returns its outcome.

        ``"drop"`` rejects it on the spot (the process never waits, so a
        drop at admission resolves inside the front door's arrival event);
        ``"degrade-to-objstore"`` serves it on the object-store bypass — no
        queue, no cache.  Runs for an arrival refused admission and for a
        waiter pushed out of its queue, whose serving-oracle side effects
        stand; ``arrived_at`` is the request's original arrival.
        """
        shed_at = self.loop.now
        if self.tier.shed_policy == "degrade-to-objstore":
            self.degraded_requests += 1
            result = self._apply_network_fault(serve_degraded(self.flstore, request))
            service_seconds = result.latency.total_seconds * self.service_time_multiplier
            if service_seconds > 0:
                yield Timeout(service_seconds)
            disposition = "degraded"
        else:
            self.shed_requests += 1
            result = rejection_result(self.flstore, request)
            disposition = "shed"
        outcome = EngineOutcome(
            request=request,
            result=result,
            arrived_at=arrived_at,
            started_at=shed_at,
            completed_at=self.loop.now,
            disposition=disposition,
        )
        self._record(outcome)
        self._outstanding -= 1
        return outcome

    def _request_process(self, request: WorkloadRequest, priority: float):
        """One request as a timed process: serve oracle, queue, execute, release."""
        arrived_at = self.loop.now
        disposition = "served"
        result = self._apply_network_fault(self.flstore.serve(request))
        function_id = result.execution_function
        holds_slot = False
        if function_id is not None and self.platform.has_function(function_id):
            if self.platform.try_acquire_slot(function_id):
                holds_slot = True
            else:
                token = SimTask(self.loop, name=f"slot:{request.request_id}")
                tenant = request.tenant_id
                weights = self.tier.tenant_weights
                weight = weights.get(tenant, 1.0) if tenant else 1.0
                queue = self.platform.request_queue(function_id)
                if weights and queue.full:
                    # A cross-function push-out freed global admission room
                    # but this particular function's queue is still at
                    # capacity: evict its worst-scored flow locally so the
                    # admitted arrival has somewhere to wait.
                    flows = queue.queued_flows()
                    local_victim = max(
                        flows,
                        key=lambda f: (
                            self.tenant_violation_rate(f),
                            flows[f] / weights.get(f, 1.0),
                            str(f),
                        ),
                    )
                    evicted = queue.evict(local_victim)
                    if evicted is not None:
                        evicted.resolve("shed")
                self.platform.enqueue_waiter(
                    function_id, token, priority, flow=tenant, weight=weight
                )
                if tenant is not None:
                    self._tenant_waiting[tenant] = self._tenant_waiting.get(tenant, 0) + 1
                self._note_queue_change(+1)
                granted = yield token
                self._note_queue_change(-1)
                if tenant is not None:
                    remaining = self._tenant_waiting.get(tenant, 0) - 1
                    if remaining > 0:
                        self._tenant_waiting[tenant] = remaining
                    else:
                        self._tenant_waiting.pop(tenant, None)
                if granted == "shed":
                    # Pushed out of the queue by SLO-aware admission in
                    # favour of a better-behaved arrival.
                    return (yield from self._shed_process(request, arrived_at))
                # A False grant means the function was reclaimed while the
                # request waited; it proceeds without holding a slot (its
                # analytic outcome already happened at arrival) and is
                # accounted as requeued rather than silently passing.
                holds_slot = bool(granted)
                if not holds_slot:
                    disposition = "requeued"
                    self.requeued_requests += 1
        started_at = self.loop.now
        service_seconds = result.latency.total_seconds * self.service_time_multiplier
        if service_seconds > 0:
            yield Timeout(service_seconds)
        if holds_slot:
            next_token = self.platform.release_slot(function_id)
            if next_token is not None:
                next_token.resolve(True)
        outcome = EngineOutcome(
            request=request,
            result=result,
            arrived_at=arrived_at,
            started_at=started_at,
            completed_at=self.loop.now,
            disposition=disposition,
        )
        self._record(outcome)
        self._outstanding -= 1
        return outcome

    def _record(self, outcome: EngineOutcome) -> None:
        """Count a finished tenant request toward this shard's push-out ranking."""
        tenant = outcome.request.tenant_id
        if tenant is None or outcome.disposition == "shed":
            return
        self.tenant_finished[tenant] = self.tenant_finished.get(tenant, 0) + 1
        slo = self.tier.tenant_slo_seconds.get(tenant)
        if slo is not None and outcome.sojourn_seconds > slo:
            self.tenant_slo_violations[tenant] = self.tenant_slo_violations.get(tenant, 0) + 1

    def _note_queue_change(self, delta: int) -> None:
        self._waiting += delta
        self.tier.note_queue_change(delta)

    def _apply_network_fault(self, result: ServeResult) -> ServeResult:
        """Scale a result's communication latency/cost during a network spike."""
        if self.network_fault_multiplier == 1.0:
            return result
        return dataclasses.replace(
            result,
            latency=spike_latency(result.latency, self.network_fault_multiplier),
            cost=spike_cost(result.cost, self.network_fault_multiplier),
        )

    # ------------------------------------------------------- capacity scaling

    @property
    def waiting(self) -> int:
        """Requests currently queued for an execution slot on this engine."""
        return self._waiting

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet completed (queued or executing)."""
        return self._outstanding

    def set_function_concurrency(self, limit: int) -> int:
        """Re-scale per-function concurrency; resume waiters granted new slots.

        The autoscaler's within-shard actuator: raising ``limit`` models
        spawning extra warm instances behind each logical function (queued
        requests start executing immediately), lowering it retires instances
        lazily as their executions finish.  Returns the number of waiters
        granted a slot by the change.
        """
        granted = self.platform.set_function_concurrency(limit)
        for token in granted:
            # Resuming a waiter (resolve) re-enters its process, which
            # performs its own queue-depth decrement.
            token.resolve(True)
        return len(granted)

    def force_reclaim(self, function_ids: Iterable[str]) -> list[str]:
        """Reclaim the named warm functions *now* (a correlated fault burst).

        The engine path's only reclamation actuator, driven by the
        ``reclamation-storm`` fault clause (:mod:`repro.engine.faults`): the
        caller decides exactly which functions die.  Waiters queued on a
        reclaimed function resume without a slot and are accounted as
        ``requeued`` — the same conservation semantics as :meth:`retire` —
        and the cache drops the lost keys.  Returns the function ids
        actually reclaimed (cold ones are skipped).
        """
        reclaimed: list[str] = []
        for function_id in function_ids:
            if not self.platform.has_function(function_id):
                continue
            if not self.platform.get_function(function_id).is_warm:
                continue
            self.platform.reclaim_function(function_id)
            self.reclamations += 1
            reclaimed.append(function_id)
            # Resuming a waiter (resolve) re-enters its process, which
            # performs its own queue-depth decrement.
            for token in self.platform.drain_waiters(function_id):
                token.resolve(False)
        if reclaimed:
            self.flstore.engine.drop_lost_keys()
        return reclaimed

    def retire(self) -> None:
        """Take this shard out of service: drain waiters, release warm capacity.

        Queued waiters resume without a slot and are accounted as
        ``requeued`` (the same semantics as a reclamation draining them), so
        conservation holds across the resize; in-flight executions finish on
        the shared loop.  Warm functions are reclaimed, so the shard stops
        counting toward the tier's warm capacity and cache liveness.  Its
        keep-alive daemon winds down at its next tick (the re-arm predicate
        checks that the shard is still active).
        """
        for function in list(self.platform.functions()):
            function_id = function.function_id
            for token in self.platform.drain_waiters(function_id):
                token.resolve(False)
            if function.is_warm:
                self.platform.reclaim_function(function_id)
        self.flstore.engine.drop_lost_keys()

    # --------------------------------------------------- lifecycle as events

    def schedule_keepalive(self, alive: Callable[[], bool]) -> None:
        """Ping warm functions every ``keepalive_interval_seconds`` of virtual time.

        The recurring event first advances the shared analytic clock to the
        engine's virtual time (monotonically), then pings every warm
        function, so ``last_invoked_at`` stamps track the open-loop timeline
        rather than the analytic per-request one.  It re-arms itself while
        ``alive()`` holds — a periodic daemon on the event heap instead of an
        eager callback per request.  The front door supplies ``alive``: under
        route-at-arrival a shard only learns about a request when it arrives,
        so its own count going momentarily to zero must not stop the daemon
        while the tier still has traffic coming.
        """
        interval = self.flstore.config.serverless.keepalive_interval_seconds
        if interval <= 0:
            raise ValueError(f"keepalive interval must be positive, got {interval}")
        if self._keepalive_daemon:
            return
        self._keepalive_daemon = True

        def _ping() -> None:
            self.flstore.clock.advance_to(self.loop.now)
            for function in self.platform.warm_functions():
                self.platform.ping(function.function_id)
                self.keepalive_pings += 1
            if alive():
                self.loop.schedule(interval, _ping)
            else:
                self._keepalive_daemon = False

        self.loop.schedule(interval, _ping)
