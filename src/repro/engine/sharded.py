"""The serving tier: a routing front door over engine-backed shards.

Every topology is a :class:`ShardedEngineFLStore` — a plain spec is one
shard behind the default consistent-hash ring.  The front door owns N
independent ``FLStore`` + :class:`~repro.engine.flstore.EngineFLStore`
shards running on **one shared event loop** (a single virtual timeline),
drives the open-loop run, routes every request to a shard by its
data-affinity key (:mod:`repro.routing`), and aggregates the results:
per-request :class:`~repro.engine.flstore.EngineOutcome` rows in global
completion order, running latency/cost accumulators, one tier-wide
queue-depth profile summed from the shards' ``+1``/``-1`` queue reports, and
cache-liveness accounting (cached bytes, live keys, warm functions) summed
over the tier.

Each shard keeps its own admission controller
(``ServerlessConfig.max_queue_depth``, shedding per the tier's
``shed_policy``), so overload on a hot shard sheds or degrades only that
shard's arrivals while cold shards keep serving — the scaling behaviour a
``tier.shards`` sweep of the ``sharded-burst`` scenario measures.

The tier resizes online (:meth:`add_shard` / :meth:`remove_shard`), which is
what the autoscaler (:mod:`repro.engine.autoscale`) actuates:

* requests are routed when they *arrive* (not when they are submitted), so
  arrivals always see the current shard set, and admitted to their shard in
  that same event, so no resize lands between the two;
* shards are added and retired last-in-first-out, so the consistent-hash
  ring over K active shards is always exactly the one a fresh K-shard tier
  would build, and a resize remaps only ~1/(K+1) of the key space;
* a freshly added shard replays the tier's ingested rounds into its
  persistent store but joins with a *cold cache* (its warm functions are
  reclaimed after the replay), so the warmup transient — misses, persistent
  fetches, cold starts — is part of the simulated cost of scaling out;
* a retired shard drains its waiters as ``requeued`` (the PR-3 reclamation
  semantics), keeping ``served + requeued + degraded + shed == offered``
  across resize events.

Design invariant: a one-shard tier *is* the plain topology, by
construction — there is no second serving path for it to drift from.  The
fixtures under ``tests/data/one_shard_engine/`` (recorded from the retired
standalone engine driver) and ``tests/data/run_reports/`` pin its per-request
rows, timings, and reports byte for byte.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.cloud.payload import payload_size_bytes
from repro.common.errors import ConfigurationError
from repro.config import SHED_POLICIES
from repro.core.flstore import FLStore, ServeResult, build_default_flstore
from repro.core.serverless_cache import PLACEMENT_ERRORS
from repro.engine.flstore import (
    EngineFLStore,
    EngineOutcome,
    LoadReport,
    build_load_report,
)
from repro.engine.kernel import EventLoop, SimTask
from repro.engine.streaming import DepthAccumulator, StreamingLoadCollector, check_metrics_mode
from repro.routing import ShardRouter, make_router, request_routing_key, stable_hash_u64
from repro.workloads.base import WorkloadRequest
from repro.workloads.registry import get_workload

#: Replication policies understood by the front door.  ``"none"`` keeps the
#: tier byte-identical to the pre-replication behaviour; ``"hot-static"``
#: replicates the statically known hot key (cross-client requests against the
#: latest round — the P1 pattern); ``"hot-tracked"`` replicates any routing
#: key whose observed arrival count reaches the hot threshold.
REPLICATION_POLICIES: tuple[str, ...] = ("none", "hot-static", "hot-tracked")


class ShardedEngineFLStore:
    """Routing front door over N independent engine-backed FLStore shards.

    Parameters
    ----------
    flstores:
        The analytic shard cores, one per shard.  Every shard ingests the
        full round stream (each is a complete store), so any shard *can*
        serve any request; the router partitions the request stream for
        cache affinity and parallel capacity, not for data availability.
    router:
        Key-to-shard placement (defaults to a consistent-hash ring over the
        shard count).  Online resize rebuilds the router through
        :meth:`repro.routing.ShardRouter.resized`, which preserves the
        router's kind and parameters (e.g. ``vnodes``).
    loop:
        Shared event loop; all shards schedule on one virtual timeline.
    shard_factory:
        Zero-argument callable building a fresh (un-ingested) ``FLStore``
        for :meth:`add_shard`; without one the tier cannot scale out.
    warm_rounds:
        Round records already ingested into ``flstores`` before the tier was
        built (e.g. by ``prepare_setup``); replayed into shards added later
        so they serve from the same catalog.
    replication_factor / replication_policy / hot_threshold:
        Hot-key replication (read-only).  With a policy other than
        ``"none"``, a hot routing key's data is replicated onto its
        ``replication_factor`` ring-successor shards (primary included in
        the count) via scheduled warm events — each replica key pays its own
        cold start plus persistent fetch, so concurrent cold starts overlap
        as real processes on the timeline — and arrivals for the key are
        served from any active shard whose replica is fully live (JSQ picks
        the least-loaded live holder; hash routers pick deterministically by
        request id).  ``"hot-static"`` replicates the canonical P1 hot key
        (cross-client, latest round); ``"hot-tracked"`` promotes any key
        after ``hot_threshold`` observed arrivals.  Replication also warms
        shard joins: :meth:`add_shard` seeds the joining shard from live
        replicas instead of replaying the round log into its cache cold.
    """

    system_name = "sharded-engine-flstore"

    def __init__(
        self,
        flstores: Sequence[FLStore],
        router: ShardRouter | None = None,
        loop: EventLoop | None = None,
        shard_factory: Callable[[], FLStore] | None = None,
        warm_rounds: Sequence[object] | None = None,
        replication_factor: int = 1,
        replication_policy: str = "none",
        hot_threshold: int = 8,
    ) -> None:
        flstores = list(flstores)
        if not flstores:
            raise ValueError("a sharded tier needs at least one shard")
        self.loop = loop or EventLoop()
        self.router = router or make_router("consistent-hash", len(flstores))
        if self.router.num_shards != len(flstores):
            raise ValueError(
                f"router covers {self.router.num_shards} shards "
                f"but {len(flstores)} were provided"
            )
        if replication_policy not in REPLICATION_POLICIES:
            raise ConfigurationError(
                f"unknown replication policy {replication_policy!r}; "
                f"expected one of {REPLICATION_POLICIES}"
            )
        if replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be at least 1, got {replication_factor}"
            )
        if hot_threshold < 1:
            raise ConfigurationError(f"hot_threshold must be at least 1, got {hot_threshold}")
        self.replication_factor = int(replication_factor)
        self.replication_policy = replication_policy
        self.hot_threshold = int(hot_threshold)
        self._replication_enabled = replication_policy != "none"
        #: Routing key -> shard indices holding (or warming) its replicas,
        #: primary (ring owner) first.
        self._replica_holders: dict[int, list[int]] = {}
        #: Routing key -> data keys covered by its replicas so far.
        self._replica_keys: dict[int, tuple] = {}
        #: ``(routing key, workload)`` pairs whose data keys were resolved.
        self._warmed_markers: set[tuple[int, str]] = set()
        #: Arrival counts per routing key (``hot-tracked`` policy only).
        self._hot_counts: dict[int, int] = {}
        #: Replica copies that finished warming (per-key placement events).
        self.replica_warm_events = 0
        #: Hot-key arrivals served by a non-primary replica holder.
        self.replica_hits = 0
        #: The shedding policy every shard applies (``config.serverless``
        #: until :meth:`set_shed_policy` switches it online).
        self.shed_policy = flstores[0].config.serverless.shed_policy
        #: Requests waiting for a slot tier-wide — the running sum of the
        #: shards' queue reports — and the current run's profile of it.
        self._queue_depth = 0
        self._note_depth: Callable[[float, int], None] = DepthAccumulator().observe
        self._shard_factory = shard_factory
        #: All shards ever created, in creation order; retired shards stay
        #: (their completed work and counters remain part of the tier).
        self.shards = [EngineFLStore(flstore, self) for flstore in flstores]
        #: Indices into ``shards`` currently receiving traffic; resized
        #: last-in-first-out so router slot ``i`` is always ``_active[i]``.
        self._active: list[int] = list(range(len(self.shards)))
        self._bind_router()
        self.routed_counts = [0] * len(self.shards)
        #: Requests submitted to the front door but not yet resolved.
        self._inflight = 0
        #: Requests whose arrival (routing) event has fired — the
        #: autoscaler's arrival-rate control signal.
        self.arrived_requests = 0
        #: Per-function slots currently provisioned across the tier (the
        #: within-shard warm-capacity lever; see ``set_function_concurrency``).
        self.slots_per_function = self.config.serverless.function_concurrency
        #: Rounds ingested through the front door (or passed as
        #: ``warm_rounds``); replayed into shards added later.
        self._round_log: list = list(warm_rounds) if warm_rounds is not None else []
        #: How many entries of ``_round_log`` each shard has ingested, so a
        #: re-activated shard replays only what it missed while retired.
        self._ingested_counts = [len(self._round_log)] * len(self.shards)
        #: Retired shard indices, newest last; :meth:`add_shard` re-activates
        #: from here before building a fresh shard, so diurnal add/remove
        #: cycles reuse one chassis instead of accreting dead stores.
        self._retired: list[int] = []
        self._keepalive_active = False
        self._completed: list[EngineOutcome] = []
        #: Where resolved outcomes go: the retained rows, or a streaming
        #: run's collector.
        self._outcome_sink: Callable[[EngineOutcome], None] = self._completed.append
        #: Tier-lifetime outcome counters: the control loops read per-window
        #: deltas off these (``watch_slo_seconds`` arms the violation
        #: counter) instead of re-scanning ``_completed`` every control tick,
        #: and the streaming metrics mode depends on them because it retains
        #: no rows at all.
        self.finished_total = 0
        self.slo_violations_total = 0
        self.watch_slo_seconds: float | None = None
        #: Tenant policy (:meth:`configure_tenants`), read by every shard's
        #: queue disciplines and push-out admission.
        self.tenant_weights: dict[str, float] = {}
        self.tenant_slo_seconds: dict[str, float] = {}
        self.tenant_finished: dict[str, int] = {}
        self.tenant_slo_violations: dict[str, int] = {}

    @classmethod
    def build(
        cls,
        num_shards: int,
        config=None,
        policy_mode: str = "tailored",
        router: ShardRouter | None = None,
        router_kind: str = "consistent-hash",
        **kwargs,
    ) -> "ShardedEngineFLStore":
        """Build ``num_shards`` fresh analytic shards behind one front door."""
        flstores = [build_default_flstore(config, policy_mode=policy_mode) for _ in range(num_shards)]
        kwargs.setdefault(
            "shard_factory", lambda: build_default_flstore(config, policy_mode=policy_mode)
        )
        return cls(flstores, router=router or make_router(router_kind, num_shards), **kwargs)

    def note_queue_change(self, delta: int) -> None:
        """Fold one shard's ``+1``/``-1`` queue report into the tier-wide depth."""
        self._queue_depth += delta
        self._note_depth(self.loop.now, self._queue_depth)

    def _daemons_alive(self, index: int) -> Callable[[], bool]:
        """Re-arm predicate of shard ``index``'s keep-alive daemon.

        It runs while the *tier* has requests in flight (including
        submitted-but-not-yet-arrived ones) and the shard is active, so a
        retired shard's daemon winds down at its next tick.
        """
        return lambda: self._inflight > 0 and index in self._active

    def _bind_router(self) -> None:
        """Hand load-aware routers a live ``slot -> outstanding`` probe.

        The probe reads the *active* shard behind each router slot, so it is
        rebound after every resize (the slot -> shard mapping changed).  A
        shard's ``outstanding`` counts queued plus executing requests — the
        join-shortest-queue signal — and is already maintained on the serve
        path, so probing costs nothing extra.
        """
        bind = getattr(self.router, "bind_load_probe", None)
        if bind is not None:
            bind(lambda slot: self.shards[self._active[slot]].outstanding)

    # --------------------------------------------------------- passthroughs

    @property
    def num_shards(self) -> int:
        """Number of active shards behind the front door."""
        return len(self._active)

    @property
    def active_shards(self) -> list[EngineFLStore]:
        """The shards currently receiving traffic, in router-slot order."""
        return [self.shards[index] for index in self._active]

    @property
    def catalog(self):
        """The round catalog (identical across shards; shard 0's instance)."""
        return self.shards[0].catalog

    @property
    def config(self):
        """The simulation configuration (identical across shards)."""
        return self.shards[0].config

    def ingest_round(self, record) -> list:
        """Broadcast a training round into every active shard (full replication)."""
        self._round_log.append(record)
        reports = []
        for index in self._active:
            reports.append(self.shards[index].ingest_round(record))
            self._ingested_counts[index] = len(self._round_log)
        return reports

    # ---------------------------------------------------------------- tenancy

    def configure_tenants(
        self,
        weights,
        slo_seconds=None,
    ) -> None:
        """Arm the tier's tenant policy.

        ``weights`` drive the ``wfq``/``drr`` queue disciplines and the
        push-out victim ranking; ``slo_seconds`` gives each tenant its own
        sojourn SLO (``None`` entries disable violation accounting for that
        tenant).  Every shard reads both from the tier, so shards re-activated
        or added later apply them too.  An empty ``weights`` mapping disarms
        tenancy.
        """
        self.tenant_weights = dict(weights)
        self.tenant_slo_seconds = {
            tenant: slo
            for tenant, slo in (slo_seconds or {}).items()
            if slo is not None
        }

    # ------------------------------------------------------------ submission

    def submit(self, request: WorkloadRequest, at: float, priority: float = 0.0) -> SimTask:
        """Schedule ``request`` to arrive at ``at``; it is routed and admitted on arrival.

        Routing at arrival time (not submission time) is what makes online
        resize meaningful: an arrival always lands on the shard set that is
        active at its arrival instant, so requests submitted before a scale
        event still benefit from (or are shielded from) the resize.  The
        arrival is one event: it routes the request and admits it to its
        shard (:meth:`EngineFLStore.admit`), so nothing can run between the
        two.  The returned task resolves with the request's
        :class:`~repro.engine.flstore.EngineOutcome`.
        """
        task = SimTask(self.loop, name=request.request_id)
        task.add_done_callback(self._collect)
        self.loop.schedule_at(at, lambda: self._arrive(request, task, priority))
        self._inflight += 1
        return task

    def _arrive(self, request: WorkloadRequest, task: SimTask, priority: float) -> None:
        """The arrival event: route the request and admit it to its shard on ``task``."""
        self.arrived_requests += 1
        shard_index = self._route(request)
        self.routed_counts[shard_index] += 1
        self.shards[shard_index].admit(request, task, priority)

    def _collect(self, outcome: EngineOutcome) -> None:
        """Aggregate one resolved outcome (fires in global completion order)."""
        if outcome.disposition != "shed":
            self.finished_total += 1
            watch = self.watch_slo_seconds
            tenant = outcome.request.tenant_id
            if tenant is None:
                if watch is not None and outcome.sojourn_seconds > watch:
                    self.slo_violations_total += 1
            else:
                self.tenant_finished[tenant] = self.tenant_finished.get(tenant, 0) + 1
                slo = self.tenant_slo_seconds.get(tenant, watch)
                if slo is not None and outcome.sojourn_seconds > slo:
                    self.slo_violations_total += 1
                    self.tenant_slo_violations[tenant] = (
                        self.tenant_slo_violations.get(tenant, 0) + 1
                    )
        self._outcome_sink(outcome)
        self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Requests submitted to the front door but not yet resolved."""
        return self._inflight

    # -------------------------------------------------- hot-key replication

    def _route(self, request: WorkloadRequest) -> int:
        """The shard index an arrival lands on (replication-aware).

        With replication off this is exactly the router's verdict over the
        active set — byte-identical to the pre-replication front door.
        """
        if not self._replication_enabled:
            return self._active[self.router.route_request(request)]
        key = request_routing_key(request)
        if not self._is_hot(request, key):
            return self._active[self.router.route(key)]
        holders = self._replica_holders.get(key)
        if holders is None:
            wanted = min(self.replication_factor, len(self._active))
            holders = [self._active[slot] for slot in self.router.replica_slots(key, wanted)]
            self._replica_holders[key] = holders
            self._replica_keys[key] = ()
        marker = (key, request.workload)
        if marker not in self._warmed_markers:
            self._warmed_markers.add(marker)
            workload = get_workload(request.workload)
            data_keys = tuple(workload.required_keys(request, self.catalog))
            known = self._replica_keys[key]
            fresh = tuple(data_key for data_key in data_keys if data_key not in known)
            self._replica_keys[key] = known + fresh
            for shard_index in holders[1:]:
                self._warm_shard(shard_index, fresh)
        return self._pick_holder(key, request, holders)

    def _is_hot(self, request: WorkloadRequest, key: int) -> bool:
        """Whether ``key`` is (or just became) a replicated hot key."""
        if key in self._replica_holders:
            return True
        if self.replication_policy == "hot-static":
            # The canonical P1 pattern: every client asks for the latest
            # round's aggregate — one routing key carries the whole wave.
            return request.client_id is None and request.round_id == self.catalog.latest_round
        count = self._hot_counts.get(key, 0) + 1
        self._hot_counts[key] = count
        return count >= self.hot_threshold

    def _warm_shard(self, shard_index: int, data_keys: Sequence) -> None:
        """Schedule replica warm events for ``data_keys`` onto one shard.

        Each key fetches its value from the shard's persistent store and
        arrives in cache after a cold start plus the fetch latency — its own
        scheduled event, so a warmup burst is a set of *overlapping* spawn
        processes on the virtual timeline, not one analytic latency.  The
        fetch cost is charged to the shard's background (ingest) accounting,
        matching how round replays are billed.
        """
        shard = self.shards[shard_index]
        flstore = shard.flstore
        cluster = flstore.cluster
        cold_start = self.config.serverless.cold_start_seconds
        for data_key in data_keys:
            if cluster.is_live(data_key):
                continue
            fetch_latency, fetch_cost, value = flstore._fetch_from_persistent(data_key)
            if value is None:
                continue
            flstore.ingest_cost = flstore.ingest_cost + fetch_cost
            size = payload_size_bytes(value)
            delay = cold_start + fetch_latency.total_seconds

            def _arrive(key=data_key, value=value, size=size, cluster=cluster) -> None:
                if cluster.is_live(key):
                    return
                try:
                    cluster.place(key, value, size, now=self.loop.now, tier_replica=True)
                except PLACEMENT_ERRORS:
                    return  # no capacity: the copy stays cold, routing skips it
                self.replica_warm_events += 1

            self.loop.schedule(delay, _arrive)

    def _replica_live(self, shard_index: int, key: int) -> bool:
        """Whether every data key replicated for ``key`` is live on the shard."""
        data_keys = self._replica_keys.get(key, ())
        if not data_keys:
            return False
        return self.shards[shard_index].flstore.cluster.all_live(data_keys)

    def _pick_holder(self, key: int, request: WorkloadRequest, holders: list[int]) -> int:
        """Pick the serving shard for a replicated hot key.

        Only *live* holders are candidates: the primary (ring owner) always
        is — it pays its own misses like any routed arrival — while a
        replica holder qualifies once every replicated data key is live on
        it.  Load-aware routers pick the least-loaded live holder (ties
        prefer placement order); plain hash routers spread deterministically
        by request id, so fixed seeds stay stable.
        """
        primary = holders[0]
        live = [
            index
            for index in holders
            if index in self._active and (index == primary or self._replica_live(index, key))
        ]
        if not live:
            # The primary itself was retired and nothing is warm yet: fall
            # back to plain ring routing over the active set.
            return self._active[self.router.route(key)]
        if len(live) == 1:
            chosen = live[0]
        elif hasattr(self.router, "bind_load_probe"):
            chosen = live[0]
            best_load = self.shards[chosen].outstanding
            for index in live[1:]:
                load = self.shards[index].outstanding
                if load < best_load:
                    chosen, best_load = index, load
        else:
            chosen = live[stable_hash_u64(request.request_id) % len(live)]
        if chosen != primary:
            self.replica_hits += 1
        return chosen

    def _refresh_replicas(self) -> None:
        """Recompute hot-key holder sets after a resize; warm new holders.

        The replica set follows the ring: after a resize each hot key's
        holders are its successor shards on the *new* ring, so a joining
        shard that now owns (or backs up) a hot key is seeded from the
        persistent store via warm events — the replica-warmed join.  Shards
        that dropped out of a holder set keep their copies until reclamation
        collects them; routing simply stops considering them.
        """
        if not self._replication_enabled:
            return
        for key, data_keys in self._replica_keys.items():
            wanted = min(self.replication_factor, len(self._active))
            holders = [self._active[slot] for slot in self.router.replica_slots(key, wanted)]
            previous = self._replica_holders.get(key, [])
            for shard_index in holders:
                if shard_index not in previous:
                    self._warm_shard(shard_index, data_keys)
            self._replica_holders[key] = holders

    @property
    def replicated_keys(self) -> int:
        """Routing keys currently tracked as replicated hot keys."""
        return len(self._replica_holders)

    @property
    def replica_cached_bytes(self) -> int:
        """Bytes held as tier replicas across every shard."""
        return sum(shard.flstore.cluster.replica_cached_bytes for shard in self.shards)

    # --------------------------------------------------------- online resize

    @staticmethod
    def _cold_join(flstore: FLStore) -> None:
        """Model a shard joining with a cold cache.

        Round ingestion (initial build or catch-up replay) warms the shard's
        functions as if it had been serving all along; reclaiming them means
        the warmup transient — misses, persistent-store fetches, cold
        starts — is paid by the requests the rebuilt ring routes to it.
        """
        for function_id in list(flstore.cluster.function_ids()):
            flstore.platform.reclaim_function(function_id)
        flstore.engine.drop_lost_keys()

    def add_shard(self) -> int:
        """Grow the tier by one shard; returns the shard's index.

        The most recently retired shard (if any) is re-activated: it catches
        up the rounds it missed while retired and rejoins — still with a
        cold cache, since retirement reclaimed its warm functions — so a
        diurnal add/remove cycle reuses one chassis instead of rebuilding a
        store per peak.  Otherwise a fresh shard is built via the
        ``shard_factory`` and replays the full round log.  Either way the
        joining shard's persistent store and catalog match its peers, and
        the cold-cache warmup transient — misses, persistent fetches, cold
        starts — is paid by the requests the rebuilt consistent-hash ring
        now routes to it (~1/(K+1) of the key space).
        """
        # With replication on, the catch-up replay skips the cache plane
        # entirely (cold ingest): every hot key the join should serve warm is
        # covered by the replica warm events `_refresh_replicas` schedules
        # below, and running the ingest policy as well would place the same
        # bytes twice.  `_cold_join` is skipped for the same reason — a cold
        # ingest warms no functions, so there is nothing to reclaim.
        warm_join = self._replication_enabled
        if self._retired:
            index = self._retired.pop()
            shard = self.shards[index]
            missed = self._round_log[self._ingested_counts[index]:]
            for record in missed:
                if warm_join:
                    shard.flstore.ingest_round_cold(record)
                else:
                    shard.ingest_round(record)
            self._ingested_counts[index] = len(self._round_log)
            if missed and not warm_join:
                self._cold_join(shard.flstore)
        else:
            if self._shard_factory is None:
                raise RuntimeError(
                    "this tier was built without a shard_factory; it cannot scale out"
                )
            flstore = self._shard_factory()
            for record in self._round_log:
                if warm_join:
                    flstore.ingest_round_cold(record)
                else:
                    flstore.ingest_round(record)
            if not warm_join:
                self._cold_join(flstore)
            shard = EngineFLStore(flstore, self)
            index = len(self.shards)
            self.shards.append(shard)
            self.routed_counts.append(0)
            self._ingested_counts.append(len(self._round_log))
        # Keep the provisioned per-function slots in lockstep with the tier:
        # they may have been re-scaled while this shard was retired.
        shard.set_function_concurrency(self.slots_per_function)
        self._active.append(index)
        self.router = self.router.resized(len(self._active))
        self._bind_router()
        self._refresh_replicas()
        if self._keepalive_active:
            shard.schedule_keepalive(self._daemons_alive(index))
        return index

    def remove_shard(self) -> int:
        """Retire the most recently added active shard; returns its index.

        Last-in-first-out retirement keeps the active set in creation order,
        so the rebuilt ring is exactly the one the tier used before the
        matching :meth:`add_shard` — remapping stays bounded.  The retired
        shard's waiters drain as ``requeued`` and its warm capacity is
        released; in-flight executions finish on the shared loop.  The
        shard itself is kept on the retired stack for re-activation by a
        later :meth:`add_shard`.
        """
        if len(self._active) <= 1:
            # ConfigurationError, not ValueError: retiring (or crashing) the
            # last shard would leave the hash ring empty — a structurally
            # unservable tier, the same class of error as building one.
            raise ConfigurationError(
                "cannot retire the last active shard: the tier would have an "
                "empty routing ring and every subsequent arrival would be lost"
            )
        index = self._active.pop()
        self.router = self.router.resized(len(self._active))
        self._bind_router()
        self.shards[index].retire()
        self._retired.append(index)
        self._refresh_replicas()
        return index

    def crash_shard(self) -> int:
        """A whole-shard failure: the front door loses a shard mid-run.

        Fault-injection entry point (:mod:`repro.engine.faults`).  The
        failure semantics are those of :meth:`remove_shard` — the ring
        rebuilds without the shard, its waiters drain as ``requeued`` (so
        conservation holds through the crash), its warm capacity is gone —
        but the *intent* differs: nothing scheduled this capacity away, so a
        remediation controller may legitimately re-add it.  Crashing the
        last active shard raises :class:`ConfigurationError`.
        """
        return self.remove_shard()

    def set_shed_policy(self, policy: str) -> None:
        """Switch the admission-control shedding policy tier-wide, online.

        A remediation actuator: flipping ``drop`` to ``degrade-to-objstore``
        trades rejections for slow degraded serves while the tier recovers.
        Every shard reads the policy from the tier, so it applies to shards
        re-activated or added later too.
        """
        if policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"unknown shed policy {policy!r}; expected one of {SHED_POLICIES}"
            )
        self.shed_policy = policy

    def set_router_kind(self, kind: str) -> None:
        """Rebuild the front door's router as ``kind`` over the active shards.

        A remediation actuator: rerouting via ``jsq`` spreads arrivals away
        from backed-up shards by live queue depth.  The new router covers
        the current active set and is immediately (re)bound to the tier's
        load probe; routing changes only affect arrivals from now on
        (route-at-arrival).
        """
        self.router = make_router(kind, len(self._active))
        self._bind_router()

    def set_function_concurrency(self, limit: int) -> int:
        """Scale per-function slots on every active shard (and future shards).

        Returns the number of queued waiters granted a slot by the change.
        """
        self.slots_per_function = int(limit)
        return sum(
            self.shards[index].set_function_concurrency(limit) for index in self._active
        )

    # ------------------------------------------------------------ run modes

    def run_closed_loop(self, requests: Iterable[WorkloadRequest]) -> list[ServeResult]:
        """Serve ``requests`` sequentially through the routed tier."""
        results: list[ServeResult] = []
        for request in requests:
            task = self.submit(request, at=self.loop.now)
            self.loop.run()
            results.append(task.result.result)
        return results

    def run_open_loop(
        self,
        requests: Sequence[WorkloadRequest],
        arrival_times: Sequence[float],
        priorities: Sequence[float] | None = None,
        label: str = "open-loop",
        keepalive: bool = False,
        slo_seconds: float | None = None,
        autoscaler=None,
        fault_plan=None,
        remediation=None,
        metrics: str = "full",
    ) -> LoadReport:
        """Serve ``requests`` open-loop across the tier; report fleet metrics.

        ``arrival_times`` come from an arrival process
        (:mod:`repro.traces.arrivals`) and are relative to the start of this
        run (the loop's current virtual time), so repeated runs on one tier
        compose; overlapping requests contend for execution slots and queue
        per function.  With ``keepalive`` the keep-alive daemons run as
        recurring events.  ``slo_seconds`` (optional) sets the sojourn-time
        SLO the report's ``violation_rate`` is measured against.  Per-run
        counters (keep-alive pings, reclamations, shed accounting) are
        reported per run, not tier-lifetime, and the report aggregates
        outcomes in global completion order with one tier-wide queue-depth
        profile: every shard (including shards added or retired mid-run)
        reports its queue changes to the front door, which folds their
        running sum into one :class:`~repro.engine.streaming.DepthAccumulator`
        per run in either metrics mode.  An ``autoscaler``
        (:class:`repro.engine.autoscale.Autoscaler`) runs its control loop
        as scheduled events on the same virtual timeline; a ``fault_plan``
        (:class:`repro.engine.faults.FaultPlan`) schedules its fault clauses
        the same way, and a ``remediation`` controller
        (:class:`repro.engine.remediate.RemediationController`) ticks
        alongside, detecting and repairing what the faults break.

        ``metrics`` selects the report pipeline: ``"full"`` (default)
        retains every outcome and reports exact percentiles; ``"streaming"``
        folds outcomes into accumulators of fixed size
        (:mod:`repro.engine.streaming`) — every scalar column except the
        percentile sketches stays exact, and ``report.outcomes`` is empty.
        The shards still keep each served request's persisted result and
        tracker entry in either mode: about 584 B per request on
        ``sharded-burst``.
        """
        if len(requests) != len(arrival_times):
            raise ValueError("requests and arrival_times must have the same length")
        if priorities is not None and len(priorities) != len(requests):
            raise ValueError("requests and priorities must have the same length")
        check_metrics_mode(metrics)
        base = self.loop.now
        absolute_times = [base + float(at) for at in arrival_times]
        start_count = len(self._completed)
        pings_before = self.keepalive_pings
        reclamations_before = self.reclamations
        self._keepalive_active = keepalive
        collector: StreamingLoadCollector | None = None
        if metrics == "streaming":
            collector = StreamingLoadCollector(
                slo_seconds, tenant_slos=self.tenant_slo_seconds or None
            )
            self._outcome_sink = collector.fold
            self._note_depth = collector.note_depth
        else:
            depth = DepthAccumulator()
            self._outcome_sink = self._completed.append
            self._note_depth = depth.observe
        if priorities is None:
            priorities = [0.0] * len(requests)
        for request, at, priority in zip(requests, absolute_times, priorities):
            self.submit(request, at, priority)
        if keepalive:
            for index in self._active:
                self.shards[index].schedule_keepalive(self._daemons_alive(index))
        if autoscaler is not None:
            autoscaler.start()
        if fault_plan is not None:
            fault_plan.start()
        if remediation is not None:
            remediation.start()
        self.loop.run()
        if autoscaler is not None:
            autoscaler.finalize()
        if remediation is not None:
            remediation.finalize()
        self._keepalive_active = False
        if collector is not None:
            return collector.build_report(
                label,
                submitted=len(absolute_times),
                first_arrival=min(absolute_times) if absolute_times else 0.0,
                last_arrival=max(absolute_times) if absolute_times else 0.0,
                keepalive_pings=self.keepalive_pings - pings_before,
                reclamations=self.reclamations - reclamations_before,
            )
        return build_load_report(
            self._completed[start_count:],
            absolute_times,
            label,
            depth,
            keepalive_pings=self.keepalive_pings - pings_before,
            reclamations=self.reclamations - reclamations_before,
            slo_seconds=slo_seconds,
            tenant_slos=self.tenant_slo_seconds or None,
        )

    # ------------------------------------------------- aggregate accounting

    @property
    def keepalive_pings(self) -> int:
        """Keep-alive pings fired across every shard."""
        return sum(shard.keepalive_pings for shard in self.shards)

    @property
    def reclamations(self) -> int:
        """Functions force-reclaimed by storm faults across every shard."""
        return sum(shard.reclamations for shard in self.shards)

    @property
    def shed_requests(self) -> int:
        """Requests dropped by admission control across every shard."""
        return sum(shard.shed_requests for shard in self.shards)

    @property
    def degraded_requests(self) -> int:
        """Requests degraded to the object-store path across every shard."""
        return sum(shard.degraded_requests for shard in self.shards)

    @property
    def requeued_requests(self) -> int:
        """Waiters drained by reclamations or retirements across every shard."""
        return sum(shard.requeued_requests for shard in self.shards)

    @property
    def waiting_requests(self) -> int:
        """Requests queued for an execution slot across the active shards."""
        return sum(self.shards[index].waiting for index in self._active)

    @property
    def cached_bytes(self) -> int:
        """Bytes of FL metadata resident across every shard's cache.

        Tier replicas are excluded: a hot key replicated onto R shards
        counts its bytes once, on the owning shard (see
        :attr:`replica_cached_bytes` for the replicated copies).  Identical
        to the plain per-shard sum when replication is off.
        """
        return sum(shard.flstore.cluster.owned_cached_bytes for shard in self.shards)

    @property
    def live_key_count(self) -> int:
        """Keys with a live cached copy, summed over the tier.

        Counts owned copies only, so a key live on its owner and on two
        replica holders is one live key fleet-wide.
        """
        return sum(shard.flstore.cluster.owned_live_key_count for shard in self.shards)

    @property
    def warm_function_count(self) -> int:
        """Warm serverless functions backing the tier."""
        return sum(shard.flstore.warm_function_count for shard in self.shards)

    @property
    def capacity_units(self) -> int:
        """Nominal capacity: per-function slots x active shards.

        The coarse-grained quantity the autoscaler's policies target — each
        unit is one execution slot on a shard's (hot) execution function.
        """
        return self.slots_per_function * len(self._active)

    @property
    def provisioned_slots(self) -> int:
        """Execution slots provisioned across the active shards' warm fleets."""
        return sum(self.shards[index].platform.provisioned_slots for index in self._active)

    @property
    def provisioned_gb(self) -> float:
        """Warm provisioned capacity in GB across the active shards."""
        return sum(self.shards[index].platform.provisioned_gb for index in self._active)

    def shard_stats(self) -> list[dict]:
        """Per-shard accounting rows (routing, shedding, cache liveness)."""
        return [
            {
                "shard": index,
                "active": index in self._active,
                "routed": self.routed_counts[index],
                "shed": shard.shed_requests,
                "degraded": shard.degraded_requests,
                "requeued": shard.requeued_requests,
                "cached_bytes": shard.flstore.cluster.owned_cached_bytes,
                "live_keys": shard.flstore.cluster.owned_live_key_count,
                "replica_bytes": shard.flstore.cluster.replica_cached_bytes,
                "replica_keys": shard.flstore.cluster.replica_live_key_count,
                "warm_functions": shard.flstore.warm_function_count,
            }
            for index, shard in enumerate(self.shards)
        ]
