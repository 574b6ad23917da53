"""The serverless cache: disaggregated function memories holding FL metadata.

This is the co-located compute & data plane of Figure 5.  Objects are placed
into warm serverless functions at client-model granularity (each function
holds at least one client model, Section 4.2), optionally replicated onto
``k`` secondary functions for fault tolerance (Section 4.5), and non-training
computations execute directly on the functions that hold the data.

Resolution is served from an incrementally maintained *liveness index*:
placement and eviction update the index directly, and the platform notifies
the cluster when a function is reclaimed (see
:meth:`repro.serverless.platform.ServerlessPlatform.add_reclamation_listener`),
so :meth:`ServerlessCacheCluster.resolve`, :meth:`is_live`, and
:attr:`total_cached_bytes` are O(1) and reclamation/failover work is
O(affected keys) instead of O(tracked keys).

A request reads its keys through two batch methods that read the index once
per key.  :meth:`ServerlessCacheCluster.gather` is the request path's read:
per key it reads the primary and the holder — exactly what :meth:`resolve`
reads — then loads hits through one bound loader per holder function
(calling the caller's per-hit callback only if it passed one), counts
failovers, and tallies bytes per holder for the execution pick.  The
pass's only mutation is the caller's ``on_miss`` admitting a fetched
object, so every key is read from the index as it stands when the pass
reaches it (what a fresh :meth:`resolve` would answer), and the execution
pick is re-tallied over the final index only after such an admission.
:meth:`all_live` is :meth:`is_live` (tier replicas included) over a batch:
a key is live exactly when its holder is not ``None``, so the conjunction
is one C-level membership test over the holders.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import CapacityError, DataNotFoundError
from repro.fl.keys import DataKey
from repro.serverless.function import FunctionState, ServerlessFunction
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.records import LatencyBreakdown

#: Module-level alias: avoids an enum descriptor lookup per eviction check.
_FUNCTION_WARM = FunctionState.WARM


@dataclass
class PlacementResult:
    """Outcome of placing one object into the serverless cache."""

    key: DataKey
    primary_function_id: str
    replica_function_ids: list[str] = field(default_factory=list)
    #: Cold-start latency incurred if new functions had to be spawned.
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)


@dataclass(slots=True)
class GatherResult:
    """What one :meth:`ServerlessCacheCluster.gather` pass read for a request."""

    #: ``key -> value`` for every hit and every miss ``on_miss`` found a value for.
    data: dict[DataKey, Any]
    hits: int
    misses: int
    #: Keys whose primary copy was lost (a replica answered, or none did).
    failovers: int
    #: Distinct lost primary functions; a request pays one failover timeout each.
    failed_functions: int
    #: Functions that answered hits, in first-hit order.
    holders: list[str]
    #: The function holding the largest share of the keys' bytes after the
    #: pass (``None`` when none of them is cached).
    execution_function: str | None


@dataclass(slots=True)
class ResolveResult:
    """Outcome of resolving a key to a live function."""

    key: DataKey
    function_id: str | None
    #: Whether the primary copy was lost and a replica answered instead.
    failed_over: bool = False

    @property
    def is_hit(self) -> bool:
        """Whether any live copy of the object exists in the cache."""
        return self.function_id is not None


#: What a placement raises when there is no room: an object larger than any
#: function may be (``CapacityError``) or a full warm-function limit
#: (``RuntimeError`` from the platform).  Callers that keep an object cold on
#: a failed placement catch exactly these, so a bug in placement propagates.
PLACEMENT_ERRORS = (CapacityError, RuntimeError)

#: Shared additive identity: placements that reuse a warm function incur no
#: latency, so the zero breakdown is handed out as a singleton (it is frozen).
_ZERO_LATENCY = LatencyBreakdown()

#: Best-fit sort key.  Best-fit keeps the number of warm functions (and thus
#: keep-alive cost) low, mirroring the paper's "only two Lambda functions"
#: footprint argument in Section 4.4.
_free_bytes_of = operator.attrgetter("free_bytes")


class ServerlessCacheCluster:
    """Places, replicates, resolves, and evicts cached FL metadata objects."""

    def __init__(self, platform: ServerlessPlatform) -> None:
        self.platform = platform
        self.config = platform.config
        self.replication_factor = self.config.replication_factor
        self._primary: dict[DataKey, str] = {}
        self._replicas: dict[DataKey, list[str]] = {}
        self._sizes: dict[DataKey, int] = {}
        # ---- liveness index ------------------------------------------------
        #: Function ids still holding a live copy of each tracked key.
        self._live_copies: dict[DataKey, set[str]] = {}
        #: Currently serving function per tracked key (primary while it lives,
        #: else the first live replica in placement order, else ``None``).
        self._holder: dict[DataKey, str | None] = {}
        #: Reverse map: function id -> keys with a live copy on it, in
        #: placement order (a dict, not a set: reclamation walks it, and key
        #: hashes are address-derived, so a set's order would vary by process).
        self._function_keys: dict[str, dict[DataKey, None]] = {}
        #: Keys whose every copy was lost (in loss order), pending drop.
        self._lost: dict[DataKey, None] = {}
        #: Running sum of ``self._sizes`` values.
        self._tracked_bytes: int = 0
        # ---- tier-replica accounting --------------------------------------
        #: Keys this cluster holds as *tier replicas*: read-only copies of
        #: data owned by another shard (hot-key replication / warm joins).
        #: Distinct from the within-shard function replicas above — a tier
        #: replica is a whole extra cached copy on another shard's cluster,
        #: so fleet-wide byte accounting must not count it as owned data.
        self._tier_replicas: set[DataKey] = set()
        #: Running sum of ``self._sizes`` over ``self._tier_replicas``.
        self._replica_bytes: int = 0
        platform.add_reclamation_listener(self._on_function_reclaimed)

    # ------------------------------------------------------------- placement

    def _spawn(self, size_bytes: int) -> tuple[ServerlessFunction, LatencyBreakdown]:
        memory = self.config.default_function_memory_bytes
        if size_bytes > memory:
            memory = min(self.config.max_function_memory_bytes, size_bytes * 2)
        if size_bytes > memory:
            raise CapacityError(
                f"object of {size_bytes} bytes exceeds the maximum function memory "
                f"of {self.config.max_function_memory_bytes} bytes"
            )
        function, result = self.platform.spawn_function(memory_bytes=memory)
        return function, result.latency

    def _index_placement(self, key: DataKey, primary_id: str, replica_ids: list[str]) -> None:
        copies = {primary_id, *replica_ids} if replica_ids else {primary_id}
        self._live_copies[key] = copies
        self._holder[key] = primary_id
        function_keys = self._function_keys
        for function_id in copies:
            keys = function_keys.get(function_id)
            if keys is None:
                function_keys[function_id] = {key: None}
            else:
                keys[key] = None

    def place(
        self,
        key: DataKey,
        value: Any,
        size_bytes: int,
        now: float = 0.0,
        tier_replica: bool = False,
    ) -> PlacementResult:
        """Cache ``value`` under ``key`` on a primary function plus replicas.

        ``tier_replica`` marks the copy as replicated-in from another shard:
        it is excluded from :attr:`owned_cached_bytes` /
        :attr:`owned_live_key_count` so fleet-wide sums never double-count,
        and :meth:`is_live` can be asked to ignore it.  Re-placing the key
        without the flag promotes it to an owned copy.
        """
        # Spawns (and thus nonzero latencies) are rare; summing only the
        # nonzero breakdowns is exact (adding a zero breakdown is a float
        # no-op) and skips an accumulator allocation per placement.
        latency = _ZERO_LATENCY
        if key in self._primary:
            self.evict(key)

        # One scan selects every host.  Sequential best-fit (scan, pick the
        # fullest fitting function, exclude it, rescan) is equivalent to
        # taking fitting functions in ascending free-space order, because
        # storing on a chosen host never changes the other candidates'
        # occupancy — so the k+1 copies come from a single sorted scan.
        copies_needed = self.replication_factor + 1
        hosts = [f for f in self.platform.warm_functions() if f.free_bytes >= size_bytes]
        if len(hosts) > 1:
            if copies_needed == 1:
                hosts = [min(hosts, key=_free_bytes_of)]
            else:
                # Stable sort: ties keep platform (spawn) order, matching the
                # sequential scan's first-minimal choice.
                hosts.sort(key=_free_bytes_of)
        del hosts[copies_needed:]

        if hosts:
            primary = hosts[0]
            next_host = 1
        else:
            primary, spawn_latency = self._spawn(size_bytes)
            latency = latency + spawn_latency
            next_host = 0
        primary.store(key, value, now=now, size_bytes=size_bytes)

        replicas: list[str] = []
        for _ in range(self.replication_factor):
            if next_host < len(hosts):
                replica = hosts[next_host]
                next_host += 1
            else:
                try:
                    replica, spawn_latency = self._spawn(size_bytes)
                except PLACEMENT_ERRORS:
                    break
                latency = latency + spawn_latency
            replica.store(key, value, now=now, size_bytes=size_bytes)
            replicas.append(replica.function_id)

        self._primary[key] = primary.function_id
        self._replicas[key] = replicas
        self._sizes[key] = size_bytes
        self._tracked_bytes += size_bytes
        if tier_replica:
            self._tier_replicas.add(key)
            self._replica_bytes += size_bytes
        self._index_placement(key, primary.function_id, replicas)
        return PlacementResult(
            key=key,
            primary_function_id=primary.function_id,
            replica_function_ids=replicas,
            latency=latency,
        )

    # --------------------------------------------------- reclamation events

    def _on_function_reclaimed(self, function_id: str) -> None:
        """Invalidate index entries for every key the reclaimed function held."""
        keys = self._function_keys.pop(function_id, None)
        if not keys:
            return
        for key in keys:
            copies = self._live_copies.get(key)
            if copies is None:
                continue
            copies.discard(function_id)
            if self._holder.get(key) != function_id:
                continue
            holder = self._next_holder(key, copies)
            self._holder[key] = holder
            if holder is None:
                self._lost[key] = None

    def _next_holder(self, key: DataKey, copies: set[str]) -> str | None:
        """First live copy in failover order (primary, then replicas in order)."""
        primary_id = self._primary.get(key)
        if primary_id in copies:
            return primary_id
        for replica_id in self._replicas.get(key, []):
            if replica_id in copies:
                return replica_id
        return None

    # ------------------------------------------------------------ resolution

    def resolve(self, key: DataKey) -> ResolveResult:
        """Find a live function holding ``key``, failing over to replicas if needed."""
        primary_id = self._primary.get(key)
        if primary_id is None:
            return ResolveResult(key=key, function_id=None)
        holder = self._holder.get(key)
        if holder is None:
            return ResolveResult(key=key, function_id=None, failed_over=True)
        return ResolveResult(key=key, function_id=holder, failed_over=holder != primary_id)

    def resolve_many(self, keys: Iterable[DataKey]) -> dict[DataKey, ResolveResult]:
        """Resolve a batch of keys in one pass over the liveness index."""
        resolved: dict[DataKey, ResolveResult] = {}
        primary_get = self._primary.get
        holder_get = self._holder.get
        for key in keys:
            # Duplicate keys simply recompute the same entry; state does not
            # change inside the batch, so no dedup check is needed.
            primary_id = primary_get(key)
            if primary_id is None:
                resolved[key] = ResolveResult(key, None)
                continue
            holder = holder_get(key)
            if holder is None:
                resolved[key] = ResolveResult(key, None, True)
            else:
                resolved[key] = ResolveResult(key, holder, holder != primary_id)
        return resolved

    def is_live(self, key: DataKey, include_replicas: bool = True) -> bool:
        """Whether a live copy of ``key`` exists (no result object allocated).

        With ``include_replicas=False``, a key held only as a tier replica
        reports not-live — the shape ownership checks want when deciding
        whether *this* shard owns the data or merely mirrors it.
        """
        if self._holder.get(key) is None:
            return False
        return include_replicas or key not in self._tier_replicas

    def all_live(self, keys: Iterable[DataKey]) -> bool:
        """Whether every key in ``keys`` has a live copy (tier replicas count).

        Equal to ``all(self.is_live(key) for key in keys)``, so an empty batch
        is live.
        """
        return None not in map(self._holder.get, keys)

    def gather(
        self,
        keys: Sequence[DataKey],
        on_hit: Callable[[DataKey], object] | None,
        on_miss: Callable[[DataKey], tuple[Any, bool]],
    ) -> GatherResult:
        """Read a request's ``keys`` in one pass over the liveness index.

        A hit loads the value from its holder and calls ``on_hit(key)``, if
        given (a caller with nothing to record per hit passes ``None``).  A
        miss calls ``on_miss(key)``, which returns the value (``None`` if it
        has none; the key is then left out of ``data``) and whether it tried
        to admit the value into this cache.  An admission may place and
        evict keys, so each key is read as the index stands when the pass
        reaches it, and the execution function is re-tallied over the final
        index (:meth:`pick_execution_function`) after one.
        """
        data: dict[DataKey, Any] = {}
        tally: dict[str, int] = {}
        loaders: dict[str, Callable[[DataKey], Any]] = {}
        failed: set[str] = set()
        failovers = misses = 0
        admitted = False
        primary_get = self._primary.get
        holder_get = self._holder.get
        sizes = self._sizes
        get_function = self.platform.get_function
        for key in keys:
            primary_id = primary_get(key)
            holder = None
            if primary_id is not None:
                holder = holder_get(key)
                if holder != primary_id:
                    failovers += 1
                    failed.add(primary_id)
            if holder is not None:
                load = loaders.get(holder)
                if load is None:
                    load = loaders[holder] = get_function(holder).load
                data[key] = load(key)
                if on_hit is not None:
                    on_hit(key)
                tally[holder] = tally.get(holder, 0) + sizes[key]
            else:
                misses += 1
                value, admitting = on_miss(key)
                if value is not None:
                    data[key] = value
                admitted = admitted or admitting
        if admitted:
            execution_function = self.pick_execution_function(keys)
        else:
            execution_function = max(tally, key=tally.get) if tally else None
        return GatherResult(
            data=data,
            hits=len(keys) - misses,
            misses=misses,
            failovers=failovers,
            failed_functions=len(failed),
            holders=list(tally),
            execution_function=execution_function,
        )

    def is_tier_replica(self, key: DataKey) -> bool:
        """Whether ``key`` is held as a tier replica (replicated-in copy)."""
        return key in self._tier_replicas

    def contains(self, key: DataKey) -> bool:
        """Whether a live copy of ``key`` exists in the cache (alias of :meth:`is_live`)."""
        return self.is_live(key)

    def get_object(self, key: DataKey) -> Any:
        """Return the cached object under ``key`` from any live copy."""
        holder = self._holder.get(key)
        if holder is None:
            raise DataNotFoundError(key, "serverless cache")
        return self.platform.get_function(holder).load(key)

    # --------------------------------------------------------------- eviction

    def evict(self, key: DataKey) -> bool:
        """Remove every copy of ``key``; returns whether anything was removed."""
        primary_id = self._primary.get(key)
        if primary_id is None:
            # Untracked keys have no state anywhere (the maps are updated
            # together), so eviction plans naming them are a cheap no-op.
            return False
        removed = self._evict_copy(key, primary_id)
        for replica_id in self._replicas.get(key, ()):
            removed = self._evict_copy(key, replica_id) or removed
        self._forget(key)
        return removed

    def _evict_copy(self, key: DataKey, function_id: str) -> bool:
        """Drop one copy of ``key`` from ``function_id`` and the reverse map."""
        function = self.platform.get_function(function_id)
        removed = function.state is _FUNCTION_WARM and function.evict(key)
        keys = self._function_keys.get(function_id)
        if keys is not None:
            keys.pop(key, None)
        return removed

    def _forget(self, key: DataKey) -> None:
        """Drop every record of ``key`` from the maps and the liveness index."""
        if self._primary.pop(key, None) is not None:
            self._tracked_bytes -= self._sizes.get(key, 0)
        if key in self._tier_replicas:
            self._tier_replicas.discard(key)
            self._replica_bytes -= self._sizes.get(key, 0)
        self._replicas.pop(key, None)
        self._sizes.pop(key, None)
        self._live_copies.pop(key, None)
        self._holder.pop(key, None)
        self._lost.pop(key, None)

    def drop_lost_keys(self) -> list[DataKey]:
        """Forget keys whose every copy was lost to reclamation; returns them.

        The liveness index records losses as reclamation events arrive, so
        this is O(lost keys) rather than a re-resolve of every tracked key.
        """
        lost = list(self._lost)
        for key in lost:
            self._forget(key)
        return lost

    # ------------------------------------------------------------ inspection

    def cached_keys(self) -> list[DataKey]:
        """Every key with at least one live copy."""
        holders = self._holder
        return [key for key in self._primary if holders.get(key) is not None]

    def cached_sizes(self) -> dict[DataKey, int]:
        """``key -> size`` for every key tracked by the cluster."""
        return dict(self._sizes)

    def sizes_view(self) -> Mapping[DataKey, int]:
        """Read-only live view of the tracked sizes (no copy; do not mutate)."""
        return self._sizes

    @property
    def total_cached_bytes(self) -> int:
        """Logical bytes of primary copies tracked by the cluster."""
        return self._tracked_bytes

    @property
    def replica_cached_bytes(self) -> int:
        """Bytes held as tier replicas (copies of data owned elsewhere)."""
        return self._replica_bytes

    @property
    def owned_cached_bytes(self) -> int:
        """Bytes this cluster owns outright (tier replicas excluded).

        Fleet-wide sums use this so a key replicated onto R shards still
        counts its bytes exactly once — on the owning shard.
        """
        return self._tracked_bytes - self._replica_bytes

    @property
    def live_key_count(self) -> int:
        """Number of keys with at least one live cached copy.

        Lost keys linger in the index (with zero live copies) until
        :meth:`drop_lost_keys` collects them, so this counts non-empty
        entries rather than index size.
        """
        return sum(1 for copies in self._live_copies.values() if copies)

    @property
    def owned_live_key_count(self) -> int:
        """Live keys this cluster owns (tier replicas excluded)."""
        replicas = self._tier_replicas
        return sum(1 for key, copies in self._live_copies.items() if copies and key not in replicas)

    @property
    def replica_live_key_count(self) -> int:
        """Live keys this cluster holds only as tier replicas."""
        replicas = self._tier_replicas
        return sum(1 for key, copies in self._live_copies.items() if copies and key in replicas)

    def primary_function_of(self, key: DataKey) -> str | None:
        """Primary placement of ``key`` (even if currently reclaimed)."""
        return self._primary.get(key)

    def function_ids(self) -> list[str]:
        """Identifiers of every warm function managed by the platform."""
        return [f.function_id for f in self.platform.warm_functions()]

    def pick_execution_function(self, keys: Iterable[DataKey]) -> str | None:
        """The warm function holding the largest share of ``keys``' bytes."""
        tally: dict[str, int] = {}
        sizes = self._sizes
        holders = self._holder
        for key in keys:
            holder = holders.get(key)
            if holder is not None:
                tally[holder] = tally.get(holder, 0) + sizes.get(key, 0)
        if not tally:
            return None
        return max(tally, key=tally.get)
