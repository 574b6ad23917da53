"""The Cache Engine (Section 4.2).

The Cache Engine receives incoming FL metadata from training, consults the
caching policy to separate hot from cold data, tracks where every cached
object lives (the ``(client, round) -> function_id`` dictionary of the
paper), places hot objects into the serverless cache, and asynchronously
backs everything up to the persistent store.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence

from repro.cloud.object_store import ObjectStore
from repro.cloud.payload import payload_size_bytes
from repro.core.policies.base import CachingPolicy, PolicyPlan
from repro.core.serverless_cache import PLACEMENT_ERRORS, ServerlessCacheCluster
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.rounds import RoundRecord
from repro.simulation.records import (
    CostAccumulator,
    CostBreakdown,
    LatencyAccumulator,
    LatencyBreakdown,
)
from repro.workloads.base import WorkloadRequest


@dataclass
class IngestReport:
    """Accounting of one round ingestion."""

    round_id: int
    admitted_keys: int = 0
    evicted_keys: int = 0
    backup_cost: CostBreakdown = field(default_factory=CostBreakdown)
    placement_latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)


class CacheEngine:
    """Separates hot from cold FL metadata and tracks cached object locations."""

    def __init__(
        self,
        policy: CachingPolicy,
        cluster: ServerlessCacheCluster,
        persistent_store: ObjectStore,
        catalog: RoundCatalog | None = None,
    ) -> None:
        self.policy = policy
        self.cluster = cluster
        self.persistent_store = persistent_store
        self.catalog = catalog if catalog is not None else RoundCatalog()
        #: The paper's CacheEngine dictionary: cached key -> function id.
        self._locations: dict[DataKey, str] = {}
        #: Objects we failed to place (capacity); they stay cold in the store.
        self.placement_failures: int = 0

    # ------------------------------------------------------------- ingestion

    def ingest_round(self, record: RoundRecord, now: float = 0.0) -> IngestReport:
        """Ingest a completed training round (Step 1 and Steps 4-5 of Figure 6).

        Every object is asynchronously backed up to the persistent store
        (cold path); the policy decides which objects are hot and go into the
        serverless cache.  Backup cost is accounted for but backup latency is
        off the request path.
        """
        self.catalog.register_round(record)
        report = IngestReport(round_id=record.round_id)

        backup_cost = CostAccumulator()
        for key, value in record.objects():
            result = self.persistent_store.put(key, value, size_bytes=payload_size_bytes(value))
            backup_cost.add(result.cost)
        report.backup_cost = backup_cost.finalize()

        plan = self.policy.plan_ingest(record, self.catalog)
        report.placement_latency, admitted = self._apply_admissions(plan.admit_keys, record, now)
        report.admitted_keys = admitted
        report.evicted_keys = self._apply_evictions(plan.evict_keys)
        self._enforce_capacity()
        return report

    def ingest_round_cold(self, record: RoundRecord, now: float = 0.0) -> IngestReport:
        """Register and back up a round without touching the cache plane.

        The catch-up path of a replica-warmed shard join uses this: the
        joining shard must know every round (catalog) and every object must
        be durable (persistent store), but cache placement is covered by the
        scheduled replica warm events — running the policy here would ingest
        the same bytes twice.
        """
        self.catalog.register_round(record)
        report = IngestReport(round_id=record.round_id)
        backup_cost = CostAccumulator()
        for key, value in record.objects():
            result = self.persistent_store.put(key, value, size_bytes=payload_size_bytes(value))
            backup_cost.add(result.cost)
        report.backup_cost = backup_cost.finalize()
        return report

    def _apply_admissions(
        self, keys: list[DataKey], record: RoundRecord, now: float
    ) -> tuple[LatencyBreakdown, int]:
        latency = LatencyAccumulator()
        admitted = 0
        for key in keys:
            if self.is_cached(key):
                continue
            try:
                value = record.get(key)
            except KeyError:
                continue
            size = payload_size_bytes(value)
            try:
                placement = self.cluster.place(key, value, size, now=now)
            except PLACEMENT_ERRORS:  # no capacity: keep the object cold
                self.placement_failures += 1
                continue
            latency.add(placement.latency)
            self._locations[key] = placement.primary_function_id
            self.policy.record_admission(key, size, now)
            admitted += 1
        return latency.finalize(), admitted

    def _apply_evictions(self, keys: list[DataKey]) -> int:
        evicted = 0
        for key in keys:
            if self.cluster.evict(key):
                evicted += 1
            self._locations.pop(key, None)
            self.policy.record_eviction(key)
        return evicted

    def _enforce_capacity(self) -> int:
        """Evict policy-selected victims when a capacity-bounded policy overflows."""
        capacity = self.policy.capacity_bytes
        if capacity is None:
            return 0
        excess = self.cluster.total_cached_bytes - capacity
        if excess <= 0:
            return 0
        # select_evictions only reads the mapping, so the live view avoids
        # copying every (key, size) pair on each capacity check.
        victims = self.policy.select_evictions(excess, self.cluster.sizes_view())
        return self._apply_evictions(victims)

    # ------------------------------------------------------- request support

    def lookup(self, keys: list[DataKey]) -> dict[DataKey, str | None]:
        """Resolve ``keys`` to the functions caching them (``None`` on miss)."""
        resolved_map = self.cluster.resolve_many(keys)
        result: dict[DataKey, str | None] = {}
        for key in keys:
            function_id = resolved_map[key].function_id
            result[key] = function_id
            if function_id is not None:
                self._locations[key] = function_id
            else:
                self._locations.pop(key, None)
        return result

    def is_cached(self, key: DataKey) -> bool:
        """Whether a live copy of ``key`` exists in the serverless cache."""
        return self.cluster.is_live(key)

    def admit(self, key: DataKey, value: object, now: float = 0.0) -> LatencyBreakdown:
        """Place a single object (fetched on demand or prefetched) into the cache."""
        size = payload_size_bytes(value)
        try:
            placement = self.cluster.place(key, value, size, now=now)
        except PLACEMENT_ERRORS:
            self.placement_failures += 1
            return LatencyBreakdown.zero()
        self._locations[key] = placement.primary_function_id
        self.policy.record_admission(key, size, now)
        self._enforce_capacity()
        return placement.latency

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey]
    ) -> PolicyPlan:
        """Ask the policy for prefetch/evict advice around ``request``."""
        return self.policy.plan_request(request, required_keys, self.catalog)

    def apply_evictions(self, keys: list[DataKey]) -> int:
        """Evict ``keys`` from the serverless cache (public request-path hook)."""
        return self._apply_evictions(keys)

    def drop_lost_keys(self) -> list[DataKey]:
        """Forget mappings whose cached copies were all reclaimed."""
        lost = self.cluster.drop_lost_keys()
        for key in lost:
            self._locations.pop(key, None)
        return lost

    # ------------------------------------------------------------ inspection

    def register_location(self, key: DataKey, function_id: str) -> None:
        """Record that ``key`` is cached on ``function_id`` without moving data.

        Used when reconstructing the location table (e.g. after a Cache Engine
        restart) and by the component-overhead experiment of Section 5.5.
        """
        self._locations[key] = function_id

    def location_of(self, key: DataKey) -> str | None:
        """The function currently recorded as caching ``key`` (``None`` if unknown)."""
        return self._locations.get(key)

    @property
    def cached_key_count(self) -> int:
        """Number of keys currently tracked as cached."""
        return len(self._locations)

    def memory_overhead_bytes(self) -> int:
        """Approximate footprint of the location dictionary (Section 5.5)."""
        getsizeof = sys.getsizeof
        total = getsizeof(self._locations)
        # Keys are uniformly sized dataclass instances and function ids
        # repeat heavily; memoizing their sizes keeps this walk cheap at the
        # 100k-entry scale of the Section 5.5 experiment (totals unchanged).
        data_key_size: int | None = None
        id_sizes: dict[str, int] = {}
        for key, function_id in self._locations.items():
            if type(key) is DataKey:
                if data_key_size is None:
                    data_key_size = getsizeof(key)
                total += data_key_size
            else:
                total += getsizeof(key)
            size = id_sizes.get(function_id)
            if size is None:
                size = getsizeof(function_id)
                id_sizes[function_id] = size
            total += size
        return total
