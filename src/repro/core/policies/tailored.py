"""The tailored FLStore caching policies P1-P4 (Table 1, Section 4.4).

Each policy exploits the iterative access pattern of its workload class:

* :class:`SingleModelPolicy` (**P1**) keeps the latest aggregated model warm
  for serving/inference and evicts superseded aggregates.
* :class:`AllUpdatesInRoundPolicy` (**P2**) keeps the latest round's client
  updates warm, prefetches the next round when a request arrives, and evicts
  already-processed rounds (Example 1 of Figure 6).
* :class:`AcrossRoundsPolicy` (**P3**) follows the clients being tracked
  (debugging/provenance), prefetching the next round's update for the same
  client and evicting earlier rounds (Example 2 of Figure 6).
* :class:`MetadataPolicy` (**P4**) keeps configuration/performance metadata
  for the most recent ``R`` rounds (default 10).

:class:`TailoredPolicyBundle` combines the four, dispatching each request to
the policy selected by the workload taxonomy and resolving eviction ownership
so one class's eviction never removes data another class still needs.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import CachePolicyConfig
from repro.core.policies.base import CachingPolicy, PolicyPlan
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.rounds import RoundRecord
from repro.workloads.base import PolicyClass, WorkloadRequest
from repro.workloads.registry import get_workload


class SingleModelPolicy(CachingPolicy):
    """P1 — cache the (latest) aggregated model for serving and inference."""

    name = "P1"
    admit_on_miss = True

    def __init__(self) -> None:
        self._cached_aggregates: set[int] = set()

    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        del catalog
        admit = [record.aggregate_key()]
        evict = [DataKey.aggregate(r) for r in self._cached_aggregates if r < record.round_id - 1]
        self._cached_aggregates.add(record.round_id)
        self._cached_aggregates -= {k.round_id for k in evict}
        return PolicyPlan(admit_keys=admit, evict_keys=evict)

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey], catalog: RoundCatalog
    ) -> PolicyPlan:
        # Serving workloads repeatedly hit the latest aggregate: prefetch the
        # next round's aggregate if training has already produced it.
        next_round = request.round_id + 1
        prefetch = [DataKey.aggregate(next_round)] if catalog.has_round(next_round) else []
        self._cached_aggregates.update(k.round_id for k in required_keys if k.is_aggregate)
        self._cached_aggregates.update(k.round_id for k in prefetch)
        return PolicyPlan(prefetch_keys=prefetch)


class AllUpdatesInRoundPolicy(CachingPolicy):
    """P2 — cache all client updates of the current round, prefetch the next."""

    name = "P2"
    admit_on_miss = True

    def __init__(self, prefetch_rounds_ahead: int = 1) -> None:
        self.prefetch_rounds_ahead = prefetch_rounds_ahead
        self._cached_rounds: set[int] = set()

    def _round_keys(self, round_id: int, catalog: RoundCatalog, include_aggregate: bool = True) -> list[DataKey]:
        keys = [DataKey.update(cid, round_id) for cid in catalog.participants(round_id)]
        if include_aggregate and catalog.has_round(round_id):
            keys.append(DataKey.aggregate(round_id))
        return keys

    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        # Keep the latest round cached: per-round workloads (scheduling,
        # filtering, contribution) run for every new round.
        admit = record.update_keys()
        evict: list[DataKey] = []
        for old_round in sorted(self._cached_rounds):
            if old_round < record.round_id - 1:
                evict.extend(self._round_keys(old_round, catalog))
                self._cached_rounds.discard(old_round)
        self._cached_rounds.add(record.round_id)
        return PolicyPlan(admit_keys=admit, evict_keys=evict)

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey], catalog: RoundCatalog
    ) -> PolicyPlan:
        prefetch: list[DataKey] = []
        for ahead in range(1, self.prefetch_rounds_ahead + 1):
            next_round = request.round_id + ahead
            if catalog.has_round(next_round):
                prefetch.extend(self._round_keys(next_round, catalog))
                self._cached_rounds.add(next_round)
        evict: list[DataKey] = []
        for old_round in sorted(self._cached_rounds):
            if old_round < request.round_id:
                evict.extend(self._round_keys(old_round, catalog))
                self._cached_rounds.discard(old_round)
        self._cached_rounds.add(request.round_id)
        return PolicyPlan(prefetch_keys=prefetch, evict_keys=evict)


class AcrossRoundsPolicy(CachingPolicy):
    """P3 — follow individual clients across rounds (debugging, provenance)."""

    name = "P3"
    admit_on_miss = True

    def __init__(self, prefetch_rounds_ahead: int = 1) -> None:
        self.prefetch_rounds_ahead = prefetch_rounds_ahead
        #: ``client_id -> last requested round`` for the clients being traced.
        self._tracked: dict[int, int] = {}

    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        del catalog
        # Tracked clients keep being traced as training progresses, so admit
        # their new updates as soon as they arrive.
        admit = [
            DataKey.update(cid, record.round_id)
            for cid in self._tracked
            if cid in record.updates
        ]
        return PolicyPlan(admit_keys=admit)

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey], catalog: RoundCatalog
    ) -> PolicyPlan:
        client_ids = sorted({k.client_id for k in required_keys if k.is_update and k.client_id >= 0})
        prefetch: list[DataKey] = []
        evict: list[DataKey] = []
        for client_id in client_ids:
            future_rounds = [
                r for r in catalog.rounds_for_client(client_id) if r > request.round_id
            ][: self.prefetch_rounds_ahead]
            for next_round in future_rounds:
                prefetch.append(DataKey.update(client_id, next_round))
                if catalog.has_round(next_round):
                    prefetch.append(DataKey.aggregate(next_round))
            last = self._tracked.get(client_id)
            if last is not None:
                history_floor = request.round_id - (request.history_rounds - 1)
                for old_round in catalog.rounds_for_client(client_id, up_to=request.round_id):
                    if old_round < history_floor:
                        evict.append(DataKey.update(client_id, old_round))
                        evict.append(DataKey.aggregate(old_round))
            self._tracked[client_id] = request.round_id
        return PolicyPlan(prefetch_keys=prefetch, evict_keys=evict)


class MetadataPolicy(CachingPolicy):
    """P4 — cache configuration/performance metadata for the most recent R rounds."""

    name = "P4"
    admit_on_miss = True

    def __init__(self, recent_rounds: int = 10) -> None:
        if recent_rounds <= 0:
            raise ValueError("recent_rounds must be positive")
        self.recent_rounds = recent_rounds
        self._cached_rounds: set[int] = set()

    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        admit = record.metadata_keys()
        floor = record.round_id - self.recent_rounds + 1
        evict: list[DataKey] = []
        for old_round in sorted(self._cached_rounds):
            if old_round < floor:
                evict.extend(
                    DataKey.metadata(cid, old_round) for cid in catalog.metadata_clients(old_round)
                )
                self._cached_rounds.discard(old_round)
        self._cached_rounds.add(record.round_id)
        return PolicyPlan(admit_keys=admit, evict_keys=evict)

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey], catalog: RoundCatalog
    ) -> PolicyPlan:
        next_round = request.round_id + 1
        prefetch: list[DataKey] = []
        if catalog.has_round(next_round):
            prefetch = [
                DataKey.metadata(cid, next_round) for cid in catalog.metadata_clients(next_round)
            ]
            self._cached_rounds.add(next_round)
        return PolicyPlan(prefetch_keys=prefetch)


class TailoredPolicyBundle(CachingPolicy):
    """Combines P1-P4 and dispatches each request via the workload taxonomy.

    Eviction advice from one policy class is restricted to keys that class
    *owns* (admitted or prefetched), so e.g. P2's per-round eviction never
    removes an aggregate that P1 keeps warm for inference.
    """

    name = "flstore"
    admit_on_miss = True

    def __init__(
        self,
        config: CachePolicyConfig | None = None,
        capacity_bytes: int | None = None,
    ) -> None:
        config = config or CachePolicyConfig()
        self.config = config
        self._capacity_bytes = capacity_bytes
        self.policies: dict[PolicyClass, CachingPolicy] = {
            PolicyClass.P1_INDIVIDUAL: SingleModelPolicy(),
            PolicyClass.P2_ROUND: AllUpdatesInRoundPolicy(config.prefetch_rounds_ahead),
            PolicyClass.P3_ACROSS_ROUNDS: AcrossRoundsPolicy(config.prefetch_rounds_ahead),
            PolicyClass.P4_METADATA: MetadataPolicy(config.metadata_recent_rounds),
        }
        #: ``key -> policy-class value`` ownership map used to scope evictions.
        self._owner: dict[DataKey, str] = {}
        #: ``policy class -> (policy, class value)``: one lookup per request.
        self._dispatch: dict[PolicyClass, tuple[CachingPolicy, str]] = {
            policy_class: (policy, policy_class.value)
            for policy_class, policy in self.policies.items()
        }

    # ------------------------------------------------------------ dispatch

    def select_policy_class(self, request: WorkloadRequest) -> PolicyClass:
        """The taxonomy-selected policy class for ``request`` (Table 1)."""
        return get_workload(request.workload).policy_class

    def _scope_plan(self, plan: PolicyPlan, value: str) -> PolicyPlan:
        """Scope a sub-policy's fresh ``plan`` to the class ``value``, in place.

        The class claims the plan's admitted and prefetched keys, and the
        plan keeps only the evictions of keys the class owns.
        """
        owners = self._owner
        for key in plan.admit_keys:
            owners[key] = value
        for key in plan.prefetch_keys:
            owners[key] = value
        evict = [key for key in plan.evict_keys if owners.get(key) == value]
        for key in evict:
            owners.pop(key, None)
        plan.evict_keys = evict
        return plan

    # ------------------------------------------------------------ planning

    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        merged = PolicyPlan()
        for policy, value in self._dispatch.values():
            merged = merged.merge(self._scope_plan(policy.plan_ingest(record, catalog), value))
        return merged

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey], catalog: RoundCatalog
    ) -> PolicyPlan:
        policy, value = self._dispatch[self.select_policy_class(request)]
        scoped = self._scope_plan(policy.plan_request(request, required_keys, catalog), value)
        # Objects fetched on a miss for this request also become owned by the
        # dispatching class so later evictions can reclaim them.
        claim = self._owner.setdefault
        for key in required_keys:
            claim(key, value)
        return scoped

    # ----------------------------------------------------- capacity control

    @property
    def capacity_bytes(self) -> int | None:
        return self._capacity_bytes

    def select_evictions(self, needed_bytes: int, cached_sizes: dict[DataKey, int]) -> list[DataKey]:
        """Evict oldest-round objects first when a capacity cap is configured."""
        if self._capacity_bytes is None:
            return []
        victims: list[DataKey] = []
        freed = 0
        for key in sorted(cached_sizes, key=lambda k: (k.round_id, k.kind.value, k.client_id)):
            if freed >= needed_bytes:
                break
            victims.append(key)
            freed += cached_sizes[key]
        for key in victims:
            self._owner.pop(key, None)
        return victims

    def record_eviction(self, key: DataKey) -> None:
        self._owner.pop(key, None)
