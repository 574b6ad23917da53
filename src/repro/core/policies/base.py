"""Caching-policy interface shared by the tailored and traditional policies.

A policy advises FLStore's Cache Engine on three occasions:

* **round ingestion** (Step 1 of Figure 6): which of the round's freshly
  arrived objects are *hot* and should go into the serverless cache, and
  which previously cached objects can be evicted;
* **request handling** (Steps 2-5 of Figure 6): which additional objects to
  *prefetch* for imminent requests and which processed objects to evict;
* **miss handling**: whether objects fetched on demand from the persistent
  store should be admitted into the cache (reactive admission — what the
  traditional policies do), and which victims to evict when capacity runs
  out.

The tailored FLStore policies are proactive (prefetch ahead of the iterative
access pattern) and effectively capacity-free because they keep only what the
pattern needs; the traditional LRU/LFU/FIFO baselines are reactive and bound
by a byte capacity.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.rounds import RoundRecord
from repro.workloads.base import WorkloadRequest


@dataclass
class PolicyPlan:
    """Advice returned by a policy to the Cache Engine."""

    #: Freshly arrived objects to place in the serverless cache now.
    admit_keys: list[DataKey] = field(default_factory=list)
    #: Objects to fetch from the persistent store ahead of future requests.
    prefetch_keys: list[DataKey] = field(default_factory=list)
    #: Cached objects that are no longer needed.
    evict_keys: list[DataKey] = field(default_factory=list)

    def merge(self, other: "PolicyPlan") -> "PolicyPlan":
        """Union two plans (used when several policy classes act on one ingest)."""
        return PolicyPlan(
            admit_keys=_dedupe(self.admit_keys + other.admit_keys),
            prefetch_keys=_dedupe(self.prefetch_keys + other.prefetch_keys),
            evict_keys=_dedupe(self.evict_keys + other.evict_keys),
        )

    @property
    def is_empty(self) -> bool:
        """Whether the plan carries no advice at all."""
        return not (self.admit_keys or self.prefetch_keys or self.evict_keys)


def _dedupe(keys: list[DataKey]) -> list[DataKey]:
    seen: set[DataKey] = set()
    ordered: list[DataKey] = []
    for key in keys:
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered


class CachingPolicy(abc.ABC):
    """Base class of every caching policy."""

    #: Human-readable policy name used in reports (e.g. ``"P2"``, ``"lru"``).
    name: str = "policy"
    #: Whether objects fetched on a miss should be admitted into the cache.
    admit_on_miss: bool = True

    # ------------------------------------------------------------- planning

    @abc.abstractmethod
    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        """Advice for a freshly completed training round."""

    @abc.abstractmethod
    def plan_request(
        self,
        request: WorkloadRequest,
        required_keys: Sequence[DataKey],
        catalog: RoundCatalog,
    ) -> PolicyPlan:
        """Advice around one non-training request (prefetch / evict)."""

    # --------------------------------------------------------- bookkeeping

    def record_access(self, key: DataKey, hit: bool, now: float) -> None:
        """Notify the policy that ``key`` was accessed (hit or miss) at ``now``."""

    def record_admission(self, key: DataKey, size_bytes: int, now: float) -> None:
        """Notify the policy that ``key`` of ``size_bytes`` entered the cache at ``now``."""

    def record_eviction(self, key: DataKey) -> None:
        """Notify the policy that ``key`` left the cache."""

    # ----------------------------------------------------- capacity control

    def select_evictions(self, needed_bytes: int, cached_sizes: dict[DataKey, int]) -> list[DataKey]:
        """Pick victims freeing at least ``needed_bytes`` (capacity-bounded policies).

        The default (used by the tailored policies, which manage their own
        working set) evicts nothing.
        """
        del needed_bytes, cached_sizes
        return []

    @property
    def capacity_bytes(self) -> int | None:
        """Byte capacity enforced by the policy, or ``None`` for unbounded."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
