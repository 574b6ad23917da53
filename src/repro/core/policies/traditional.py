"""Traditional, workload-agnostic caching policies: LRU, LFU, FIFO, random eviction.

These are the baselines of Figure 11 and Table 2.  They are *reactive*: no
object enters the cache until a request misses on it, and a byte capacity is
enforced by evicting victims chosen by the policy's ordering.  Because the
non-training request stream of an FL job touches each round's (or each
metadata record's) keys essentially once before moving on, reactive policies
never have the next request's data resident — which is why the paper measures
~0 % hit rates for them against FLStore's ~99 %.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.common.rng import derive_rng
from repro.common.units import GB
from repro.core.policies.base import CachingPolicy, PolicyPlan
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.rounds import RoundRecord
from repro.workloads.base import WorkloadRequest


@dataclass
class _Bookkeeping:
    """Per-key accounting shared by every capacity-bounded policy."""

    size_bytes: int = 0
    admitted_at: float = 0.0
    last_access: float = 0.0
    access_count: int = 0
    sequence: int = 0


class CapacityBoundPolicy(CachingPolicy):
    """Base class of reactive policies with a fixed byte capacity."""

    name = "capacity-bound"
    admit_on_miss = True

    def __init__(self, capacity_bytes: int = 8 * GB) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = int(capacity_bytes)
        self._entries: dict[DataKey, _Bookkeeping] = {}
        self._sequence = 0

    # --------------------------------------------------------------- planning

    def plan_ingest(self, record: RoundRecord, catalog: RoundCatalog) -> PolicyPlan:
        """Reactive policies ignore round arrival — nothing is cached proactively."""
        del record, catalog
        return PolicyPlan()

    def plan_request(
        self, request: WorkloadRequest, required_keys: Sequence[DataKey], catalog: RoundCatalog
    ) -> PolicyPlan:
        """Reactive policies never prefetch."""
        del request, required_keys, catalog
        return PolicyPlan()

    # ------------------------------------------------------------ bookkeeping

    def record_access(self, key: DataKey, hit: bool, now: float) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            entry.last_access = now
            entry.access_count += 1
        del hit

    def record_admission(self, key: DataKey, size_bytes: int, now: float) -> None:
        self._sequence += 1
        self._entries[key] = _Bookkeeping(
            size_bytes=size_bytes,
            admitted_at=now,
            last_access=now,
            access_count=1,
            sequence=self._sequence,
        )

    def record_eviction(self, key: DataKey) -> None:
        self._entries.pop(key, None)

    # ------------------------------------------------------ capacity control

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def tracked_bytes(self) -> int:
        """Bytes the policy believes are currently cached."""
        return sum(entry.size_bytes for entry in self._entries.values())

    def select_evictions(self, needed_bytes: int, cached_sizes: dict[DataKey, int]) -> list[DataKey]:
        """Pick victims in policy order until ``needed_bytes`` are freed."""
        victims: list[DataKey] = []
        freed = 0
        for key in self._victim_order():
            if freed >= needed_bytes:
                break
            if key not in cached_sizes:
                continue
            victims.append(key)
            freed += cached_sizes[key]
        return victims

    @abc.abstractmethod
    def _victim_order(self) -> list[DataKey]:
        """Keys sorted from first-to-evict to last-to-evict."""


class LRUPolicy(CapacityBoundPolicy):
    """Evict the least-recently-used object first."""

    name = "lru"

    def _victim_order(self) -> list[DataKey]:
        return sorted(self._entries, key=lambda k: self._entries[k].last_access)


class LFUPolicy(CapacityBoundPolicy):
    """Evict the least-frequently-used object first (ties broken by recency)."""

    name = "lfu"

    def _victim_order(self) -> list[DataKey]:
        return sorted(
            self._entries,
            key=lambda k: (self._entries[k].access_count, self._entries[k].last_access),
        )


class FIFOPolicy(CapacityBoundPolicy):
    """Evict the earliest-admitted object first."""

    name = "fifo"

    def _victim_order(self) -> list[DataKey]:
        return sorted(self._entries, key=lambda k: self._entries[k].sequence)


class RandomEvictionPolicy(CapacityBoundPolicy):
    """Evict uniformly random victims (a sanity-check baseline)."""

    name = "random-eviction"

    def __init__(self, capacity_bytes: int = 8 * GB, seed: int = 7) -> None:
        super().__init__(capacity_bytes)
        self._rng = derive_rng(seed, "random-eviction")

    def _victim_order(self) -> list[DataKey]:
        keys = list(self._entries)
        self._rng.shuffle(keys)
        return keys
