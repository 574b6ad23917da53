"""An S3/MinIO-like cloud object store with analytic latency and cost.

This is the *persistent data plane* of both the baselines (Figure 3) and
FLStore (the cold-data repository of Figure 5).  Objects are held in process
memory; what is simulated is the latency (one RTT plus size/bandwidth over
the ``objstore`` network link) and dollar cost (per-request charge plus
per-GB egress on reads) of every PUT/GET, exactly the quantities the paper's
evaluation depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.cloud.payload import payload_size_bytes
from repro.common.errors import DataNotFoundError
from repro.network.costs import TransferCostModel
from repro.network.model import NetworkLink
from repro.simulation.records import CostBreakdown, LatencyBreakdown, OperationResult


@dataclass
class _StoredObject:
    value: Any
    size_bytes: int


@dataclass
class ObjectStoreStats:
    """Cumulative operation counters of one object store instance."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    missed_gets: int = 0


class ObjectStore:
    """A durable key/value blob store (AWS S3 / MinIO equivalent).

    Parameters
    ----------
    link:
        Network path between the caller (aggregator or serverless function)
        and the store; determines transfer latency.
    cost_model:
        Converts operation sizes to dollar amounts.
    name:
        Human-readable identifier used in error messages and reports.
    """

    def __init__(
        self,
        link: NetworkLink,
        cost_model: TransferCostModel,
        name: str = "object-store",
    ) -> None:
        self.name = name
        self._link = link
        self._costs = cost_model
        self._objects: dict[Hashable, _StoredObject] = {}
        self.stats = ObjectStoreStats()
        # Latency/cost of an operation depend only on the payload size, and
        # FL metadata sizes repeat heavily (every update of a model has the
        # same size), so the frozen breakdown pairs are memoized per size.
        self._put_effects: dict[int, tuple[LatencyBreakdown, CostBreakdown]] = {}
        self._get_effects: dict[int, tuple[LatencyBreakdown, CostBreakdown]] = {}

    # ------------------------------------------------------------------ API

    def put(self, key: Hashable, value: Any, size_bytes: int | None = None) -> OperationResult:
        """Store ``value`` under ``key`` and return the latency/cost of the upload."""
        size = int(size_bytes) if size_bytes is not None else payload_size_bytes(value)
        self._objects[key] = _StoredObject(value=value, size_bytes=size)
        self.stats.puts += 1
        self.stats.bytes_written += size
        latency, cost = self.put_effects(size)
        return OperationResult(value=None, latency=latency, cost=cost)

    def put_effects(self, size_bytes: int) -> tuple[LatencyBreakdown, CostBreakdown]:
        """The latency and cost :meth:`put` charges for ``size_bytes``; stores nothing."""
        effects = self._put_effects.get(size_bytes)
        if effects is None:
            latency = LatencyBreakdown.communication(self._link.transfer_seconds(size_bytes))
            effects = (latency, self._costs.objstore_put_cost(size_bytes))
            self._put_effects[size_bytes] = effects
        return effects

    def get(self, key: Hashable) -> OperationResult:
        """Fetch the object stored under ``key``.

        Raises
        ------
        DataNotFoundError
            If no object exists under ``key``.
        """
        record = self._objects.get(key)
        if record is None:
            self.stats.missed_gets += 1
            raise DataNotFoundError(key, self.name)
        size = record.size_bytes
        self.stats.gets += 1
        self.stats.bytes_read += size
        effects = self._get_effects.get(size)
        if effects is None:
            latency = LatencyBreakdown.communication(self._link.transfer_seconds(size))
            effects = (latency, self._costs.objstore_get_cost(size))
            self._get_effects[size] = effects
        return OperationResult(value=record.value, latency=effects[0], cost=effects[1])

    def delete(self, key: Hashable) -> OperationResult:
        """Remove ``key`` if present (idempotent, free of charge)."""
        if key in self._objects:
            del self._objects[key]
            self.stats.deletes += 1
        return OperationResult(value=None)

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` currently exists in the store."""
        return key in self._objects

    def size_of(self, key: Hashable) -> int:
        """Logical size of the object under ``key`` in bytes."""
        record = self._objects.get(key)
        if record is None:
            raise DataNotFoundError(key, self.name)
        return record.size_bytes

    def keys(self) -> Iterator[Hashable]:
        """Iterate over every stored key."""
        return iter(list(self._objects.keys()))

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def total_stored_bytes(self) -> int:
        """Sum of the logical sizes of every stored object."""
        return sum(obj.size_bytes for obj in self._objects.values())

    def storage_cost(self, duration_hours: float) -> CostBreakdown:
        """Cost of holding the current contents for ``duration_hours``."""
        return self._costs.objstore_storage_cost(self.total_stored_bytes, duration_hours)
