"""Latency and cost record types shared by every substrate and by FLStore.

The paper's evaluation decomposes end-to-end request handling into a
*communication* part (moving metadata between the data plane and the compute
plane) and a *computation* part (executing the non-training workload), and
decomposes cost into data-transfer, request, compute, and provisioned-service
components.  The two dataclasses below carry exactly that decomposition so
that every experiment can report the same breakups as Figures 15-17.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class LatencyBreakdown:
    """Latency of one operation or one request, split by origin (seconds)."""

    communication_seconds: float = 0.0
    computation_seconds: float = 0.0
    queueing_seconds: float = 0.0
    cold_start_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total latency (sum of every component)."""
        return (
            self.communication_seconds
            + self.computation_seconds
            + self.queueing_seconds
            + self.cold_start_seconds
        )

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        if not isinstance(other, LatencyBreakdown):
            return NotImplemented
        return LatencyBreakdown(
            communication_seconds=self.communication_seconds + other.communication_seconds,
            computation_seconds=self.computation_seconds + other.computation_seconds,
            queueing_seconds=self.queueing_seconds + other.queueing_seconds,
            cold_start_seconds=self.cold_start_seconds + other.cold_start_seconds,
        )

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return LatencyBreakdown(
            communication_seconds=self.communication_seconds * factor,
            computation_seconds=self.computation_seconds * factor,
            queueing_seconds=self.queueing_seconds * factor,
            cold_start_seconds=self.cold_start_seconds * factor,
        )

    @classmethod
    def zero(cls) -> "LatencyBreakdown":
        """The additive identity."""
        return cls()

    @classmethod
    def communication(cls, seconds: float) -> "LatencyBreakdown":
        """A breakdown consisting only of communication latency."""
        return cls(communication_seconds=seconds)

    @classmethod
    def computation(cls, seconds: float) -> "LatencyBreakdown":
        """A breakdown consisting only of computation latency."""
        return cls(computation_seconds=seconds)


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Dollar cost of one operation or one request, split by origin."""

    transfer_dollars: float = 0.0
    request_dollars: float = 0.0
    compute_dollars: float = 0.0
    storage_dollars: float = 0.0
    #: Always-on provisioned services attributed to this operation
    #: (aggregator instance hours, cache node hours, keep-alive pings).
    provisioned_dollars: float = 0.0

    @property
    def total_dollars(self) -> float:
        """Total cost (sum of every component)."""
        return (
            self.transfer_dollars
            + self.request_dollars
            + self.compute_dollars
            + self.storage_dollars
            + self.provisioned_dollars
        )

    @property
    def communication_dollars(self) -> float:
        """Cost attributable to moving data (transfer + per-request charges)."""
        return self.transfer_dollars + self.request_dollars

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            transfer_dollars=self.transfer_dollars + other.transfer_dollars,
            request_dollars=self.request_dollars + other.request_dollars,
            compute_dollars=self.compute_dollars + other.compute_dollars,
            storage_dollars=self.storage_dollars + other.storage_dollars,
            provisioned_dollars=self.provisioned_dollars + other.provisioned_dollars,
        )

    def scaled(self, factor: float) -> "CostBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return CostBreakdown(
            transfer_dollars=self.transfer_dollars * factor,
            request_dollars=self.request_dollars * factor,
            compute_dollars=self.compute_dollars * factor,
            storage_dollars=self.storage_dollars * factor,
            provisioned_dollars=self.provisioned_dollars * factor,
        )

    @classmethod
    def zero(cls) -> "CostBreakdown":
        """The additive identity."""
        return cls()


class LatencyAccumulator:
    """Mutable running sum of :class:`LatencyBreakdown` components.

    The request hot path adds dozens of breakdowns per request; summing into
    plain float slots avoids allocating an intermediate frozen dataclass per
    addition.  Components are accumulated in the same order ``__add__`` sums
    them, so ``finalize()`` is bit-identical to folding with ``+``.
    """

    __slots__ = ("communication_seconds", "computation_seconds", "queueing_seconds", "cold_start_seconds")

    def __init__(self, initial: LatencyBreakdown | None = None) -> None:
        self.communication_seconds = 0.0
        self.computation_seconds = 0.0
        self.queueing_seconds = 0.0
        self.cold_start_seconds = 0.0
        if initial is not None:
            self.add(initial)

    def add(self, other: LatencyBreakdown) -> "LatencyAccumulator":
        self.communication_seconds += other.communication_seconds
        self.computation_seconds += other.computation_seconds
        self.queueing_seconds += other.queueing_seconds
        self.cold_start_seconds += other.cold_start_seconds
        return self

    def add_communication(self, seconds: float) -> "LatencyAccumulator":
        self.communication_seconds += seconds
        return self

    def add_queueing(self, seconds: float) -> "LatencyAccumulator":
        self.queueing_seconds += seconds
        return self

    @property
    def total_seconds(self) -> float:
        return (
            self.communication_seconds
            + self.computation_seconds
            + self.queueing_seconds
            + self.cold_start_seconds
        )

    def finalize(self) -> LatencyBreakdown:
        """Freeze the running sums into an immutable breakdown."""
        return LatencyBreakdown(
            communication_seconds=self.communication_seconds,
            computation_seconds=self.computation_seconds,
            queueing_seconds=self.queueing_seconds,
            cold_start_seconds=self.cold_start_seconds,
        )


class CostAccumulator:
    """Mutable running sum of :class:`CostBreakdown` components."""

    __slots__ = (
        "transfer_dollars",
        "request_dollars",
        "compute_dollars",
        "storage_dollars",
        "provisioned_dollars",
    )

    def __init__(self, initial: CostBreakdown | None = None) -> None:
        self.transfer_dollars = 0.0
        self.request_dollars = 0.0
        self.compute_dollars = 0.0
        self.storage_dollars = 0.0
        self.provisioned_dollars = 0.0
        if initial is not None:
            self.add(initial)

    def add(self, other: CostBreakdown) -> "CostAccumulator":
        self.transfer_dollars += other.transfer_dollars
        self.request_dollars += other.request_dollars
        self.compute_dollars += other.compute_dollars
        self.storage_dollars += other.storage_dollars
        self.provisioned_dollars += other.provisioned_dollars
        return self

    def finalize(self) -> CostBreakdown:
        """Freeze the running sums into an immutable breakdown."""
        return CostBreakdown(
            transfer_dollars=self.transfer_dollars,
            request_dollars=self.request_dollars,
            compute_dollars=self.compute_dollars,
            storage_dollars=self.storage_dollars,
            provisioned_dollars=self.provisioned_dollars,
        )


@dataclass(slots=True)
class OperationResult:
    """Return value of a storage or compute operation in a substrate.

    Attributes
    ----------
    value:
        The payload (fetched object, computation output) or ``None``.
    latency:
        Latency incurred by the operation.
    cost:
        Dollar cost incurred by the operation.
    """

    value: Any = None
    latency: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    cost: CostBreakdown = field(default_factory=CostBreakdown)

    def merge(self, other: "OperationResult") -> "OperationResult":
        """Combine two results, keeping the *other* value and summing metrics."""
        return OperationResult(
            value=other.value,
            latency=self.latency + other.latency,
            cost=self.cost + other.cost,
        )
