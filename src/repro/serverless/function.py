"""A single emulated serverless function with resident memory.

A function models an AWS Lambda / OpenFaaS worker that stays *warm* as long
as it is periodically invoked (or pinged).  Its memory holds cached FL
metadata objects at client-model granularity (Section 4.2 of the paper), and
its co-located CPU executes non-training workloads against those objects.
"""

from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

from repro.cloud.payload import payload_size_bytes
from repro.common.errors import CapacityError, DataNotFoundError, FunctionReclaimedError
from repro.common.units import GB
from repro.config import QUEUE_DISCIPLINES


class FunctionState(enum.Enum):
    """Lifecycle state of a serverless function."""

    WARM = "warm"
    RECLAIMED = "reclaimed"


@dataclass(slots=True)
class _ResidentObject:
    value: Any
    size_bytes: int
    stored_at: float


class RequestQueue:
    """A queue of opaque waiter tokens under one of four disciplines.

    The discrete-event engine parks one token per request waiting for an
    execution slot on a function.  Ordering is deterministic under every
    discipline:

    * ``fifo`` pops in arrival order.
    * ``priority`` pops by ``(priority, arrival sequence)`` with lower
      priority values first, so equal priorities degrade to FIFO.
    * ``wfq`` is self-clocked weighted fair queueing over *flows* (tenant
      ids): each push is stamped with a virtual finish time
      ``max(vtime, flow's last finish) + 1/weight`` and pops run in finish
      order, so backlogged flows share service in proportion to weight.
    * ``drr`` is deficit round robin over flows: each flow banks a quantum
      equal to its weight once per rotation and serves requests while its
      deficit covers them, giving the same weighted shares with O(1) pops.

    Tokens pushed without a flow belong to the anonymous flow ``None`` at
    weight 1.0, which makes single-tenant behaviour under ``wfq``/``drr``
    degrade to FIFO.

    ``capacity`` bounds the queue for admission control: pushing onto a full
    queue raises :class:`CapacityError`, and the admission layer is expected
    to check :attr:`full` first and shed the request instead (``0`` keeps
    the queue unbounded).
    """

    __slots__ = (
        "discipline",
        "capacity",
        "_heap",
        "_seq",
        "_size",
        "_vtime",
        "_flow_finish",
        "_flows",
        "_active",
        "_deficit",
        "_quantum",
    )

    def __init__(self, discipline: str = "fifo", capacity: int = 0) -> None:
        if discipline not in QUEUE_DISCIPLINES:
            raise ValueError(f"unknown queue discipline {discipline!r}")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0 (0 means unbounded), got {capacity}")
        self.discipline = discipline
        self.capacity = int(capacity)
        #: fifo/priority/wfq entries: ``(key, seq, token, flow)``.
        self._heap: list[tuple[float, int, Any, Hashable]] = []
        self._seq = 0
        self._size = 0
        # wfq state: the system virtual time (finish tag of the last pop) and
        # each flow's last assigned finish tag.
        self._vtime = 0.0
        self._flow_finish: dict[Hashable, float] = {}
        # drr state: per-flow FIFO backlogs, the round-robin rotation, and
        # per-flow deficit counters / quanta (quantum == configured weight).
        self._flows: dict[Hashable, deque[Any]] = {}
        self._active: deque[Hashable] = deque()
        self._deficit: dict[Hashable, float] = {}
        self._quantum: dict[Hashable, float] = {}

    @property
    def full(self) -> bool:
        """Whether the queue is at its capacity bound (never true when unbounded)."""
        return self.capacity > 0 and self._size >= self.capacity

    def push(
        self,
        token: Any,
        priority: float = 0.0,
        flow: Hashable = None,
        weight: float = 1.0,
    ) -> None:
        """Enqueue ``token``.

        ``priority`` orders only the ``priority`` discipline; ``flow`` and
        ``weight`` matter only to ``wfq``/``drr`` (the flow's weight is the
        one given with its first queued request of a busy period).

        Raises
        ------
        CapacityError
            If the queue is bounded and already full.
        """
        if self.full:
            raise CapacityError(
                f"request queue is at its capacity bound ({self.capacity}); "
                "the admission controller should have shed this request"
            )
        if weight <= 0.0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        if self.discipline == "drr":
            backlog = self._flows.get(flow)
            if backlog is None:
                backlog = self._flows[flow] = deque()
                self._active.append(flow)
                self._deficit.setdefault(flow, 0.0)
            self._quantum[flow] = weight
            backlog.append(token)
        else:
            if self.discipline == "priority":
                key = priority
            elif self.discipline == "wfq":
                start = max(self._vtime, self._flow_finish.get(flow, 0.0))
                key = start + 1.0 / weight
                self._flow_finish[flow] = key
            else:
                key = 0.0
            heapq.heappush(self._heap, (key, self._seq, token, flow))
        self._seq += 1
        self._size += 1

    def pop(self) -> Any:
        """Dequeue the next token (raises ``IndexError`` when empty)."""
        if self.discipline == "drr":
            return self._pop_drr()
        key, _seq, token, _flow = heapq.heappop(self._heap)
        if self.discipline == "wfq" and key > self._vtime:
            self._vtime = key
        self._size -= 1
        return token

    def _pop_drr(self) -> Any:
        if not self._active:
            raise IndexError("pop from an empty request queue")
        while True:
            flow = self._active[0]
            if self._deficit.get(flow, 0.0) >= 1.0:
                self._deficit[flow] -= 1.0
                backlog = self._flows[flow]
                token = backlog.popleft()
                if not backlog:
                    # An emptied flow leaves the rotation and forfeits its
                    # banked deficit (no credit accrues while idle).
                    self._active.popleft()
                    del self._flows[flow]
                    self._deficit.pop(flow, None)
                self._size -= 1
                return token
            # The head flow's deficit cannot cover a request: bank one
            # quantum and rotate.  Quanta are positive, so this terminates.
            self._deficit[flow] = self._deficit.get(flow, 0.0) + self._quantum.get(flow, 1.0)
            self._active.rotate(-1)

    def evict(self, flow: Hashable) -> Any | None:
        """Remove and return ``flow``'s most recently enqueued token, if any.

        This is the admission controller's push-out primitive: under
        SLO-aware shedding a full queue evicts the newest request of the
        worst-violating flow instead of the arriving one.  Returns ``None``
        when the flow has nothing queued.
        """
        if self.discipline == "drr":
            backlog = self._flows.get(flow)
            if not backlog:
                return None
            token = backlog.pop()
            if not backlog:
                try:
                    self._active.remove(flow)
                except ValueError:  # pragma: no cover - rotation always holds it
                    pass
                del self._flows[flow]
                self._deficit.pop(flow, None)
            self._size -= 1
            return token
        candidates = [entry for entry in self._heap if entry[3] == flow]
        if not candidates:
            return None
        entry = max(candidates)
        self._heap.remove(entry)
        heapq.heapify(self._heap)
        if self.discipline == "wfq":
            remaining = [e[0] for e in self._heap if e[3] == flow]
            self._flow_finish[flow] = max(remaining) if remaining else self._vtime
        self._size -= 1
        return entry[2]

    def queued_flows(self) -> dict[Hashable, int]:
        """Backlog size per flow (``None`` keys the anonymous flow)."""
        if self.discipline == "drr":
            return {flow: len(backlog) for flow, backlog in self._flows.items()}
        counts: dict[Hashable, int] = {}
        for entry in self._heap:
            counts[entry[3]] = counts.get(entry[3], 0) + 1
        return counts

    def drain(self) -> list[Any]:
        """Remove and return every queued token in pop order."""
        if self.discipline == "drr":
            drained = []
            while self._size:
                drained.append(self._pop_drr())
            return drained
        drained = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        self._size = 0
        return drained

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0


#: Module-level alias: avoids an enum descriptor lookup per liveness check.
_WARM = FunctionState.WARM


@dataclass
class FunctionStats:
    """Cumulative counters of one function instance."""

    invocations: int = 0
    executions: int = 0
    busy_seconds: float = 0.0
    objects_stored: int = 0
    objects_evicted: int = 0


class ServerlessFunction:
    """One warm serverless function holding cached objects and running workloads.

    Parameters
    ----------
    function_id:
        Unique identifier assigned by the platform.
    memory_limit_bytes:
        Provisioned memory (at most 10 GB on AWS Lambda).
    cpu_cores:
        Number of vCPUs; only recorded for reporting, the compute-time model
        already accounts for function-class speed.
    """

    __slots__ = (
        "function_id",
        "memory_limit_bytes",
        "cpu_cores",
        "state",
        "last_invoked_at",
        "stats",
        "free_bytes",
        "concurrency_limit",
        "active_executions",
        "_objects",
        "_used_bytes",
    )

    def __init__(
        self,
        function_id: str,
        memory_limit_bytes: int = 4 * GB,
        cpu_cores: int = 2,
        concurrency_limit: int = 1,
    ) -> None:
        if memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive")
        if concurrency_limit <= 0:
            raise ValueError("concurrency_limit must be positive")
        self.function_id = function_id
        self.memory_limit_bytes = int(memory_limit_bytes)
        self.cpu_cores = cpu_cores
        self.state = FunctionState.WARM
        self.last_invoked_at: float = 0.0
        self.stats = FunctionStats()
        #: Concurrent executions this instance admits before requests queue.
        self.concurrency_limit = int(concurrency_limit)
        #: Executions currently occupying a slot (engine-managed).
        self.active_executions = 0
        self._objects: dict[Hashable, _ResidentObject] = {}
        #: Running sum of resident object sizes; keeping it incrementally
        #: maintained makes ``free_bytes``/``can_fit`` O(1) on the placement
        #: hot path instead of O(resident objects).
        self._used_bytes: int = 0
        #: Remaining capacity, maintained alongside ``_used_bytes`` so the
        #: best-fit scan reads a plain attribute instead of a property.
        self.free_bytes: int = self.memory_limit_bytes

    # ------------------------------------------------------------ memory API

    @property
    def used_bytes(self) -> int:
        """Bytes of provisioned memory currently occupied by cached objects."""
        return self._used_bytes

    @property
    def is_warm(self) -> bool:
        """Whether the function is still resident (not reclaimed)."""
        return self.state is _WARM

    def can_fit(self, size_bytes: int) -> bool:
        """Whether an object of ``size_bytes`` fits in the remaining capacity."""
        return size_bytes <= self.free_bytes

    def store(self, key: Hashable, value: Any, now: float = 0.0, size_bytes: int | None = None) -> int:
        """Place ``value`` in this function's memory under ``key``.

        Returns the stored size in bytes.

        Raises
        ------
        FunctionReclaimedError
            If the function has been reclaimed.
        CapacityError
            If the object does not fit in the remaining memory.
        """
        if self.state is not _WARM:
            raise FunctionReclaimedError(self.function_id)
        size = int(size_bytes) if size_bytes is not None else payload_size_bytes(value)
        existing = self._objects.get(key)
        available = self.free_bytes + (existing.size_bytes if existing else 0)
        if size > available:
            raise CapacityError(
                f"object of {size} bytes does not fit in function {self.function_id} "
                f"({available} bytes available)"
            )
        self._objects[key] = _ResidentObject(value, size, now)
        delta = size - (existing.size_bytes if existing else 0)
        self._used_bytes += delta
        self.free_bytes -= delta
        self.stats.objects_stored += 1
        return size

    def load(self, key: Hashable) -> Any:
        """Return the object stored under ``key`` (no latency: data is local).

        Raises
        ------
        DataNotFoundError
            If ``key`` is not resident in this function.
        """
        # Both checks inline: a hit on the request path is one frame.
        if self.state is not _WARM:
            raise FunctionReclaimedError(self.function_id)
        record = self._objects.get(key)
        if record is None:
            raise DataNotFoundError(key, f"function {self.function_id}")
        return record.value

    def evict(self, key: Hashable) -> bool:
        """Drop ``key`` from memory; returns whether it was present."""
        record = self._objects.pop(key, None)
        if record is not None:
            self._used_bytes -= record.size_bytes
            self.free_bytes += record.size_bytes
            self.stats.objects_evicted += 1
            return True
        return False

    def holds(self, key: Hashable) -> bool:
        """Whether ``key`` is resident in this function."""
        return self.state is _WARM and key in self._objects

    def resident_keys(self) -> Iterator[Hashable]:
        """Iterate over every resident key."""
        return iter(list(self._objects.keys()))

    def size_of(self, key: Hashable) -> int:
        """Logical size of the resident object under ``key``."""
        record = self._objects.get(key)
        if record is None:
            raise DataNotFoundError(key, f"function {self.function_id}")
        return record.size_bytes

    def __len__(self) -> int:
        return len(self._objects)

    # --------------------------------------------------------- execution API

    @property
    def has_execution_slot(self) -> bool:
        """Whether another request can start executing here right now."""
        return self.state is _WARM and self.active_executions < self.concurrency_limit

    def begin_execution(self) -> None:
        """Occupy one concurrency slot (engine bookkeeping).

        Raises
        ------
        FunctionReclaimedError
            If the function has been reclaimed.
        CapacityError
            If every concurrency slot is already in use.
        """
        self._ensure_warm()
        if self.active_executions >= self.concurrency_limit:
            raise CapacityError(
                f"function {self.function_id} is at its concurrency limit "
                f"({self.concurrency_limit})"
            )
        self.active_executions += 1

    def end_execution(self) -> None:
        """Release one concurrency slot (no-op past zero, e.g. after reclaim)."""
        if self.active_executions > 0:
            self.active_executions -= 1

    def record_invocation(self, now: float, busy_seconds: float = 0.0) -> None:
        """Account for one invocation at time ``now`` taking ``busy_seconds``."""
        self._ensure_warm()
        self.stats.invocations += 1
        if busy_seconds > 0:
            self.stats.executions += 1
            self.stats.busy_seconds += busy_seconds
        self.last_invoked_at = now

    def reclaim(self) -> None:
        """Simulate the provider reclaiming the function: all memory is lost."""
        self.state = FunctionState.RECLAIMED
        self._objects.clear()
        self._used_bytes = 0
        self.free_bytes = self.memory_limit_bytes
        self.active_executions = 0

    def restore(self) -> None:
        """Re-provision the function after reclamation (memory starts empty)."""
        self.state = FunctionState.WARM

    def _ensure_warm(self) -> None:
        if self.state is not _WARM:
            raise FunctionReclaimedError(self.function_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerlessFunction(id={self.function_id!r}, state={self.state.value}, "
            f"used={self.used_bytes}/{self.memory_limit_bytes} bytes, objects={len(self)})"
        )
