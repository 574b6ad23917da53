"""A discrete-event simulation kernel: one event heap, futures, timed processes.

The analytic simulator of :mod:`repro.core` serves one request at a time and
returns closed-form latencies.  This kernel supplies the missing substrate
for *load-dependent* behaviour — concurrent in-flight requests, queueing,
cold-start overlap — as a classic discrete-event engine:

* :class:`EventLoop` — one binary heap (:mod:`heapq`) of
  ``(virtual_time, sequence, action)`` events.  Events at the same timestamp
  fire in scheduling order (the monotonically increasing sequence number
  breaks ties), which makes every run deterministic.  The hypothesis property
  in ``tests/test_kernel.py`` drives random schedules through it and through
  a reference ``(time, seq)`` heap and asserts the same firing order.  An
  open-loop run schedules every arrival up front, so the heap peaks at about
  one entry per offered request: 1,001 to 1,751 entries on the five
  event-path bench workloads, which offer 1,000 to 1,750 requests.  The
  million-request scale runs on the vectorized fast path
  (:mod:`repro.engine.vectorized`) and never reaches this loop.
* :class:`SimTask` — a future resolved at some virtual time.  Processes wait
  on tasks; external components (queue slots, completion signals) resolve
  them.
* **Processes** — plain Python generators driven by :meth:`EventLoop.process`.
  A process yields :class:`Timeout` to sleep on virtual time or a
  :class:`SimTask` to wait for another process/resource; its ``return`` value
  becomes the result of its task.

The kernel knows nothing about FLStore; :mod:`repro.engine.flstore` builds
the serving semantics on top of it.

Examples
--------
>>> loop = EventLoop()
>>> def worker(delay, out):
...     yield Timeout(delay)
...     out.append(loop.now)
...     return delay
>>> out = []
>>> task = loop.process(worker(2.5, out))
>>> loop.run()
2.5
>>> (out, task.result, loop.now)
([2.5], 2.5, 2.5)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional


@dataclass(frozen=True, slots=True)
class Timeout:
    """Yielded by a process to sleep for ``seconds`` of virtual time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"Timeout must be non-negative, got {self.seconds}")


class SimTask:
    """A future resolved at some virtual time.

    Processes obtain one from :meth:`EventLoop.process`, or create one
    directly to model a resource grant (e.g. a queue slot) that another
    component will :meth:`resolve` later.
    """

    __slots__ = ("loop", "name", "_done", "_result", "_callbacks")

    def __init__(self, loop: "EventLoop", name: str | None = None) -> None:
        self.loop = loop
        self.name = name
        self._done = False
        self._result: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def done(self) -> bool:
        """Whether the task has been resolved."""
        return self._done

    @property
    def result(self) -> Any:
        """The task's result (raises if not yet resolved)."""
        if not self._done:
            raise RuntimeError(f"task {self.name or id(self)} is not done yet")
        return self._result

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(result)`` when the task resolves (immediately if done)."""
        if self._done:
            callback(self._result)
        else:
            self._callbacks.append(callback)

    def resolve(self, value: Any = None) -> None:
        """Resolve the task with ``value`` and fire waiting callbacks in order."""
        if self._done:
            raise RuntimeError(f"task {self.name or id(self)} is already resolved")
        self._done = True
        self._result = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"SimTask(name={self.name!r}, {state})"


#: A process is a generator yielding Timeout / SimTask and returning a value.
Process = Generator[Any, Any, Any]

#: One scheduled event: ``(virtual_time, sequence, action)``.
_Entry = tuple[float, int, Callable[[], None]]


class EventLoop:
    """A deterministic discrete-event loop over virtual time.

    Events are ordered by ``(time, sequence)``: two events scheduled for the
    same virtual instant fire in the order they were scheduled, so runs are
    reproducible by construction.
    """

    __slots__ = ("now", "_heap", "_seq", "events_fired")

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._heap: list[_Entry] = []
        self._seq = 0
        self.events_fired = 0

    # ----------------------------------------------------------- scheduling

    def schedule_at(self, when: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` to fire at virtual time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (float(when), seq, action))

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.now + delay, action)

    def pending(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap)

    # ------------------------------------------------------------ processes

    def process(
        self, generator: Process, task: SimTask | None = None, name: str | None = None
    ) -> SimTask:
        """Start driving ``generator`` as a timed process; returns its task.

        The generator may yield :class:`Timeout` (sleep) or :class:`SimTask`
        (wait; the task's result is sent back into the generator).  Its
        ``return`` value resolves the process task.
        """
        task = task if task is not None else SimTask(self, name=name)
        self._step(generator, task, None)
        return task

    def _step(self, generator: Process, task: SimTask, send_value: Any) -> None:
        try:
            yielded = generator.send(send_value)
        except StopIteration as stop:
            task.resolve(stop.value)
            return
        if isinstance(yielded, Timeout):
            self.schedule(yielded.seconds, lambda: self._step(generator, task, None))
        elif isinstance(yielded, SimTask):
            if yielded.done:
                # Already-resolved waits still go through the schedule so
                # that resumption order matches the scheduling order of
                # every other same-timestamp event.
                result = yielded.result
                self.schedule(0.0, lambda: self._step(generator, task, result))
            else:
                yielded.add_done_callback(lambda value: self._step(generator, task, value))
        else:
            raise TypeError(
                f"processes may yield Timeout or SimTask, got {type(yielded).__name__}"
            )

    # --------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> float:
        """Fire events in order until the schedule drains (or past ``until``).

        Returns the final virtual time.  With ``until`` set, the boundary is
        inclusive: events at exactly ``until`` fire, events strictly later
        stay queued, and the clock lands exactly on ``until``.
        """
        heap = self._heap
        limit = float("inf") if until is None else until
        while heap and heap[0][0] <= limit:
            when, _, action = heapq.heappop(heap)
            self.now = when
            self.events_fired += 1
            action()
        if until is not None and until > self.now:
            self.now = until
        return self.now
