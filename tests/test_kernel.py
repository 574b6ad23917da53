"""Kernel scheduler contract: boundary semantics and heap equivalence.

Two guarantees pin the event loop's ordering contract:

* ``run(until=...)`` boundary semantics — events at exactly ``until`` fire,
  strictly later ones stay queued, and the clock lands exactly on ``until``.
* Total-order equivalence — a hypothesis property drives random
  ``schedule`` / ``schedule_at`` / nested-action interleavings through the
  production :class:`EventLoop` and a reference ``(time, seq)`` heap,
  asserting identical firing order, ``events_fired`` and ``pending()`` at
  every checkpoint.
"""

from __future__ import annotations

import heapq
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel import EventLoop


class ReferenceLoop:
    """The original event loop: one binary ``(time, seq)`` heap.

    Kept verbatim as the executable specification of event ordering.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._heap: list[tuple[float, int, object]] = []
        self._seq = count()
        self.events_fired = 0

    def schedule_at(self, when, action):
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        heapq.heappush(self._heap, (float(when), next(self._seq), action))

    def schedule(self, delay, action):
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.schedule_at(self.now + delay, action)

    def pending(self):
        return len(self._heap)

    def run(self, until=None):
        heap = self._heap
        while heap:
            when, _, action = heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(heap)
            self.now = when
            self.events_fired += 1
            action()
        if until is not None and until > self.now:
            self.now = until
        return self.now


class TestRunUntilTieSemantics:
    """`run(until=...)`: the boundary is inclusive, later events stay queued."""

    def test_events_exactly_at_until_fire_and_later_ones_stay(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append("early"))
        loop.schedule_at(2.0, lambda: fired.append("boundary-first"))
        loop.schedule_at(2.0, lambda: fired.append("boundary-second"))
        loop.schedule_at(2.0 + 1e-9, lambda: fired.append("later"))

        assert loop.run(until=2.0) == 2.0
        assert fired == ["early", "boundary-first", "boundary-second"]
        assert loop.now == 2.0
        assert loop.pending() == 1
        assert loop.events_fired == 3

        loop.run()
        assert fired[-1] == "later"
        assert loop.pending() == 0

    def test_boundary_event_chaining_a_zero_delay_child_fires_it_too(self):
        # An event at exactly `until` that schedules a zero-delay follow-up
        # keeps the follow-up inside the window: it lands at the same
        # timestamp, which is not strictly later than `until`.
        loop = EventLoop()
        fired = []
        loop.schedule_at(2.0, lambda: loop.schedule(0.0, lambda: fired.append("child")))
        loop.run(until=2.0)
        assert fired == ["child"]

    def test_run_until_with_empty_schedule_still_advances_the_clock(self):
        loop = EventLoop()
        assert loop.run(until=5.0) == 5.0
        assert loop.now == 5.0


# ---------------------------------------------------------------------------
# Hypothesis: the event loop is indistinguishable from the reference heap.
# ---------------------------------------------------------------------------

# A coarse time grid forces plenty of exact ties, which is where ordering
# bugs hide.
_grid_time = st.integers(min_value=0, max_value=600).map(lambda i: i * 0.25)
_child_delay = st.integers(min_value=0, max_value=12).map(lambda i: i * 0.25)

# ("one", time, [(delay, [(delay, [])...])...]) — an event that fires at
# `time` and schedules nested children relative to its own firing instant.
_children = st.lists(
    st.tuples(_child_delay, st.lists(st.tuples(_child_delay, st.just([])), max_size=2)),
    max_size=3,
)
_one = st.tuples(st.just("one"), _grid_time, _children)

# ("many", sorted times, spawn_flag) — a block of arrivals scheduled one
# ``schedule_at`` each in array order, as the front door submits an
# open-loop run; with spawn_flag set, every third firing schedules an extra
# nested event, so the block interleaves with other events mid-run.
_many = st.tuples(
    st.just("many"),
    st.lists(_grid_time, min_size=1, max_size=12).map(sorted),
    st.booleans(),
)

_program = st.lists(st.one_of(_one, _many), min_size=1, max_size=12)
_checkpoints = st.lists(_grid_time, max_size=3).map(sorted)


def _drive(loop, program):
    """Execute `program` against `loop`; return the firing log."""
    log = []

    def make_action(tag, children):
        def action():
            log.append((tag, loop.now))
            for delay, grandchildren in children:
                loop.schedule(delay, make_action((tag, "child", delay), grandchildren))

        return action

    for position, item in enumerate(program):
        if item[0] == "one":
            _, when, children = item
            loop.schedule_at(when, make_action(("one", position), children))
        else:
            _, times, spawn = item

            def fire(index, position=position, spawn=spawn):
                log.append((("many", position, index), loop.now))
                if spawn and index % 3 == 0:
                    loop.schedule(0.5, make_action(("many", position, index, "child"), []))

            for index, when in enumerate(times):
                loop.schedule_at(when, lambda index=index, fire=fire: fire(index))
    return log


@settings(max_examples=200, deadline=None)
@given(program=_program, checkpoints=_checkpoints)
def test_event_loop_matches_reference_heap(program, checkpoints):
    loops = (EventLoop(), ReferenceLoop())
    logs = []
    snapshots = []
    for loop in loops:
        log = _drive(loop, program)
        snaps = []
        for until in checkpoints:
            now = loop.run(until=until)
            snaps.append((now, loop.events_fired, loop.pending()))
        final = loop.run()
        snaps.append((final, loop.events_fired, loop.pending()))
        logs.append(log)
        snapshots.append(snaps)

    assert logs[0] == logs[1], "firing order diverged from the reference heap"
    assert snapshots[0] == snapshots[1]
    assert loops[0].pending() == 0
