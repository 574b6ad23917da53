"""Machine-speed reference: scale timings to a machine of fixed speed.

On a shared host the speed available to one process drifts by 10-50 %,
as neighbours start and stop; a slow spell can last seconds or minutes,
longer than one benchmark run, so medians over repeats cannot remove it.
The benchmark therefore times a fixed reference job between every two
timed operations and scales each operation by how fast the reference ran
next to it:

    scaled = seconds * REFERENCE_S / mean(reference just before, reference just after)

The reference job is interpreter-bound like the simulator (tuple-keyed
dict lookups, a heap, a keyed sort over a few MB) and never calls the
program, so a change to the program moves the scaled time and a change in
machine speed mostly does not.  Scaled times read as seconds on a machine
that runs the reference job in ``REFERENCE_S``; raw times are reported
beside them.

The job's working set is built once, when the :class:`Pacer` is made, and
each run allocates little, so it adds a constant to the process's RSS
instead of raising the peak above the program's own.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from operator import itemgetter

#: Seconds the reference job is scaled to (about its time on a quiet
#: 2-core Xeon VM at 2.0 GHz under Python 3.11).  The job is short so that
#: it samples the machine's speed close to the operation it brackets; five
#: times longer tracked no better.
REFERENCE_S = 0.018
_KEYS = 20_000
_HEAP = 2_000


class ReferenceJob:
    """A fixed interpreter-bound job over a working set built once."""

    def __init__(self) -> None:
        self.keys = [(i, i * 7 % 1009) for i in range(_KEYS)]
        self.table = {key: [key[0], key[0] * 0.5] for key in self.keys}

    def __call__(self) -> int:
        """Run the job once; returns a checksum so nothing is skipped."""
        rng = random.Random(0)
        heap: list[tuple[float, int]] = []
        total = 0
        for key in self.keys:
            heapq.heappush(heap, (rng.random(), self.table[key][0]))
            if len(heap) > _HEAP:
                total += heapq.heappop(heap)[1]
        for key in sorted(self.keys, key=itemgetter(1))[::7]:
            total += self.table[key][0]
        return total


class Pacer:
    """Scale factors from the reference jobs run between timed operations.

    A disabled pacer (smoke runs, where only counts and checks matter) runs
    no reference job and scales by 1.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.job = ReferenceJob() if enabled else None
        self.references: list[float] = []
        self.restart()

    def _reference_seconds(self) -> float:
        if self.job is None:
            return REFERENCE_S
        gc.collect()
        start = time.perf_counter()
        self.job()
        return time.perf_counter() - start

    def restart(self) -> None:
        """Run a reference job right before the next timed operation."""
        self.references.append(self._reference_seconds())

    def factor(self) -> float:
        """The scale factor of the operation run since the last reference job."""
        before = self.references[-1]
        self.restart()
        return REFERENCE_S / ((before + self.references[-1]) / 2)
