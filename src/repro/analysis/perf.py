"""Garbage-collector tuning for experiment processes.

Experiment processes accumulate large, effectively immutable object graphs
(setup-cache masters, interned keys, simulated rounds), which Python's
generational GC rescans on every gen-2 collection.  Raising the collection
thresholds — the standard tuning for allocation-heavy batch jobs — removes
that overhead without changing any result.  The CLI and the benchmark
harness both apply it through :func:`tune_gc`.
"""

from __future__ import annotations

import gc

#: GC thresholds for experiment processes (default CPython is (700, 10, 10),
#: which rescans the setup caches' object graphs constantly).
_GC_THRESHOLDS = (200_000, 100, 100)


def tune_gc() -> None:
    """Raise GC thresholds for allocation-heavy experiment runs (idempotent)."""
    gc.set_threshold(*_GC_THRESHOLDS)
