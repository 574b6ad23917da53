"""Memoization of experiment setup products (simulated rounds, ingested systems).

Every ``run_*`` experiment starts from the same skeleton: simulate an FL job,
build one or more systems, and ingest the simulated rounds into each (see
:func:`repro.analysis.runner.prepare_setup`).  Simulation and ingestion are
deterministic functions of ``(config, seed, num_rounds, systems, policy_mode,
replication_factor)``, and related figures, sweep cells and scenario builds
ask for the same products over and over.

This module caches two products:

* **simulated rounds** — ``FLJobSimulator(config).run_rounds(num_rounds)``
  keyed on what the simulator reads: the job config, the seed and the round
  count.  Configs that differ only elsewhere (network, pricing, serverless
  knobs, cache policy) share one entry.  The cached records are treated as
  immutable by every consumer.
* **ingested system snapshots** — the fully built-and-ingested systems dict,
  stored pristine (never served against) and handed out as structural
  snapshots, so each experiment starts from exactly the state a fresh
  build-and-ingest would produce.  These are keyed on the whole config:
  ingest spawns functions whose slot limit comes from
  ``serverless.function_concurrency``.

A scenario tier calibrates on the same config its shards are built from
(:func:`repro.scenario.build.calibrate`), so one cold ``build_tier`` makes
exactly one rounds miss and one snapshot miss, and every shard is a
snapshot of that one master.

Snapshots are taken with a pickle round-trip that copies every piece of
mutable state (stores, indexes, policies, clocks, counters) but *shares* the
immutable payload objects — numpy weight arrays, :class:`ModelUpdate`,
:class:`RoundRecord`, metadata records, and :class:`DataKey` instances (all
frozen dataclasses that no consumer mutates).  That makes a snapshot an
order of magnitude cheaper than a ``deepcopy`` while remaining
behaviourally indistinguishable from a fresh build-and-ingest.

Both caches are process-local, bounded and always on.  :func:`clear` empties
them, which the benchmark (``bench/``) does before each cold set-up it times,
and :class:`SetupCacheStats` feeds its ``analysis.setup_cache.hits`` and
``analysis.setup_cache.misses`` metrics, so cache effectiveness is tracked
alongside request throughput.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fl.rounds import RoundRecord
    from repro.fl.trainer import FLJobSimulator

#: Upper bound on entries per cache; oldest entries are discarded first.
_MAX_ENTRIES = 32

_rounds_cache: dict[tuple, tuple["FLJobSimulator", list["RoundRecord"]]] = {}
#: Pristine masters: ``key -> (pickle bytes, shared payload list)``.
_snapshot_cache: dict[tuple, tuple[bytes, list]] = {}
_shared_types: frozenset[type] | None = None


def _shared_atom_types() -> frozenset[type]:
    """Immutable payload types shared (not copied) between snapshots."""
    global _shared_types
    if _shared_types is None:
        from repro.cloud.object_store import _StoredObject
        from repro.config import (
            CachePolicyConfig,
            FLJobConfig,
            NetworkConfig,
            PricingConfig,
            ServerlessConfig,
            SimulationConfig,
        )
        from repro.fl.keys import DataKey
        from repro.fl.metadata import ClientRoundMetadata, HyperParameters, ResourceProfile
        from repro.fl.models import ModelSpec, ModelUpdate
        from repro.fl.rounds import RoundRecord
        from repro.network.costs import TransferCostModel
        from repro.network.model import NetworkLink
        from repro.serverless.function import _ResidentObject
        from repro.simulation.records import CostBreakdown, LatencyBreakdown

        _shared_types = frozenset(
            {
                np.ndarray,
                ModelUpdate,
                RoundRecord,
                ClientRoundMetadata,
                HyperParameters,
                ResourceProfile,
                DataKey,
                # Store-record wrappers are written once at ingest and replaced
                # (never mutated in place) on overwrite, so snapshots can share
                # them; the dicts that hold them are still copied.
                _StoredObject,
                _ResidentObject,
                # Frozen configuration and model-zoo records.
                SimulationConfig,
                FLJobConfig,
                NetworkConfig,
                PricingConfig,
                ServerlessConfig,
                CachePolicyConfig,
                ModelSpec,
                NetworkLink,
                TransferCostModel,
                # Frozen accounting records (memoized per size/duration by
                # the cloud services).
                LatencyBreakdown,
                CostBreakdown,
            }
        )
    return _shared_types


def snapshot_dump(obj: Any) -> tuple[bytes, list]:
    """Serialise ``obj``'s mutable structure, sharing immutable payloads.

    Returns the pickle bytes plus the out-of-band list of shared payload
    objects (numpy arrays, frozen records).  The pair is a reusable pristine
    master: every :func:`snapshot_load` of it yields an independent copy of
    the mutable structure that still shares the payloads.
    """
    shared_types = _shared_atom_types()
    shared: list[Any] = []
    buffer = io.BytesIO()

    class _Pickler(pickle.Pickler):
        def persistent_id(self, item: Any) -> int | None:  # noqa: D102
            # Exact-type membership: the shared atoms are final classes, and
            # a frozenset probe is cheaper than an isinstance tuple scan on
            # the million-object graphs snapshots walk.
            if type(item) in shared_types:
                shared.append(item)
                return len(shared) - 1
            return None

    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue(), shared


def snapshot_load(blob: tuple[bytes, list]) -> Any:
    """Materialise one independent copy from a :func:`snapshot_dump` master."""
    data, shared = blob

    class _Unpickler(pickle.Unpickler):
        def persistent_load(self, pid: int) -> Any:  # noqa: D102
            return shared[pid]

    return _Unpickler(io.BytesIO(data)).load()


def snapshot_copy(obj: Any) -> Any:
    """Copy ``obj``'s mutable structure while sharing immutable payloads."""
    return snapshot_load(snapshot_dump(obj))


@dataclass
class SetupCacheStats:
    """Hit/miss counters of the setup cache (the bench's ``analysis.setup_cache.{hits,misses}``)."""

    rounds_hits: int = 0
    rounds_misses: int = 0
    snapshot_hits: int = 0
    snapshot_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


stats = SetupCacheStats()


def clear() -> None:
    """Drop every cached product and reset the hit/miss counters."""
    _rounds_cache.clear()
    _snapshot_cache.clear()
    stats.rounds_hits = stats.rounds_misses = 0
    stats.snapshot_hits = stats.snapshot_misses = 0


def _config_key(config: SimulationConfig) -> str:
    # SimulationConfig is a frozen dataclass tree of scalars; its repr is a
    # deterministic, collision-free encoding of every field (seed included).
    return repr(config)


def _trim(cache: dict) -> None:
    while len(cache) > _MAX_ENTRIES:
        cache.pop(next(iter(cache)))


def simulate_job(
    config: SimulationConfig, num_rounds: int
) -> tuple["FLJobSimulator", list["RoundRecord"]]:
    """Cached ``FLJobSimulator(config)`` plus its first ``num_rounds`` rounds.

    The simulator reads only ``config.job`` and ``config.seed``, so the entry
    is keyed on those and ``num_rounds``: a scenario tier's config and the
    paper config it extends with tier knobs share one simulated job.

    Both the simulator and the records are shared across callers and must not
    be mutated or advanced; experiment code only reads them (ingestion copies
    payloads into stores).
    """
    from repro.fl.trainer import FLJobSimulator

    key = (repr(config.job), config.seed, num_rounds)
    cached = _rounds_cache.get(key)
    if cached is not None:
        stats.rounds_hits += 1
        return cached
    stats.rounds_misses += 1
    simulator = FLJobSimulator(config)
    rounds = simulator.run_rounds(num_rounds)
    _rounds_cache[key] = (simulator, rounds)
    _trim(_rounds_cache)
    return simulator, rounds


def simulate_rounds(config: SimulationConfig, num_rounds: int) -> list["RoundRecord"]:
    """Cached simulated rounds (see :func:`simulate_job`)."""
    return simulate_job(config, num_rounds)[1]


def snapshot_key(
    config: SimulationConfig,
    num_rounds: int,
    systems: Sequence[str],
    policy_mode: str,
    replication_factor: int | None,
) -> tuple:
    """Cache key identifying one deterministic build-and-ingest product."""
    return (_config_key(config), num_rounds, tuple(systems), policy_mode, replication_factor)


def get_system_snapshots(key: tuple) -> dict[str, object] | None:
    """Return a snapshot of the pristine ingested systems for ``key``, if cached."""
    pristine = _snapshot_cache.get(key)
    if pristine is None:
        stats.snapshot_misses += 1
        return None
    stats.snapshot_hits += 1
    return snapshot_load(pristine)


def put_system_snapshots(key: tuple, systems: dict[str, object]) -> None:
    """Store freshly ingested ``systems`` as the pristine master for ``key``.

    The master is serialised immediately (one dump), so the caller keeps
    using — and mutating — the original object graph while every later
    :func:`get_system_snapshots` pays only the unpickle.
    """
    _snapshot_cache[key] = snapshot_dump(systems)
    _trim(_snapshot_cache)
