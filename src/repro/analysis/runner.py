"""Shared experiment plumbing: building systems, ingesting rounds, running traces.

Every figure/table experiment follows the same skeleton:

1. simulate an FL job to obtain the metadata stream
   (:class:`~repro.fl.trainer.FLJobSimulator`),
2. build the systems under comparison (FLStore variants and/or the two
   baselines), ingest the same rounds into each,
3. generate a non-training request trace from the job's round catalog,
4. serve the trace on every system and collect :class:`RequestRecord`s.

:func:`prepare_setup` performs steps 1-2 and :func:`run_trace` performs step 4
so the per-figure functions in :mod:`repro.analysis.experiments` stay small.

Steps 1-2 are deterministic in their parameters, so :func:`prepare_setup`
serves them from :mod:`repro.analysis.setup_cache`: simulated rounds are
memoized per ``(config, num_rounds)`` and fully ingested systems are handed
out as pristine snapshots, which makes re-running related figures cheap.
:func:`map_tasks` runs independent experiment tasks in parallel worker
processes when its caller passes ``workers`` > 1 (``repro.cli run
--parallel`` passes the CPU count to the runners that take ``workers``).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.analysis import setup_cache
from repro.baselines.cache_agg import CacheAggregator
from repro.baselines.objstore_agg import ObjStoreAggregator
from repro.config import SimulationConfig
from repro.core.flstore import FLStore, build_default_flstore
from repro.fl.rounds import RoundRecord
from repro.simulation.metrics import MetricsCollector, RequestRecord
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.base import WorkloadRequest

_T = TypeVar("_T")
_R = TypeVar("_R")


def map_tasks(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    workers: int | None = None,
) -> list[_R]:
    """Run ``fn`` over ``items``, in parallel processes when workers > 1.

    ``workers=None`` runs serially.  Results are returned in input order, so
    a parallel run produces the same rows as a serial one.  ``fn`` must be a
    module-level callable and the items picklable (experiment tasks take
    plain config tuples).  Each task is independent — experiments that share
    mutable state across items must not be parallelised.
    """
    workers = 1 if workers is None else int(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


#: Systems that :func:`prepare_setup` knows how to build.
KNOWN_SYSTEMS: tuple[str, ...] = ("flstore", "objstore-agg", "cache-agg")


@dataclass
class ExperimentSetup:
    """Everything a figure experiment needs: config, rounds, systems, trace generator."""

    config: SimulationConfig
    rounds: list[RoundRecord]
    systems: dict[str, object] = field(default_factory=dict)
    generator: RequestTraceGenerator | None = None

    @property
    def flstore(self) -> FLStore:
        """The FLStore instance (raises if not built)."""
        return self.systems["flstore"]

    @property
    def objstore_agg(self) -> ObjStoreAggregator:
        """The ObjStore-Agg baseline (raises if not built)."""
        return self.systems["objstore-agg"]

    @property
    def cache_agg(self) -> CacheAggregator:
        """The Cache-Agg baseline (raises if not built)."""
        return self.systems["cache-agg"]


def prepare_setup(
    config: SimulationConfig | None = None,
    num_rounds: int = 30,
    systems: Sequence[str] = KNOWN_SYSTEMS,
    policy_mode: str = "tailored",
) -> ExperimentSetup:
    """Simulate an FL job, build the requested systems, and ingest the rounds.

    Simulation and ingestion are memoized through
    :mod:`repro.analysis.setup_cache`: the simulated rounds are shared across
    setups with the same config, and the built-and-ingested systems are
    snapshotted so later calls with the same parameters skip the whole
    build-and-ingest phase.
    """
    config = config or SimulationConfig()
    rounds = setup_cache.simulate_rounds(config, num_rounds)

    cache_key = setup_cache.snapshot_key(config, num_rounds, systems, policy_mode)
    built = setup_cache.get_system_snapshots(cache_key)
    if built is None:
        built = {}
        for name in systems:
            if name == "flstore":
                built[name] = build_default_flstore(config, policy_mode=policy_mode)
            elif name == "objstore-agg":
                built[name] = ObjStoreAggregator(config)
            elif name == "cache-agg":
                built[name] = CacheAggregator(config)
            else:
                raise ValueError(f"unknown system {name!r}; expected one of {KNOWN_SYSTEMS}")

        for record in rounds:
            for system in built.values():
                system.ingest_round(record)
        # Serialise the freshly ingested systems into the pristine cache
        # master; the original graph stays with this caller (the master is
        # immutable bytes, so serving on the original is safe).
        setup_cache.put_system_snapshots(cache_key, built)

    catalog = next(iter(built.values())).catalog if built else None
    generator = RequestTraceGenerator(catalog, seed=config.seed) if catalog is not None else None
    return ExperimentSetup(config=config, rounds=rounds, systems=built, generator=generator)


def run_trace(
    system: object,
    requests: Iterable[WorkloadRequest],
    system_name: str | None = None,
    model_name: str | None = None,
    collector: MetricsCollector | None = None,
) -> list[RequestRecord]:
    """Serve ``requests`` on ``system`` and return one record per request."""
    name = system_name or getattr(system, "system_name", type(system).__name__)
    model = model_name or getattr(getattr(system, "model_spec", None), "name", "unknown")
    records: list[RequestRecord] = []
    for request in requests:
        result = system.serve(request)
        record = result.to_record(
            system=name, model_name=model, round_id=request.round_id, client_id=request.client_id
        )
        records.append(record)
        if collector is not None:
            collector.record(record)
    return records
