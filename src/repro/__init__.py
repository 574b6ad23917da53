"""FLStore reproduction: efficient federated-learning storage for non-training workloads.

This package reproduces the system described in *FLStore: Efficient Federated
Learning Storage for non-training workloads* (MLSys 2025).  It contains:

* cloud substrates (object store, in-memory cache service, dedicated
  aggregator instance) with analytic latency and cost models,
* a serverless-function platform emulator,
* a federated-learning metadata substrate (model zoo, clients, rounds,
  simulated FL jobs),
* the ten non-training workloads evaluated in the paper,
* the FLStore core (cache engine, request tracker, serverless cache,
  tailored caching policies P1-P4, replication and fault tolerance),
* the two paper baselines (ObjStore-Agg and Cache-Agg),
* an analysis/experiment harness that regenerates every table and figure of
  the paper's evaluation, and
* the declarative scenario layer (:mod:`repro.scenario`): one typed,
  validated spec that builds, runs, and sweeps every serving-tier topology.

Quickstart
----------
>>> from repro import ScenarioSpec, run_scenario
>>> report = run_scenario(ScenarioSpec(num_rounds=3))  # doctest: +SKIP
>>> from repro import build_default_flstore, FLJobSimulator, SimulationConfig
>>> config = SimulationConfig.small()
>>> job = FLJobSimulator(config)
>>> rounds = job.run_rounds(5)
>>> flstore = build_default_flstore(config)
>>> for record in rounds:
...     _ = flstore.ingest_round(record)
>>> flstore.catalog.rounds()
[0, 1, 2, 3, 4]
"""

from repro.config import (
    FLJobConfig,
    PricingConfig,
    ServerlessConfig,
    SimulationConfig,
)
from repro.core.flstore import FLStore, ServeResult, build_default_flstore
from repro.engine.flstore import EngineFLStore
from repro.fl.trainer import FLJobSimulator
from repro.scenario import ScenarioSpec, ScenarioValidationError
from repro.scenario import run as run_scenario
from repro.scenario import sweep as sweep_scenarios
from repro.traces.arrivals import make_arrival_process
from repro.workloads.base import WorkloadRequest
from repro.workloads.registry import get_workload, list_workloads

__version__ = "1.0.0"

__all__ = [
    "EngineFLStore",
    "FLJobConfig",
    "FLJobSimulator",
    "FLStore",
    "PricingConfig",
    "ScenarioSpec",
    "ScenarioValidationError",
    "ServeResult",
    "ServerlessConfig",
    "SimulationConfig",
    "WorkloadRequest",
    "build_default_flstore",
    "get_workload",
    "list_workloads",
    "make_arrival_process",
    "run_scenario",
    "sweep_scenarios",
    "__version__",
]
