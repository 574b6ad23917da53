"""Shared fixtures for the FLStore reproduction test suite."""

from __future__ import annotations

import pytest

from repro.baselines.cache_agg import CacheAggregator
from repro.baselines.objstore_agg import ObjStoreAggregator
from repro.config import FLJobConfig, PricingConfig, SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.fl.trainer import FLJobSimulator
from repro.network.costs import TransferCostModel
from repro.network.model import NetworkTopology
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.registry import get_workload, list_workloads


@pytest.fixture(scope="session")
def small_config() -> SimulationConfig:
    """A laptop-scale configuration shared by most tests."""
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="session")
def job_config(small_config) -> FLJobConfig:
    return small_config.job


@pytest.fixture(scope="session")
def pricing() -> PricingConfig:
    return PricingConfig()


@pytest.fixture(scope="session")
def topology(small_config) -> NetworkTopology:
    return NetworkTopology(small_config.network)


@pytest.fixture(scope="session")
def cost_model(pricing) -> TransferCostModel:
    return TransferCostModel(pricing)


@pytest.fixture(scope="session")
def simulator(small_config) -> FLJobSimulator:
    """A simulator whose first ten rounds are shared (read-only) across tests."""
    return FLJobSimulator(small_config)


@pytest.fixture(scope="session")
def rounds(small_config):
    """Ten rounds of FL metadata produced by a dedicated simulator instance."""
    return FLJobSimulator(small_config).run_rounds(10)


@pytest.fixture()
def fresh_rounds(small_config):
    """Rounds from a brand-new simulator (for tests that mutate records)."""
    return FLJobSimulator(small_config).run_rounds(5)


@pytest.fixture()
def flstore(small_config, rounds):
    """A tailored-policy FLStore with ten rounds ingested."""
    system = build_default_flstore(small_config)
    for record in rounds:
        system.ingest_round(record)
    return system


@pytest.fixture()
def objstore_agg(small_config, rounds):
    """An ObjStore-Agg baseline with ten rounds ingested."""
    system = ObjStoreAggregator(small_config)
    for record in rounds:
        system.ingest_round(record)
    return system


@pytest.fixture()
def cache_agg(small_config, rounds):
    """A Cache-Agg baseline with ten rounds ingested."""
    system = CacheAggregator(small_config)
    for record in rounds:
        system.ingest_round(record)
    return system


@pytest.fixture()
def trace_generator(flstore):
    """A trace generator bound to the ingested FLStore catalog."""
    return RequestTraceGenerator(flstore.catalog, seed=3)


@pytest.fixture()
def compute_calls(monkeypatch) -> list[int]:
    """A live count of ``Workload.compute`` calls on every registered workload class."""
    counter = [0]
    # Patched on the classes: undoing a patch on an instance would leave a
    # bound method behind that shadows later class-level wrappers.
    for cls in {type(get_workload(name)) for name in list_workloads()}:
        original = cls.compute

        def counting(self, request, data, original=original):
            counter[0] += 1
            return original(self, request, data)

        monkeypatch.setattr(cls, "compute", counting)
    return counter
