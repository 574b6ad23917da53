"""Serverless function, platform, and fault injection."""

from __future__ import annotations

import pytest

from repro.common.errors import CapacityError, DataNotFoundError, FunctionReclaimedError
from repro.common.units import GB, MB
from repro.config import PricingConfig, ServerlessConfig
from repro.serverless.faults import ZipfianFaultInjector
from repro.serverless.function import FunctionState, ServerlessFunction
from repro.serverless.platform import ServerlessPlatform


@pytest.fixture()
def function():
    return ServerlessFunction("fn-test", memory_limit_bytes=1 * GB)


@pytest.fixture()
def platform():
    return ServerlessPlatform(ServerlessConfig(), PricingConfig())


class TestServerlessFunction:
    def test_store_and_load(self, function):
        function.store("key", {"x": 1}, size_bytes=10 * MB)
        assert function.load("key") == {"x": 1}
        assert function.holds("key")
        assert function.used_bytes == 10 * MB

    def test_capacity_enforced(self, function):
        with pytest.raises(CapacityError):
            function.store("big", b"", size_bytes=2 * GB)

    def test_overwrite_reuses_space(self, function):
        function.store("k", b"", size_bytes=900 * MB)
        # Replacing the same key should not double-count its old size.
        function.store("k", b"", size_bytes=950 * MB)
        assert function.used_bytes == 950 * MB

    def test_load_missing_raises(self, function):
        with pytest.raises(DataNotFoundError):
            function.load("missing")

    def test_evict(self, function):
        function.store("k", b"", size_bytes=1 * MB)
        assert function.evict("k") is True
        assert function.evict("k") is False
        assert function.free_bytes == function.memory_limit_bytes

    def test_reclaim_loses_memory(self, function):
        function.store("k", b"", size_bytes=1 * MB)
        function.reclaim()
        assert function.state is FunctionState.RECLAIMED
        assert not function.is_warm
        with pytest.raises(FunctionReclaimedError):
            function.load("k")

    def test_restore_starts_empty(self, function):
        function.store("k", b"", size_bytes=1 * MB)
        function.reclaim()
        function.restore()
        assert function.is_warm
        assert len(function) == 0

    def test_record_invocation_tracks_stats(self, function):
        function.record_invocation(now=1.0, busy_seconds=2.0)
        function.record_invocation(now=3.0)
        assert function.stats.invocations == 2
        assert function.stats.executions == 1
        assert function.last_invoked_at == 3.0

    def test_size_of_and_resident_keys(self, function):
        function.store("a", b"", size_bytes=5)
        assert function.size_of("a") == 5
        assert list(function.resident_keys()) == ["a"]

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            ServerlessFunction("fn", memory_limit_bytes=0)


class TestServerlessPlatform:
    def test_spawn_assigns_unique_ids_and_cold_start(self, platform):
        f1, r1 = platform.spawn_function()
        f2, _ = platform.spawn_function()
        assert f1.function_id != f2.function_id
        assert r1.latency.cold_start_seconds > 0
        assert platform.warm_count == 2

    def test_spawn_rejects_oversized_memory(self, platform):
        with pytest.raises(ValueError):
            platform.spawn_function(memory_bytes=64 * GB)

    def test_spawn_respects_max_warm_functions(self):
        platform = ServerlessPlatform(ServerlessConfig(max_warm_functions=2), PricingConfig())
        first, _ = platform.spawn_function()
        platform.spawn_function()
        with pytest.raises(RuntimeError):
            platform.spawn_function()
        # A reclaimed function holds no warm capacity, so it frees a slot.
        platform.reclaim_function(first.function_id)
        platform.spawn_function()
        with pytest.raises(RuntimeError):
            platform.spawn_function()

    def test_invoke_bills_gb_seconds(self, platform):
        function, _ = platform.spawn_function(memory_bytes=4 * GB)
        result = platform.invoke(function.function_id, busy_seconds=10.0)
        assert result.latency.computation_seconds == pytest.approx(10.0)
        expected = 4.0 * 10.0 * platform.pricing.lambda_cost_per_gb_second
        assert result.cost.compute_dollars == pytest.approx(expected)

    def test_invoke_reclaimed_raises(self, platform):
        function, _ = platform.spawn_function()
        platform.reclaim_function(function.function_id)
        with pytest.raises(FunctionReclaimedError):
            platform.invoke(function.function_id, busy_seconds=1.0)

    def test_invoke_unknown_raises(self, platform):
        with pytest.raises(DataNotFoundError):
            platform.invoke("fn-9999", busy_seconds=1.0)

    def test_reclaim_and_restore(self, platform):
        function, _ = platform.spawn_function()
        platform.reclaim_function(function.function_id)
        assert platform.warm_count == 0
        platform.restore_function(function.function_id)
        assert platform.warm_count == 1

    def test_ping_keeps_function_warm(self, platform):
        function, _ = platform.spawn_function()
        platform.ping(function.function_id)
        assert platform.get_function(function.function_id).stats.invocations == 1

    def test_keepalive_cost_scales_with_duration(self, platform):
        platform.spawn_function()
        short = platform.keepalive_cost(1.0).provisioned_dollars
        long = platform.keepalive_cost(100.0).provisioned_dollars
        assert long == pytest.approx(100 * short)

    def test_total_cached_bytes(self, platform):
        function, _ = platform.spawn_function()
        function.store("k", b"", size_bytes=25 * MB)
        assert platform.total_cached_bytes == 25 * MB

    def test_invoke_rejects_negative_busy_seconds(self, platform):
        function, _ = platform.spawn_function()
        with pytest.raises(ValueError):
            platform.invoke(function.function_id, busy_seconds=-1.0)


class TestZipfianFaultInjector:
    def test_zero_rate_never_reclaims(self):
        injector = ZipfianFaultInjector(fault_rate=0.0, seed=1)
        assert injector.sample_reclamations(["a", "b"]) == []
        assert injector.total_faults == 0

    def test_full_rate_always_reclaims_something(self):
        injector = ZipfianFaultInjector(fault_rate=1.0, seed=1)
        reclaimed = injector.sample_reclamations(["a", "b", "c"])
        assert len(reclaimed) >= 1
        assert set(reclaimed) <= {"a", "b", "c"}

    def test_empty_candidates(self):
        injector = ZipfianFaultInjector(fault_rate=1.0, seed=1)
        assert injector.sample_reclamations([]) == []

    def test_deterministic_given_seed(self):
        a = ZipfianFaultInjector(fault_rate=0.5, seed=3)
        b = ZipfianFaultInjector(fault_rate=0.5, seed=3)
        candidates = [f"fn-{i}" for i in range(10)]
        assert [a.sample_reclamations(candidates) for _ in range(20)] == [
            b.sample_reclamations(candidates) for _ in range(20)
        ]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ZipfianFaultInjector(fault_rate=1.5)
        with pytest.raises(ValueError):
            ZipfianFaultInjector(zipf_exponent=1.0)

    def test_reset_clears_events(self):
        injector = ZipfianFaultInjector(fault_rate=1.0, seed=2)
        injector.sample_reclamations(["a"])
        injector.reset()
        assert injector.total_faults == 0

    def test_fault_rate_roughly_respected(self):
        injector = ZipfianFaultInjector(fault_rate=0.2, seed=5)
        candidates = [f"fn-{i}" for i in range(4)]
        faulty_steps = sum(bool(injector.sample_reclamations(candidates)) for _ in range(500))
        assert 50 <= faulty_steps <= 150
