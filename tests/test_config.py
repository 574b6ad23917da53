"""Configuration dataclass validation and presets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.config import (
    CachePolicyConfig,
    FLJobConfig,
    NetworkConfig,
    PricingConfig,
    ServerlessConfig,
    SimulationConfig,
)


class TestFLJobConfig:
    def test_defaults_match_paper_setup(self):
        job = FLJobConfig()
        assert job.total_clients == 250
        assert job.clients_per_round == 10
        assert job.total_rounds == 1000
        assert job.model_name == "efficientnet_v2_small"

    def test_rejects_more_selected_than_total(self):
        with pytest.raises(ConfigurationError):
            FLJobConfig(total_clients=5, clients_per_round=10)

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ConfigurationError):
            FLJobConfig(total_rounds=0)

    def test_rejects_bad_malicious_fraction(self):
        with pytest.raises(ConfigurationError):
            FLJobConfig(malicious_fraction=1.0)

    def test_rejects_nonpositive_reduced_dim(self):
        with pytest.raises(ConfigurationError):
            FLJobConfig(reduced_dim=0)


class TestNetworkConfig:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(objstore_bandwidth_mb_per_s=0.0)

    def test_defaults_make_cache_faster_than_objstore(self):
        net = NetworkConfig()
        assert net.cache_bandwidth_mb_per_s > net.objstore_bandwidth_mb_per_s
        assert net.cache_rtt_seconds < net.objstore_rtt_seconds


class TestPricingConfig:
    def test_rejects_negative_prices(self):
        with pytest.raises(ConfigurationError):
            PricingConfig(aggregator_cost_per_hour=-1.0)

    def test_cache_hourly_exists(self):
        assert PricingConfig().cache_node_cost_per_hour > 0


class TestServerlessConfig:
    def test_rejects_default_memory_above_max(self):
        with pytest.raises(ConfigurationError):
            ServerlessConfig(default_function_memory_bytes=20 * 1024**3)

    def test_rejects_negative_replication(self):
        with pytest.raises(ConfigurationError):
            ServerlessConfig(replication_factor=-1)

    def test_lambda_limit_is_10gb(self):
        assert ServerlessConfig().max_function_memory_bytes == 10 * 1024**3


class TestCachePolicyConfig:
    def test_rejects_nonpositive_recent_rounds(self):
        with pytest.raises(ConfigurationError):
            CachePolicyConfig(metadata_recent_rounds=0)

    def test_rejects_bad_limited_fraction(self):
        with pytest.raises(ConfigurationError):
            CachePolicyConfig(limited_capacity_fraction=0.0)

    def test_default_recent_rounds_is_ten(self):
        assert CachePolicyConfig().metadata_recent_rounds == 10


class TestSimulationConfig:
    def test_small_preset_is_small(self):
        config = SimulationConfig.small()
        assert config.job.total_clients <= 50
        assert config.trace_num_requests <= 500

    def test_paper_preset_uses_requested_model(self):
        config = SimulationConfig.paper(model_name="resnet18")
        assert config.job.model_name == "resnet18"
        assert config.trace_duration_hours == 50.0
        assert config.trace_num_requests == 3000

    def test_with_model_returns_new_config(self):
        config = SimulationConfig.small()
        other = config.with_model("mobilenet_v3_small")
        assert other.job.model_name == "mobilenet_v3_small"
        assert config.job.model_name != "mobilenet_v3_small"

    def test_with_job_overrides_fields(self):
        config = SimulationConfig.small().with_job(total_clients=40, clients_per_round=4)
        assert config.job.total_clients == 40
        assert config.job.clients_per_round == 4

    def test_config_is_frozen(self):
        config = SimulationConfig.small()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1  # type: ignore[misc]
