"""The framework-integration adapter: relaying host-framework rounds into FLStore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core.flstore import build_default_flstore
from repro.integrations.adapter import FrameworkAdapter, RoundEvent


class TestFrameworkAdapter:
    @pytest.fixture()
    def adapter(self, small_config):
        flstore = build_default_flstore(small_config)
        return FrameworkAdapter(flstore)

    def _event(self, round_id, n_clients=4, dim=16, with_metrics=True):
        rng = np.random.default_rng(round_id)
        weights = {cid: rng.normal(size=dim) for cid in range(n_clients)}
        metrics = (
            {cid: {"local_accuracy": 0.5 + 0.05 * cid, "num_samples": 100 + cid} for cid in range(n_clients)}
            if with_metrics
            else {}
        )
        return RoundEvent(round_id=round_id, client_weights=weights, client_metrics=metrics)

    def test_round_event_is_ingested(self, adapter):
        record = adapter.on_round_complete(self._event(0))
        assert record.num_participants == 4
        assert adapter.flstore.catalog.has_round(0)
        assert adapter.rounds_relayed == 1
        # Updates carry the model's logical size even though the host
        # framework only handed over reduced vectors.
        assert record.updates[0].size_bytes == adapter.model_spec.size_bytes

    def test_fedavg_applied_when_no_aggregate_given(self, adapter):
        record = adapter.on_round_complete(self._event(0))
        stacked = np.stack([u.weights for u in record.updates.values()])
        assert np.all(record.aggregate.weights <= stacked.max(axis=0) + 1e-9)
        assert np.all(record.aggregate.weights >= stacked.min(axis=0) - 1e-9)

    def test_explicit_aggregate_is_respected(self, adapter):
        event = self._event(0)
        event.aggregate_weights = np.zeros(16)
        record = adapter.on_round_complete(event)
        assert np.allclose(record.aggregate.weights, 0.0)

    def test_metadata_defaults_when_metrics_missing(self, adapter):
        record = adapter.on_round_complete(self._event(0, with_metrics=False))
        assert all(m.num_samples >= 1 for m in record.metadata.values())

    def test_empty_round_rejected(self, adapter):
        with pytest.raises(ConfigurationError):
            adapter.on_round_complete(RoundEvent(round_id=0, client_weights={}))

    def test_relayed_rounds_can_be_served(self, adapter):
        for round_id in range(3):
            adapter.on_round_complete(self._event(round_id))
        flstore = adapter.flstore
        result = flstore.serve(flstore.make_request("cosine_similarity", round_id=2))
        assert result.cache_misses == 0
        assert len(result.result["clients"]) == 4
