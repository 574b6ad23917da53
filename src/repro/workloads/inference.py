"""Model inference / serving (policy P1).

Serves predictions from the latest aggregated model.  In the paper this is
the canonical P1 workload: only the final (or latest) aggregated model is
needed, so FLStore caches exactly that object.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.common.errors import WorkloadError
from repro.common.rng import derive_rng
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.models import ModelUpdate
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest


class InferenceWorkload(Workload):
    """Run a batch of predictions against the round's aggregated model."""

    name = "inference"
    display_name = "Inference"
    policy_class = PolicyClass.P1_INDIVIDUAL
    base_compute_seconds = 0.4
    per_item_compute_seconds = 0.6
    #: Each request draws its own input batch from its request id.
    memoizable = False

    def required_keys(self, request: WorkloadRequest, catalog: RoundCatalog) -> list[DataKey]:
        """Only the aggregated model of the requested round is needed."""
        del catalog
        return [DataKey.aggregate(request.round_id)]

    def compute(self, request: WorkloadRequest, data: Mapping[DataKey, Any]) -> dict[str, Any]:
        keys = [DataKey.aggregate(request.round_id)]
        self.validate_data(request, data, keys)
        aggregate: ModelUpdate = data[keys[0]]
        batch_size = int(request.params.get("batch_size", 64))
        if batch_size < 1:
            raise WorkloadError(f"request {request.request_id}: batch_size must be >= 1")
        rng = derive_rng(0, "inference-batch", request.request_id)
        # ``standard_normal`` draws what ``normal(0.0, 1.0)`` draws, and the
        # two means below are ``ndarray.mean()``'s sum over count without its
        # Python-level wrapper: the results are equal bit for bit.
        inputs = rng.standard_normal((batch_size, aggregate.dim))
        logits = inputs @ aggregate.weights
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        predictions = (probabilities >= 0.5).astype(int)
        return {
            "round_id": request.round_id,
            "batch_size": batch_size,
            "positive_fraction": int(np.count_nonzero(predictions)) / batch_size,
            "mean_confidence": float(np.add.reduce(np.abs(probabilities - 0.5)) / batch_size * 2.0),
            "predictions": predictions.tolist(),
        }
