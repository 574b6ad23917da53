"""The non-training workloads: data requirements, computations, taxonomy registry."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.common.errors import WorkloadError
from repro.common.rng import derive_rng
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.models import ModelUpdate, get_model_spec
from repro.workloads.base import PolicyClass, Workload, WorkloadRequest
from repro.workloads.clustering import kmeans
from repro.workloads.cosine_similarity import pairwise_cosine
from repro.workloads.registry import (
    EVALUATION_WORKLOADS,
    TAXONOMY,
    WORKLOAD_DISPLAY_NAMES,
    get_workload,
    list_workloads,
    policy_for_workload,
    register_workload,
)


@pytest.fixture(scope="module")
def catalog(rounds):
    catalog = RoundCatalog()
    for record in rounds:
        catalog.register_round(record)
    return catalog


@pytest.fixture(scope="module")
def rounds_by_id(rounds):
    return {record.round_id: record for record in rounds}


def _data_for(workload, request, catalog, rounds_by_id):
    """Gather the objects a request needs straight from the round records."""
    data = {}
    for key in workload.required_keys(request, catalog):
        record = rounds_by_id.get(key.round_id)
        if record is None:
            continue
        try:
            data[key] = record.get(key)
        except KeyError:
            continue
    return data


def _inference_before_the_rewrite(request, aggregate):
    """Inference's result as computed with ``rng.normal`` and ``ndarray.mean``."""
    batch_size = int(request.params.get("batch_size", 64))
    rng = derive_rng(0, "inference-batch", request.request_id)
    inputs = rng.normal(0.0, 1.0, size=(batch_size, aggregate.dim))
    logits = inputs @ aggregate.weights
    probabilities = 1.0 / (1.0 + np.exp(-logits))
    predictions = (probabilities >= 0.5).astype(int)
    return {
        "round_id": request.round_id,
        "batch_size": batch_size,
        "positive_fraction": float(predictions.mean()),
        "mean_confidence": float(np.abs(probabilities - 0.5).mean() * 2.0),
        "predictions": predictions.tolist(),
    }


def _request(workload, round_id, client_id=None, **params):
    return WorkloadRequest(
        request_id=f"t-{workload}-{round_id}",
        workload=workload,
        round_id=round_id,
        client_id=client_id,
        params=params,
    )


class TestRegistry:
    def test_all_ten_evaluation_workloads_registered(self):
        assert set(EVALUATION_WORKLOADS) <= set(list_workloads())
        assert len(EVALUATION_WORKLOADS) == 10

    def test_taxonomy_matches_table1(self):
        assert TAXONOMY["inference"] == "P1"
        assert TAXONOMY["malicious_filtering"] == "P2"
        assert TAXONOMY["clustering"] == "P2"
        assert TAXONOMY["personalization"] == "P2"
        assert TAXONOMY["cosine_similarity"] == "P2"
        assert TAXONOMY["reputation"] == "P2"
        assert TAXONOMY["scheduling_cluster"] == "P2"
        assert TAXONOMY["debugging"] == "P3"
        assert TAXONOMY["incentives"] == "P4"
        assert TAXONOMY["scheduling_perf"] == "P4"
        assert TAXONOMY["hyperparameter_tuning"] == "P4"

    def test_display_names_present(self):
        assert WORKLOAD_DISPLAY_NAMES["scheduling_cluster"] == "Sched. (Cluster)"
        assert WORKLOAD_DISPLAY_NAMES["cosine_similarity"] == "Cosine similarity"

    def test_get_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("no-such-workload")

    def test_policy_for_workload(self):
        assert policy_for_workload("debugging") is PolicyClass.P3_ACROSS_ROUNDS

    def test_register_rejects_duplicates_unless_replace(self):
        class Custom(Workload):
            name = "inference"
            policy_class = PolicyClass.P1_INDIVIDUAL

            def required_keys(self, request, catalog):
                return []

            def compute(self, request, data):
                return {}

        with pytest.raises(ValueError):
            register_workload(Custom())
        # Replacing and restoring keeps the registry intact for other tests.
        original = get_workload("inference")
        register_workload(Custom(), replace=True)
        assert isinstance(get_workload("inference"), Custom)
        register_workload(original, replace=True)


class TestComputeTimeModel:
    def test_scales_with_items_and_model_size(self):
        workload = get_workload("malicious_filtering")
        small_model = get_model_spec("mobilenet_v3_small")
        big_model = get_model_spec("swin_transformer_v2_tiny")
        assert workload.compute_seconds(big_model, 10) > workload.compute_seconds(small_model, 10)
        assert workload.compute_seconds(big_model, 20) > workload.compute_seconds(big_model, 10)

    def test_average_compute_in_paper_ballpark(self):
        # Figure 4: average computation latency across workloads ~2.8 s for
        # the evaluation models with ~10 client updates per round.
        spec = get_model_spec("efficientnet_v2_small")
        times = [get_workload(name).compute_seconds(spec, 10) for name in EVALUATION_WORKLOADS]
        assert 1.0 <= float(np.mean(times)) <= 6.0

    def test_clustering_is_heaviest_p2_workload(self):
        spec = get_model_spec("efficientnet_v2_small")
        clustering = get_workload("clustering").compute_seconds(spec, 10)
        cosine = get_workload("cosine_similarity").compute_seconds(spec, 10)
        assert clustering > 10 * cosine


class TestRequiredKeys:
    def test_p2_workloads_need_all_round_updates(self, catalog):
        for name in ("malicious_filtering", "clustering", "cosine_similarity", "reputation"):
            workload = get_workload(name)
            keys = workload.required_keys(_request(name, 3), catalog)
            update_keys = [k for k in keys if k.is_update]
            assert {k.client_id for k in update_keys} == set(catalog.participants(3))
            assert all(k.round_id == 3 for k in update_keys)

    def test_inference_needs_only_aggregate(self, catalog):
        keys = get_workload("inference").required_keys(_request("inference", 5), catalog)
        assert keys == [DataKey.aggregate(5)]

    def test_debugging_follows_one_client(self, catalog):
        client = catalog.participants(4)[0]
        keys = get_workload("debugging").required_keys(
            _request("debugging", 4, client_id=client), catalog
        )
        assert all(k.client_id == client for k in keys if k.is_update)
        assert any(k.is_aggregate for k in keys)

    def test_debugging_without_client_falls_back_to_participant(self, catalog):
        keys = get_workload("debugging").required_keys(_request("debugging", 4), catalog)
        assert any(k.is_update for k in keys)

    def test_p4_workloads_need_recent_metadata_only(self, catalog):
        for name in ("incentives", "scheduling_perf", "hyperparameter_tuning"):
            keys = get_workload(name).required_keys(_request(name, 9, recent_rounds=3), catalog)
            assert keys
            assert all(k.is_metadata for k in keys)
            assert {k.round_id for k in keys} <= {7, 8, 9}

    def test_personalization_also_needs_aggregate(self, catalog):
        keys = get_workload("personalization").required_keys(_request("personalization", 2), catalog)
        assert DataKey.aggregate(2) in keys


class TestComputations:
    def test_inference_produces_predictions(self, catalog, rounds_by_id):
        workload = get_workload("inference")
        request = _request("inference", 3, batch_size=32)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert result["batch_size"] == 32
        assert len(result["predictions"]) == 32
        assert 0.0 <= result["positive_fraction"] <= 1.0

    def test_inference_equals_its_formula_before_the_rewrite(self):
        """``standard_normal`` and the wrapper-free means change no bit of a result."""
        workload = get_workload("inference")
        cases = np.random.default_rng(2024)
        for case in range(2500):
            dim = int(cases.integers(1, 97))
            scale = float(cases.choice([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]))
            round_id = int(cases.integers(0, 50))
            aggregate = ModelUpdate(-1, round_id, "resnet18", cases.standard_normal(dim) * scale, 1)
            params = {} if case % 5 == 0 else {"batch_size": int(cases.integers(1, 129))}
            request_id = f"req-{int(cases.integers(0, 10**6)):06d}" if case % 2 else f"t{case}"
            request = WorkloadRequest(request_id, "inference", round_id, params=params)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the saturated sigmoid warns no more
                result = workload.compute(request, {DataKey.aggregate(round_id): aggregate})
            with np.errstate(over="ignore"):  # the largest scale saturates the sigmoid
                expected = _inference_before_the_rewrite(request, aggregate)
            assert result == expected
            assert [type(value) for value in result.values()] == [
                type(value) for value in expected.values()
            ]
            assert pickle.dumps(result) == pickle.dumps(expected)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_inference_rejects_a_batch_below_one(self, catalog, rounds_by_id, batch_size):
        workload = get_workload("inference")
        request = _request("inference", 3, batch_size=batch_size)
        data = _data_for(workload, request, catalog, rounds_by_id)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-mean warning included
            with pytest.raises(WorkloadError, match=f"request {request.request_id}: batch_size"):
                workload.compute(request, data)

    def test_inference_batch_does_not_depend_on_the_hash_seed(self):
        """The batch is drawn from the request id, never from salted ``hash()``."""
        script = (
            "import json, numpy as np\n"
            "from repro.fl.keys import DataKey\n"
            "from repro.fl.models import ModelUpdate\n"
            "from repro.workloads.base import WorkloadRequest\n"
            "from repro.workloads.registry import get_workload\n"
            "model = ModelUpdate(-1, 0, 'resnet18', np.linspace(-1.0, 1.0, 16), 1)\n"
            "request = WorkloadRequest('req-000001', 'inference', 0)\n"
            "result = get_workload('inference').compute(request, {DataKey.aggregate(0): model})\n"
            "print(json.dumps(result['predictions']))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        predictions = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            predictions.append(json.loads(out.stdout))
        assert predictions[0] == predictions[1]
        assert len(predictions[0]) == 64

    def test_cosine_similarity_matrix_properties(self, catalog, rounds_by_id):
        workload = get_workload("cosine_similarity")
        request = _request("cosine_similarity", 2)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        matrix = np.array(result["similarity_matrix"])
        assert matrix.shape[0] == matrix.shape[1] == len(result["clients"])
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-9)
        assert np.all(matrix <= 1.0 + 1e-9) and np.all(matrix >= -1.0 - 1e-9)

    def test_clustering_assigns_every_client(self, catalog, rounds_by_id):
        workload = get_workload("clustering")
        request = _request("clustering", 2, num_clusters=3)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert set(result["assignments"]) == set(catalog.participants(2))
        assert sum(result["cluster_sizes"]) == len(result["assignments"])
        assert result["inertia"] >= 0

    def test_personalization_groups_cover_participants(self, catalog, rounds_by_id):
        workload = get_workload("personalization")
        request = _request("personalization", 2, num_groups=2)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        grouped = sorted(cid for members in result["groups"].values() for cid in members)
        assert grouped == sorted(catalog.participants(2))

    def test_malicious_filtering_scores_every_client(self, catalog, rounds_by_id):
        workload = get_workload("malicious_filtering")
        request = _request("malicious_filtering", 2)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert set(result["scores"]) == set(catalog.participants(2))
        assert set(result["flagged_clients"]) <= set(catalog.participants(2))

    def test_reputation_in_unit_interval(self, catalog, rounds_by_id):
        workload = get_workload("reputation")
        request = _request("reputation", 2)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert result["reputations"]
        assert all(0.0 <= v <= 1.0 for v in result["reputations"].values())
        assert result["top_client"] in result["reputations"]

    def test_debugging_reports_drift(self, catalog, rounds_by_id):
        client = catalog.participants(5)[0]
        workload = get_workload("debugging")
        request = _request("debugging", 5, client_id=client)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert result["client_id"] == client
        assert len(result["update_norms"]) == len(result["rounds"])

    def test_incentives_respect_budget(self, catalog, rounds_by_id):
        workload = get_workload("incentives")
        request = _request("incentives", 9, budget_dollars=50.0)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert result["payouts"]
        assert sum(result["payouts"].values()) == pytest.approx(50.0, rel=1e-6)
        assert all(p >= 0 for p in result["payouts"].values())

    def test_scheduling_cluster_builds_tiers(self, catalog, rounds_by_id):
        workload = get_workload("scheduling_cluster")
        request = _request("scheduling_cluster", 2, num_tiers=2)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        tiered = sorted(cid for members in result["tiers"].values() for cid in members)
        assert tiered == sorted(catalog.participants(2))
        assert sorted(result["schedule"]) == tiered

    def test_scheduling_perf_selects_requested_count(self, catalog, rounds_by_id):
        workload = get_workload("scheduling_perf")
        request = _request("scheduling_perf", 9, clients_to_select=3)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert len(result["selected_clients"]) <= 3
        assert set(result["selected_clients"]) <= set(result["scores"])

    def test_hyperparameter_tuning_recommends_config(self, catalog, rounds_by_id):
        workload = get_workload("hyperparameter_tuning")
        request = _request("hyperparameter_tuning", 9)
        result = workload.compute(request, _data_for(workload, request, catalog, rounds_by_id))
        assert "learning_rate" in result["recommended"]
        assert result["num_configurations"] >= 1

    def test_missing_data_raises_or_degrades(self, catalog):
        workload = get_workload("inference")
        request = _request("inference", 3)
        with pytest.raises(WorkloadError):
            workload.compute(request, {})

    def test_empty_round_returns_empty_results(self):
        workload = get_workload("clustering")
        request = _request("clustering", 0)
        assert workload.compute(request, {}) == {
            "round_id": 0,
            "assignments": {},
            "num_clusters": 0,
        }


class TestNumericHelpers:
    def test_pairwise_cosine_identity(self):
        matrix = np.eye(3)
        similarity = pairwise_cosine(matrix)
        np.testing.assert_allclose(np.diag(similarity), 1.0)
        assert similarity[0, 1] == pytest.approx(0.0)

    def test_pairwise_cosine_handles_zero_rows(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        similarity = pairwise_cosine(matrix)
        assert np.isfinite(similarity).all()

    def test_kmeans_recovers_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(20, 4))
        b = rng.normal(5.0, 0.1, size=(20, 4))
        labels, centers = kmeans(np.vstack([a, b]), k=2, seed=1)
        assert centers.shape == (2, 4)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_kmeans_caps_k_at_number_of_points(self):
        labels, centers = kmeans(np.zeros((3, 2)), k=10, seed=1)
        assert centers.shape[0] <= 3
        assert len(labels) == 3


class TestWorkloadRequestValidation:
    def test_rejects_negative_round(self):
        with pytest.raises(WorkloadError):
            WorkloadRequest(request_id="x", workload="inference", round_id=-1)

    def test_rejects_zero_history(self):
        with pytest.raises(WorkloadError):
            WorkloadRequest(request_id="x", workload="debugging", round_id=0, history_rounds=0)
