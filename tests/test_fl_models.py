"""Model zoo, model updates, metadata, and keys."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.analysis import setup_cache
from repro.common.errors import ConfigurationError
from repro.fl.keys import DataKey, DataKind
from repro.fl.metadata import ClientRoundMetadata, HyperParameters, ResourceProfile
from repro.fl.models import (
    EVALUATION_MODELS,
    MODEL_ZOO,
    ModelSpec,
    ModelUpdate,
    average_model_size_mb,
    get_model_spec,
)


def _update(client_id=0, round_id=0, dim=8, value=1.0, model="resnet18"):
    return ModelUpdate(
        client_id=client_id,
        round_id=round_id,
        model_name=model,
        weights=np.full(dim, value, dtype=float),
        size_bytes=get_model_spec(model).size_bytes,
        metrics={"num_samples": 10},
    )


class TestModelZoo:
    def test_has_23_models(self):
        assert len(MODEL_ZOO) == 23

    def test_average_size_close_to_paper(self):
        # The paper reports an average of ~161 MB for the same catalogue.
        assert 120 <= average_model_size_mb() <= 200

    def test_every_model_fits_in_a_lambda_function(self):
        for spec in MODEL_ZOO.values():
            assert spec.size_mb < 10 * 1024

    def test_evaluation_models_are_in_zoo(self):
        for name in EVALUATION_MODELS:
            assert name in MODEL_ZOO

    def test_get_model_spec_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model_spec("gpt-17")

    def test_size_bytes_consistent_with_mb(self):
        spec = get_model_spec("resnet18")
        assert spec.size_bytes == pytest.approx(spec.size_mb * 1024 * 1024, rel=1e-6)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(name="bad", size_mb=0.0, params_millions=1.0)


class TestModelUpdate:
    def test_requires_1d_weights(self):
        with pytest.raises(ConfigurationError):
            ModelUpdate(0, 0, "resnet18", np.zeros((2, 2)), size_bytes=10)

    def test_requires_positive_size(self):
        with pytest.raises(ConfigurationError):
            ModelUpdate(0, 0, "resnet18", np.zeros(4), size_bytes=0)

    def test_aggregate_flag(self):
        assert _update(client_id=-1).is_aggregate
        assert not _update(client_id=3).is_aggregate

    def test_norm_and_distance(self):
        a = _update(value=0.0)
        b = _update(value=1.0)
        assert a.l2_norm() == 0.0
        assert b.distance_to(a) == pytest.approx(np.sqrt(8.0))

    def test_cosine_similarity_bounds(self):
        a = _update(value=1.0)
        b = _update(value=2.0)
        assert a.cosine_similarity(b) == pytest.approx(1.0)
        zero = _update(value=0.0)
        assert a.cosine_similarity(zero) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            _update(dim=8).distance_to(_update(dim=4))
        with pytest.raises(ValueError):
            _update(dim=8).cosine_similarity(_update(dim=4))


class TestMetadata:
    def test_hyperparameters_validation(self):
        with pytest.raises(ConfigurationError):
            HyperParameters(learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            HyperParameters(local_epochs=0)

    def test_hyperparameters_as_dict(self):
        d = HyperParameters().as_dict()
        assert d["optimizer"] == "sgd"
        assert "learning_rate" in d

    def test_resource_profile_validation(self):
        with pytest.raises(ConfigurationError):
            ResourceProfile(cpu_ghz=0.0)
        with pytest.raises(ConfigurationError):
            ResourceProfile(availability=2.0)

    def test_capability_score_monotone_in_cpu(self):
        slow = ResourceProfile(cpu_ghz=1.0)
        fast = ResourceProfile(cpu_ghz=3.0)
        assert fast.capability_score() > slow.capability_score()

    def test_client_round_metadata(self):
        meta = ClientRoundMetadata(
            client_id=1,
            round_id=2,
            hyperparameters=HyperParameters(),
            resources=ResourceProfile(),
            local_accuracy=0.8,
            train_seconds=30.0,
            upload_seconds=5.0,
        )
        assert meta.round_duration_seconds == pytest.approx(35.0)
        assert meta.size_bytes > 0

    def test_metadata_validation(self):
        with pytest.raises(ConfigurationError):
            ClientRoundMetadata(
                client_id=1,
                round_id=2,
                hyperparameters=HyperParameters(),
                resources=ResourceProfile(),
                local_accuracy=1.5,
            )


class TestDataKey:
    def test_factories(self):
        update = DataKey.update(3, 7)
        assert update.kind is DataKind.CLIENT_UPDATE and update.is_update
        aggregate = DataKey.aggregate(7)
        assert aggregate.is_aggregate and aggregate.client_id == -1
        metadata = DataKey.metadata(3, 7)
        assert metadata.is_metadata

    def test_keys_are_hashable_and_comparable(self):
        keys = {DataKey.update(1, 1), DataKey.update(1, 1), DataKey.update(2, 1)}
        assert len(keys) == 2
        assert DataKey.update(1, 0) < DataKey.update(1, 1) or DataKey.update(1, 1) < DataKey.update(1, 0)

    def test_string_representation(self):
        assert "aggregate" in str(DataKey.aggregate(4))
        assert "c3" in str(DataKey.update(3, 4))

    # Identity is equality: one instance per (kind, round_id, client_id),
    # however the key is made, so lookups hash and compare keys in C.
    FACTORY_KEYS = {
        DataKind.CLIENT_UPDATE: lambda: DataKey.update(3, 7),
        DataKind.AGGREGATE: lambda: DataKey.aggregate(7),
        DataKind.METADATA: lambda: DataKey.metadata(3, 7),
    }

    @pytest.mark.parametrize("kind", list(DataKind))
    def test_constructor_returns_the_factory_instance(self, kind):
        key = self.FACTORY_KEYS[kind]()
        assert DataKey(kind, key.round_id, key.client_id) is key
        assert DataKey(kind=kind, round_id=key.round_id, client_id=key.client_id) is key
        assert self.FACTORY_KEYS[kind]() is key

    @pytest.mark.parametrize("kind", list(DataKind))
    def test_pickle_and_copies_return_the_same_instance(self, kind):
        key = self.FACTORY_KEYS[kind]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(key, protocol=protocol)) is key
        assert copy.copy(key) is key
        assert copy.deepcopy(key) is key
        mapping = {key: "value"}
        for copied in (
            copy.copy(mapping),
            copy.deepcopy(mapping),
            pickle.loads(pickle.dumps(mapping)),
            setup_cache.snapshot_copy(mapping),
        ):
            assert copied is not mapping
            assert next(iter(copied)) is key

    def test_equality_and_hash_are_objects_identity(self):
        # Re-adding a Python-level hash or equality (or ``@dataclass``, which
        # generates both) would put a Python frame back into every lookup.
        assert DataKey.__hash__ is object.__hash__
        assert DataKey.__eq__ is object.__eq__

    @pytest.mark.parametrize("kind", list(DataKind))
    def test_fields_are_read_only(self, kind):
        key = self.FACTORY_KEYS[kind]()
        for name, value in (("kind", DataKind.METADATA), ("round_id", 99), ("client_id", 99)):
            with pytest.raises(AttributeError):
                setattr(key, name, value)
            with pytest.raises(AttributeError):
                delattr(key, name)
        assert (key.round_id, key.client_id) == (7, -1 if kind is DataKind.AGGREGATE else 3)

    @pytest.mark.parametrize(
        "kind, text, representation",
        [
            (
                DataKind.CLIENT_UPDATE,
                "client_update/c3/r7",
                "DataKey(kind=<DataKind.CLIENT_UPDATE: 'client_update'>, round_id=7, client_id=3)",
            ),
            (
                DataKind.AGGREGATE,
                "aggregate/r7",
                "DataKey(kind=<DataKind.AGGREGATE: 'aggregate'>, round_id=7, client_id=-1)",
            ),
            (
                DataKind.METADATA,
                "metadata/c3/r7",
                "DataKey(kind=<DataKind.METADATA: 'metadata'>, round_id=7, client_id=3)",
            ),
        ],
    )
    def test_str_and_repr(self, kind, text, representation):
        key = self.FACTORY_KEYS[kind]()
        assert str(key) == text
        assert repr(key) == representation
