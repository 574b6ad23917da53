"""The cross-device FL model zoo and the model-update payload type.

Figure 19 of the paper measures the serialized memory footprint of 23 models
commonly used in cross-device FL (average ~161 MB) to argue that whole client
updates fit comfortably inside a serverless function's 10 GB memory.
:data:`MODEL_ZOO` reproduces that catalogue using the serialized sizes of the
corresponding ``torchvision`` checkpoints.

A :class:`ModelUpdate` carries (a) a *reduced* dense weight vector that the
non-training workloads actually compute on and (b) the model's *logical*
serialized size, which every latency/cost model uses for data movement.  This
is the substitution documented in DESIGN.md: workload outputs depend on the
weight values, while latency and cost depend only on the byte size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import mb_to_bytes


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a model architecture used in cross-device FL."""

    name: str
    #: Serialized checkpoint size in MB (float32 weights).
    size_mb: float
    #: Approximate parameter count in millions (informational).
    params_millions: float
    #: Model family, used for grouping in reports.
    family: str = "cnn"

    @property
    def size_bytes(self) -> int:
        """Serialized size in bytes."""
        return mb_to_bytes(self.size_mb)

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise ConfigurationError(f"model {self.name}: size_mb must be positive")
        if self.params_millions <= 0:
            raise ConfigurationError(f"model {self.name}: params_millions must be positive")


def _spec(name: str, size_mb: float, params_millions: float, family: str) -> ModelSpec:
    return ModelSpec(name=name, size_mb=size_mb, params_millions=params_millions, family=family)


#: The 23-model catalogue of Figure 19 (torchvision serialized checkpoint sizes).
MODEL_ZOO: dict[str, ModelSpec] = {
    spec.name: spec
    for spec in [
        _spec("resnet18", 44.7, 11.7, "resnet"),
        _spec("resnet34", 83.3, 21.8, "resnet"),
        _spec("resnet50", 97.8, 25.6, "resnet"),
        _spec("resnet101", 170.5, 44.5, "resnet"),
        _spec("resnet152", 230.5, 60.2, "resnet"),
        _spec("resnext50_32x4d", 95.8, 25.0, "resnet"),
        _spec("resnext101_32x8d", 339.6, 88.8, "resnet"),
        _spec("wide_resnet50_2", 131.8, 68.9, "resnet"),
        _spec("wide_resnet101_2", 242.9, 126.9, "resnet"),
        _spec("densenet121", 30.8, 8.0, "densenet"),
        _spec("densenet161", 110.4, 28.7, "densenet"),
        _spec("densenet169", 54.7, 14.2, "densenet"),
        _spec("densenet201", 77.4, 20.0, "densenet"),
        _spec("alexnet", 233.1, 61.1, "classic"),
        _spec("vgg13", 507.5, 133.0, "classic"),
        _spec("vgg16", 527.8, 138.4, "classic"),
        _spec("inception_v3", 103.9, 27.2, "inception"),
        _spec("mobilenet_v2", 13.6, 3.5, "mobile"),
        _spec("mobilenet_v3_small", 9.8, 2.5, "mobile"),
        _spec("shufflenet_v2", 8.8, 2.3, "mobile"),
        _spec("efficientnet_b0", 20.5, 5.3, "efficientnet"),
        _spec("efficientnet_v2_small", 82.7, 21.5, "efficientnet"),
        _spec("swin_transformer_v2_tiny", 110.3, 28.4, "transformer"),
    ]
}

#: The four models used throughout the paper's evaluation (Section 5.1).
EVALUATION_MODELS: tuple[str, ...] = (
    "resnet18",
    "mobilenet_v3_small",
    "efficientnet_v2_small",
    "swin_transformer_v2_tiny",
)


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model by name.

    Raises
    ------
    KeyError
        If ``name`` is not part of :data:`MODEL_ZOO`.
    """
    try:
        return MODEL_ZOO[name]
    except KeyError as exc:
        known = ", ".join(sorted(MODEL_ZOO))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from exc


def average_model_size_mb() -> float:
    """Average serialized size of the zoo in MB (paper reports ~161 MB)."""
    return float(np.mean([spec.size_mb for spec in MODEL_ZOO.values()]))


@dataclass(frozen=True, slots=True)
class ModelUpdate:
    """One client's model update (or an aggregated global model) for one round.

    Attributes
    ----------
    client_id:
        The producing client, or ``-1`` for an aggregated model.
    round_id:
        Training round the update belongs to.
    model_name:
        Architecture name (must exist in :data:`MODEL_ZOO`).
    weights:
        Reduced dense weight vector used by non-training computations.
    size_bytes:
        Logical serialized size used by every transfer-latency/cost model.
    metrics:
        Training-side metrics attached by the client (loss, accuracy,
        number of local samples), consumed by several workloads.
    """

    client_id: int
    round_id: int
    model_name: str
    weights: np.ndarray
    size_bytes: int
    metrics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.weights.ndim != 1:
            raise ConfigurationError("update weights must be a 1-D reduced vector")
        if self.size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")

    @property
    def is_aggregate(self) -> bool:
        """Whether this update is an aggregated (global) model."""
        return self.client_id == -1

    @property
    def dim(self) -> int:
        """Dimensionality of the reduced weight vector."""
        return int(self.weights.shape[0])

    def l2_norm(self) -> float:
        """Euclidean norm of the reduced weight vector."""
        return float(np.linalg.norm(self.weights))

    def distance_to(self, other: "ModelUpdate") -> float:
        """Euclidean distance between two updates' reduced weight vectors."""
        if self.dim != other.dim:
            raise ValueError(
                f"cannot compare updates of different dimensionality ({self.dim} vs {other.dim})"
            )
        return float(np.linalg.norm(self.weights - other.weights))

    def cosine_similarity(self, other: "ModelUpdate") -> float:
        """Cosine similarity between two updates' reduced weight vectors."""
        if self.dim != other.dim:
            raise ValueError(
                f"cannot compare updates of different dimensionality ({self.dim} vs {other.dim})"
            )
        denom = np.linalg.norm(self.weights) * np.linalg.norm(other.weights)
        if denom == 0:
            return 0.0
        return float(np.dot(self.weights, other.weights) / denom)
