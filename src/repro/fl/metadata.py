"""Per-client, per-round configuration and performance metadata.

Policy P4 of the paper caches *metadata and hyperparameters* — everything the
scheduling, hyperparameter-tuning, incentive, and payout workloads consume —
separately from the (much larger) model updates.  The dataclasses below model
that metadata stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

from repro.common.errors import ConfigurationError
from repro.common.units import KB


@dataclass(frozen=True, slots=True)
class HyperParameters:
    """Hyperparameters a client used for one round of local training."""

    learning_rate: float = 0.01
    local_epochs: int = 5
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 5e-4
    optimizer: str = "sgd"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.local_epochs <= 0:
            raise ConfigurationError("local_epochs must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")

    def as_dict(self) -> dict[str, float | int | str]:
        """Plain-dict view (used by the hyperparameter-tuning workload)."""
        return asdict(self)


@dataclass(frozen=True, slots=True)
class ResourceProfile:
    """Device resources reported by a client for scheduling decisions."""

    cpu_ghz: float = 2.0
    memory_gb: float = 4.0
    bandwidth_mbps: float = 20.0
    battery_fraction: float = 1.0
    #: Probability the client is online when selected (used by schedulers).
    availability: float = 0.9

    def __post_init__(self) -> None:
        if self.cpu_ghz <= 0 or self.memory_gb <= 0 or self.bandwidth_mbps <= 0:
            raise ConfigurationError("resource quantities must be positive")
        if not 0.0 <= self.battery_fraction <= 1.0:
            raise ConfigurationError("battery_fraction must be in [0, 1]")
        if not 0.0 <= self.availability <= 1.0:
            raise ConfigurationError("availability must be in [0, 1]")

    def capability_score(self) -> float:
        """A scalar device-capability score used by performance-aware scheduling."""
        return self.cpu_ghz * 0.4 + self.memory_gb * 0.1 + self.bandwidth_mbps * 0.02 + self.availability


@dataclass(frozen=True, slots=True)
class ClientRoundMetadata:
    """Everything recorded about one client's participation in one round.

    This is the object cached by policy P4 and consumed by the scheduling,
    incentive, reputation, and hyperparameter-tuning workloads.  Its logical
    size is a few KB — tiny compared to model updates — which is why P4 can
    afford to keep a sliding window of recent rounds for every client.
    """

    client_id: int
    round_id: int
    hyperparameters: HyperParameters
    resources: ResourceProfile
    #: Accuracy of the client's local model on its held-out split.
    local_accuracy: float = 0.0
    #: Training loss after local training.
    local_loss: float = 1.0
    #: Seconds of on-device training.
    train_seconds: float = 0.0
    #: Seconds spent uploading the update.
    upload_seconds: float = 0.0
    #: Number of local training samples (FedAvg weighting).
    num_samples: int = 1
    #: Whether the client was selected for training this round.
    selected: bool = True
    #: Whether the client dropped out before finishing the round.
    dropped_out: bool = False
    #: Cumulative incentive payout to this client (dollars).
    payout_dollars: float = 0.0
    extra: Mapping[str, float] = field(default_factory=dict)

    #: Serialized size of a metadata record (a few KB of JSON in practice).
    size_bytes: int = 4 * KB

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")
        if not 0.0 <= self.local_accuracy <= 1.0:
            raise ConfigurationError("local_accuracy must be in [0, 1]")

    @property
    def round_duration_seconds(self) -> float:
        """Total wall-clock contribution of this client to the round."""
        return self.train_seconds + self.upload_seconds
