"""Top-level configuration dataclasses for the FLStore reproduction.

The simulator is configured through a single :class:`SimulationConfig` object
composed of smaller per-subsystem configurations.  Every experiment in the
paper maps to a particular configuration (model, number of clients, rounds,
request counts); the convenience constructors (:meth:`SimulationConfig.small`,
:meth:`SimulationConfig.paper`) provide commonly used presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigurationError
from repro.common.units import GB


@dataclass(frozen=True)
class FLJobConfig:
    """Configuration of a simulated federated-learning job.

    The defaults follow the paper's evaluation setup (Section 5.1): cross-device
    FL with 10 clients selected per round from a pool of 250, trained for 1000
    rounds.
    """

    model_name: str = "efficientnet_v2_small"
    total_clients: int = 250
    clients_per_round: int = 10
    total_rounds: int = 1000
    #: Dimensionality of the reduced weight vector carried by each update.
    #: The *logical* size used for transfer latency/cost is taken from the
    #: model zoo, not from this vector (see DESIGN.md substitution table).
    reduced_dim: int = 256
    #: Fraction of clients whose updates are adversarial outliers
    #: (used by the malicious-filtering and debugging workloads).
    malicious_fraction: float = 0.05
    #: Number of latent client clusters used to generate correlated updates
    #: (exercised by the clustering and personalization workloads).
    latent_clusters: int = 4
    #: Local epochs / learning-rate ranges recorded as hyperparameter metadata.
    local_epochs: int = 5
    base_learning_rate: float = 0.01
    #: Seconds of simulated on-device training per round, per client (mean).
    mean_local_training_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.clients_per_round > self.total_clients:
            raise ConfigurationError(
                "clients_per_round cannot exceed total_clients "
                f"({self.clients_per_round} > {self.total_clients})"
            )
        if self.total_rounds <= 0:
            raise ConfigurationError("total_rounds must be positive")
        if self.reduced_dim <= 0:
            raise ConfigurationError("reduced_dim must be positive")
        if not 0.0 <= self.malicious_fraction < 1.0:
            raise ConfigurationError("malicious_fraction must be in [0, 1)")
        if self.latent_clusters <= 0:
            raise ConfigurationError("latent_clusters must be positive")


@dataclass(frozen=True)
class NetworkConfig:
    """Latency/bandwidth parameters of the simulated cloud network paths.

    The default bandwidths are calibrated so that moving an EfficientNet-sized
    set of per-round client updates (10 clients x ~82 MB) from the object store
    into the aggregator takes on the order of the ~89 s average communication
    latency reported in Figure 4 of the paper.
    """

    #: Round-trip time between the aggregator instance and the object store.
    objstore_rtt_seconds: float = 0.060
    #: Effective object-store throughput seen by a single aggregator request.
    objstore_bandwidth_mb_per_s: float = 10.0
    #: Round-trip time between the aggregator instance and the cloud cache.
    cache_rtt_seconds: float = 0.002
    #: Effective in-memory cache throughput (faster than the object store).
    cache_bandwidth_mb_per_s: float = 40.0
    #: RTT between the client daemon / request tracker and any cloud service.
    client_rtt_seconds: float = 0.050
    #: Bandwidth of intra-serverless data movement (function-to-function).
    serverless_bandwidth_mb_per_s: float = 80.0
    #: RTT between serverless functions within the same region.
    serverless_rtt_seconds: float = 0.003

    def __post_init__(self) -> None:
        for name in (
            "objstore_bandwidth_mb_per_s",
            "cache_bandwidth_mb_per_s",
            "serverless_bandwidth_mb_per_s",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass(frozen=True)
class PricingConfig:
    """Cloud pricing used by the cost model (US dollars).

    Values follow public AWS list prices for the services used in the paper's
    evaluation (us-east-1, 2024): S3, ElastiCache, SageMaker ml.m5.4xlarge and
    Lambda.  They are configuration, not constants, so sensitivity analyses can
    sweep them.
    """

    # --- Object store (S3-like) -------------------------------------------
    objstore_put_request_cost: float = 0.005 / 1000.0
    objstore_get_request_cost: float = 0.0004 / 1000.0
    objstore_storage_cost_per_gb_month: float = 0.023
    #: Data transferred out of the object store to a compute service.
    #: In-region transfer between S3 and EC2/SageMaker/Lambda is free on AWS,
    #: so the default is 0; the knob exists for cross-region sensitivity
    #: sweeps.  The paper's baseline data-movement cost comes from the
    #: aggregator instance being occupied during the transfer (see
    #: ``DedicatedInstance.occupancy_cost``), not from per-GB egress.
    objstore_transfer_cost_per_gb: float = 0.0

    # --- In-memory cache (ElastiCache-like) -------------------------------
    cache_node_cost_per_hour: float = 0.326  # cache.r6g.xlarge
    cache_node_memory_gb: float = 26.32
    #: Same reasoning as ``objstore_transfer_cost_per_gb``: free in-region.
    cache_transfer_cost_per_gb: float = 0.0

    # --- Dedicated aggregator instance (SageMaker ml.m5.4xlarge) ----------
    aggregator_cost_per_hour: float = 0.922

    # --- Serverless functions (Lambda-like) --------------------------------
    lambda_cost_per_gb_second: float = 0.0000166667
    lambda_cost_per_million_requests: float = 0.20
    #: Keep-alive ping cost per instance per month (from InfiniStore, §4.5).
    lambda_keepalive_cost_per_instance_month: float = 0.0087
    #: Provisioned (always-warm) execution capacity, per GB-second (AWS
    #: Lambda provisioned concurrency).  The autoscaler's warm-capacity cost
    #: integrates this over the provisioned GB it keeps resident.
    lambda_provisioned_cost_per_gb_second: float = 0.0000041667

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"pricing value {name} must be non-negative")


#: Shedding policies of the serving tier's admission control (see
#: :class:`repro.engine.sharded.ShardedEngineFLStore`).
SHED_POLICIES: tuple[str, ...] = ("drop", "degrade-to-objstore")

#: Disciplines of the serving tier's per-function request queues (see
#: :class:`repro.engine.sharded.ShardedEngineFLStore`).  ``fifo``/``priority``
#: order individual requests; ``wfq`` (weighted fair queueing, self-clocked
#: virtual finish times) and ``drr`` (deficit round robin) schedule *flows* —
#: per-tenant backlogs served in proportion to the tenant weights configured
#: on the scenario spec.
QUEUE_DISCIPLINES: tuple[str, ...] = ("fifo", "priority", "wfq", "drr")


@dataclass(frozen=True)
class ServerlessConfig:
    """Parameters of the serverless platform emulator."""

    #: Maximum memory a single function may be provisioned with (AWS: 10 GB).
    max_function_memory_bytes: int = 10 * GB
    #: Default provisioned memory for cache functions holding large models.
    default_function_memory_bytes: int = 4 * GB
    #: Cold-start latency for a newly spawned function.
    cold_start_seconds: float = 1.2
    #: Warm invocation overhead.
    invocation_overhead_seconds: float = 0.010
    #: Interval at which warm functions are pinged to stay resident.
    keepalive_interval_seconds: float = 60.0
    #: Number of secondary replicas per primary cache function.
    replication_factor: int = 1
    #: Timeout after which the request tracker fails over to a replica.
    failover_timeout_seconds: float = 2.0
    #: Maximum number of functions the platform will keep warm at once.
    max_warm_functions: int = 512

    def __post_init__(self) -> None:
        if self.default_function_memory_bytes > self.max_function_memory_bytes:
            raise ConfigurationError(
                "default function memory exceeds the platform maximum"
            )
        if self.replication_factor < 0:
            raise ConfigurationError("replication_factor must be >= 0")
        if self.max_warm_functions <= 0:
            raise ConfigurationError("max_warm_functions must be positive")


@dataclass(frozen=True)
class CachePolicyConfig:
    """Tunables of the FLStore caching policies."""

    #: ``R`` in policy P4: number of most recent rounds of metadata to keep.
    metadata_recent_rounds: int = 10
    #: How many rounds ahead P2/P3 prefetch (the paper prefetches one round).
    prefetch_rounds_ahead: int = 1
    #: Capacity (bytes) available to capacity-bounded policies (LRU/LFU/FIFO).
    traditional_policy_capacity_bytes: int = 8 * GB
    #: Capacity multiplier for the FLStore-limited variant (half of FLStore).
    limited_capacity_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.metadata_recent_rounds <= 0:
            raise ConfigurationError("metadata_recent_rounds must be positive")
        if self.prefetch_rounds_ahead < 0:
            raise ConfigurationError("prefetch_rounds_ahead must be >= 0")
        if not 0.0 < self.limited_capacity_fraction <= 1.0:
            raise ConfigurationError("limited_capacity_fraction must be in (0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    """Complete configuration of a simulation run."""

    seed: int = 7
    job: FLJobConfig = field(default_factory=FLJobConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    serverless: ServerlessConfig = field(default_factory=ServerlessConfig)
    cache_policy: CachePolicyConfig = field(default_factory=CachePolicyConfig)
    #: Wall-clock span the request trace covers, used for hourly cost accrual
    #: of always-on services (50 hours in the paper's evaluation).
    trace_duration_hours: float = 50.0
    #: Number of non-training requests in the evaluation trace.
    trace_num_requests: int = 3000

    @classmethod
    def small(cls, seed: int = 7) -> "SimulationConfig":
        """A laptop-friendly configuration used by tests and the quickstart."""
        return cls(
            seed=seed,
            job=FLJobConfig(
                model_name="resnet18",
                total_clients=20,
                clients_per_round=5,
                total_rounds=20,
                reduced_dim=64,
            ),
            trace_duration_hours=1.0,
            trace_num_requests=100,
        )

    @classmethod
    def paper(cls, model_name: str = "efficientnet_v2_small", seed: int = 7) -> "SimulationConfig":
        """The paper's evaluation setup (250-client pool, 10 per round)."""
        return cls(seed=seed, job=FLJobConfig(model_name=model_name))

    def with_model(self, model_name: str) -> "SimulationConfig":
        """Return a copy of this configuration targeting a different model."""
        return replace(self, job=replace(self.job, model_name=model_name))

    def with_job(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with selected :class:`FLJobConfig` fields replaced."""
        return replace(self, job=replace(self.job, **kwargs))

    def with_serverless(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with selected :class:`ServerlessConfig` fields replaced."""
        return replace(self, serverless=replace(self.serverless, **kwargs))


DEFAULT_CONFIG = SimulationConfig()

__all__ = [
    "CachePolicyConfig",
    "DEFAULT_CONFIG",
    "FLJobConfig",
    "NetworkConfig",
    "PricingConfig",
    "QUEUE_DISCIPLINES",
    "SHED_POLICIES",
    "ServerlessConfig",
    "SimulationConfig",
]
