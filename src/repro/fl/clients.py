"""The cross-device client population.

Clients in cross-device FL are heterogeneous phones/edge devices with varying
compute, network, availability, and data characteristics.  The non-training
workloads (scheduling, clustering, incentives) reason about exactly this
heterogeneity, so the population generator assigns every client:

* a latent cluster (drives correlated model updates for clustering and
  personalization workloads),
* a resource profile (drives scheduling workloads),
* a data size and quality level (drives incentive/reputation workloads),
* a malicious flag (drives malicious-filtering and debugging workloads).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.config import FLJobConfig
from repro.fl.metadata import ResourceProfile


@dataclass(frozen=True, slots=True)
class ClientDevice:
    """Static description of one client device in the population."""

    client_id: int
    cluster_id: int
    resources: ResourceProfile
    num_samples: int
    #: Label-quality score in [0, 1]; low quality degrades local accuracy.
    data_quality: float
    is_malicious: bool = False

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ConfigurationError("num_samples must be positive")
        if not 0.0 <= self.data_quality <= 1.0:
            raise ConfigurationError("data_quality must be in [0, 1]")


class ClientPopulation:
    """Deterministically generates and holds the client population of an FL job."""

    def __init__(self, config: FLJobConfig, seed: int = 7) -> None:
        self.config = config
        self.seed = seed
        self._clients = self._generate()

    def _generate(self) -> list[ClientDevice]:
        rng = derive_rng(self.seed, "client-population")
        clients: list[ClientDevice] = []
        n = self.config.total_clients
        n_malicious = int(round(self.config.malicious_fraction * n))
        malicious_ids = set(rng.choice(n, size=n_malicious, replace=False).tolist()) if n_malicious else set()
        for client_id in range(n):
            cluster_id = int(rng.integers(0, self.config.latent_clusters))
            resources = ResourceProfile(
                cpu_ghz=float(rng.uniform(1.0, 3.2)),
                memory_gb=float(rng.choice([2.0, 3.0, 4.0, 6.0, 8.0])),
                bandwidth_mbps=float(rng.uniform(5.0, 100.0)),
                battery_fraction=float(rng.uniform(0.2, 1.0)),
                availability=float(rng.uniform(0.5, 1.0)),
            )
            clients.append(
                ClientDevice(
                    client_id=client_id,
                    cluster_id=cluster_id,
                    resources=resources,
                    num_samples=int(rng.integers(100, 2000)),
                    data_quality=float(rng.uniform(0.5, 1.0)),
                    is_malicious=client_id in malicious_ids,
                )
            )
        return clients

    # -------------------------------------------------------------- lookup

    def __len__(self) -> int:
        return len(self._clients)

    def __iter__(self):
        return iter(self._clients)

    def get(self, client_id: int) -> ClientDevice:
        """Return the client with ``client_id``."""
        if not 0 <= client_id < len(self._clients):
            raise KeyError(f"client {client_id} is outside the population of {len(self._clients)}")
        return self._clients[client_id]

    @property
    def clients(self) -> list[ClientDevice]:
        """Every client in the population."""
        return list(self._clients)

    @property
    def malicious_ids(self) -> set[int]:
        """Identifiers of the adversarial clients."""
        return {c.client_id for c in self._clients if c.is_malicious}

    def cluster_members(self, cluster_id: int) -> list[ClientDevice]:
        """Clients assigned to latent cluster ``cluster_id``."""
        return [c for c in self._clients if c.cluster_id == cluster_id]

    def select_round_participants(self, round_id: int) -> list[ClientDevice]:
        """Deterministically select the clients participating in ``round_id``.

        Selection is uniform over the population (standard cross-device FL
        protocol, Section 5.1 of the paper) but weighted slightly by
        availability so highly available devices participate more often —
        matching the behaviour intelligent client-selection systems assume.
        """
        rng = derive_rng(self.seed, "round-selection", round_id)
        weights = np.array([c.resources.availability for c in self._clients], dtype=float)
        weights = weights / weights.sum()
        chosen = rng.choice(
            len(self._clients),
            size=self.config.clients_per_round,
            replace=False,
            p=weights,
        )
        return [self._clients[int(i)] for i in sorted(chosen)]
