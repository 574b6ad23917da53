"""Shared machinery of the dedicated-aggregator baselines.

Both baselines follow the Figure 3 architecture: a dedicated, always-on
aggregator instance (the compute plane) serves non-training requests by
fetching the required FL metadata from a separate data plane over the
network, executing the workload locally, and writing the result back.  The
subclasses differ only in the data plane: a cloud object store
(:class:`~repro.baselines.objstore_agg.ObjStoreAggregator`) or a provisioned
in-memory cache (:class:`~repro.baselines.cache_agg.CacheAggregator`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.cloud.instance import DedicatedInstance
from repro.cloud.payload import payload_size_bytes
from repro.common.ids import IdGenerator
from repro.config import SimulationConfig
from repro.core.flstore import ServeResult
from repro.fl.catalog import RoundCatalog
from repro.fl.keys import DataKey
from repro.fl.models import ModelSpec, get_model_spec
from repro.fl.rounds import RoundRecord
from repro.network.costs import TransferCostModel
from repro.network.model import NetworkTopology
from repro.simulation.clock import SimClock
from repro.simulation.records import (
    CostAccumulator,
    CostBreakdown,
    LatencyAccumulator,
    LatencyBreakdown,
)
from repro.workloads.base import WorkloadRequest, memoized_compute
from repro.workloads.registry import get_workload


@dataclass
class BaselineIngestReport:
    """Accounting of one round ingestion into a baseline data plane."""

    round_id: int
    stored_keys: int = 0
    upload_cost: CostBreakdown = field(default_factory=CostBreakdown)


class AggregatorBaseline(abc.ABC):
    """A dedicated aggregator instance backed by a remote data plane."""

    system_name = "baseline"

    def __init__(self, config: SimulationConfig | None = None, clock: SimClock | None = None) -> None:
        self.config = config or SimulationConfig()
        self.clock = clock or SimClock()
        self.topology = NetworkTopology(self.config.network)
        self.cost_model = TransferCostModel(self.config.pricing)
        self.instance = DedicatedInstance(self.config.pricing)
        self.catalog = RoundCatalog()
        self.model_spec: ModelSpec = get_model_spec(self.config.job.model_name)
        self.ingest_cost = CostBreakdown.zero()
        self._request_ids = IdGenerator(prefix="req", width=6)
        #: Memoized provisioned-cost results (queried once per served
        #: request with the same duration; see subclass ``provisioned_cost``).
        self._provisioned_effects: dict[Any, CostBreakdown] = {}
        #: Workload results by compute inputs (see ``memoized_compute``).
        self._result_memo: dict = {}

    # ----------------------------------------------------------- data plane

    @abc.abstractmethod
    def _store_object(self, key: Any, value: Any, size_bytes: int) -> CostBreakdown:
        """Persist one object into the data plane; returns the upload cost."""

    @abc.abstractmethod
    def _fetch_object(self, key: Any) -> tuple[LatencyBreakdown, CostBreakdown, Any]:
        """Fetch one object from the data plane into the aggregator's memory."""

    @abc.abstractmethod
    def _store_result(self, key: Any, value: Any, size_bytes: int) -> tuple[LatencyBreakdown, CostBreakdown]:
        """Write a workload result back to the data plane."""

    @abc.abstractmethod
    def provisioned_cost(self, duration_hours: float) -> CostBreakdown:
        """Always-on cost of the compute and data planes for ``duration_hours``."""

    # --------------------------------------------------------------- ingest

    def ingest_round(self, record: RoundRecord) -> BaselineIngestReport:
        """Store a training round's metadata in the data plane."""
        self.catalog.register_round(record)
        report = BaselineIngestReport(round_id=record.round_id)
        upload_cost = CostAccumulator()
        for key, value in record.objects():
            upload_cost.add(self._store_object(key, value, payload_size_bytes(value)))
            report.stored_keys += 1
        report.upload_cost = upload_cost.finalize()
        self.ingest_cost = self.ingest_cost + report.upload_cost
        return report

    # ----------------------------------------------------------------- serve

    def make_request(
        self,
        workload: str,
        round_id: int,
        client_id: int | None = None,
        history_rounds: int = 2,
        **params: Any,
    ) -> WorkloadRequest:
        """Convenience constructor for a request with an auto-generated id."""
        return WorkloadRequest(
            request_id=self._request_ids.next(),
            workload=workload,
            round_id=round_id,
            client_id=client_id,
            history_rounds=history_rounds,
            params=params,
        )

    def serve(self, request: WorkloadRequest) -> ServeResult:
        """Serve one non-training request with the conventional GET/compute/PUT flow."""
        workload = get_workload(request.workload)
        required_keys = workload.required_keys(request, self.catalog)

        latency = LatencyAccumulator()
        latency.add_communication(self.topology.client.rtt_seconds)
        cost = CostAccumulator()

        # GET every required object from the remote data plane (Step 2 of Figure 3).
        data: dict[DataKey, Any] = {}
        misses = 0
        for key in required_keys:
            fetch_latency, fetch_cost, value = self._fetch_object(key)
            latency.add(fetch_latency)
            cost.add(fetch_cost)
            if value is None:
                misses += 1
                continue
            data[key] = value

        # Execute the workload on the dedicated aggregator instance.
        compute_seconds = workload.compute_seconds(self.model_spec, max(len(required_keys), 1))
        execution = self.instance.execute(compute_seconds)
        latency.add(execution.latency)
        cost.add(execution.cost)
        result = memoized_compute(self._result_memo, workload, request, data)

        # PUT the result back to the data plane (Step 3) and return it (Step 4).
        put_latency, put_cost = self._store_result(("result", request.request_id), result, workload.result_size_bytes)
        latency.add(put_latency)
        cost.add(put_cost)
        latency.add_communication(
            self.topology.client.transfer_seconds(workload.result_size_bytes)
        )

        # The dedicated instance is occupied for the whole request, including
        # the time it spends waiting for data to cross the network — this is
        # where the communication bottleneck becomes a dollar cost.
        cost.add(self.instance.occupancy_cost(latency.communication_seconds))

        # Per-request share of the always-on compute and data planes.
        cost.add(self._provisioned_share())

        self.clock.advance(latency.total_seconds)
        return ServeResult(
            request_id=request.request_id,
            workload=request.workload,
            result=result,
            latency=latency.finalize(),
            cost=cost.finalize(),
            cache_hits=0,
            cache_misses=len(required_keys),
            served_by=[self.instance.name],
        )

    # ---------------------------------------------------------------- shared

    def _provisioned_share(self) -> CostBreakdown:
        """Per-request share of always-on service costs over the trace window."""
        share_hours = self.config.trace_duration_hours / max(1, self.config.trace_num_requests)
        return self.provisioned_cost(share_hours)

    def expected_job_bytes(self) -> int:
        """Total metadata volume of the configured FL job (sizing for data planes)."""
        job = self.config.job
        per_round = (job.clients_per_round + 1) * self.model_spec.size_bytes
        metadata = job.clients_per_round * 4096
        return (per_round + metadata) * job.total_rounds
