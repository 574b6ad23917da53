"""Reproduction of the appendix experiments and supporting analyses.

Covers Figure 12 (scalability), Figures 13-14 (fault tolerance and
replication vs re-fetching), Figure 19 (model memory footprints), the
Section 5.5 component-overhead measurements, the Section 2.2 capacity
analysis, and one extension ablation (prefetch depth) called out in
DESIGN.md.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.analysis.capacity import (
    dedicated_cache_cost_per_hour,
    estimate_full_caching,
    estimate_tailored_caching,
)
from repro.analysis.comparison import percent_reduction
from repro.analysis.runner import prepare_setup, run_trace
from repro.config import SimulationConfig
from repro.core.cache_engine import CacheEngine
from repro.core.flstore import FLStore
from repro.core.policies.factory import make_policy_bundle
from repro.core.request_tracker import RequestTracker
from repro.core.serverless_cache import ServerlessCacheCluster
from repro.cloud.object_store import ObjectStore
from repro.fl.keys import DataKey
from repro.fl.models import MODEL_ZOO, average_model_size_mb
from repro.network.costs import TransferCostModel
from repro.network.model import NetworkTopology
from repro.scenario import paper_experiment_config
from repro.serverless.faults import ZipfianFaultInjector
from repro.serverless.platform import ServerlessPlatform
from repro.simulation.metrics import RequestRecord, summarize_records
from repro.workloads.base import WorkloadRequest
from repro.workloads.registry import WORKLOAD_DISPLAY_NAMES


# ---------------------------------------------------------------------------
# Figure 12 — scalability with concurrent requests
# ---------------------------------------------------------------------------

def run_figure12_scalability(
    model_name: str = "efficientnet_v2_small",
    workloads: Sequence[str] = (
        "malicious_filtering",
        "cosine_similarity",
        "scheduling_cluster",
        "clustering",
        "inference",
    ),
    parallel_requests: Sequence[int] = tuple(range(1, 11)),
    cached_parallel_functions: int = 5,
    num_rounds: int = 15,
    seed: int = 7,
) -> list[dict]:
    """Figure 12: per-request latency/cost as concurrent requests grow.

    FLStore keeps ``cached_parallel_functions`` warm copies able to serve a
    workload concurrently; requests beyond that number queue behind earlier
    waves, so latency stays flat up to the number of cached copies and grows
    in steps beyond it — the paper's observed behaviour.
    """
    config = paper_experiment_config(model_name, seed=seed)
    setup = prepare_setup(config, num_rounds=num_rounds, systems=("flstore",))
    rows = []
    for workload_name in workloads:
        # Warm the cache on the workload's access path, then measure the last
        # (fully-warm) request to obtain the base, uncontended latency/cost.
        trace = setup.generator.workload_trace(workload_name, 4)
        run_trace(setup.flstore, trace[:-1], system_name="flstore", model_name=model_name)
        base = run_trace(setup.flstore, trace[-1:], system_name="flstore", model_name=model_name)[0]
        base_latency = base.latency.total_seconds
        base_cost = base.cost.total_dollars
        for parallel in parallel_requests:
            waves = [1 + (i // cached_parallel_functions) for i in range(parallel)]
            latencies = [base_latency * wave for wave in waves]
            rows.append(
                {
                    "workload": WORKLOAD_DISPLAY_NAMES[workload_name],
                    "parallel_requests": parallel,
                    "cached_parallel_functions": cached_parallel_functions,
                    "mean_latency_seconds": float(np.mean(latencies)),
                    "max_latency_seconds": float(np.max(latencies)),
                    "mean_cost_dollars": base_cost,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figures 13 & 14 — fault tolerance and replication vs re-fetching
# ---------------------------------------------------------------------------

def _serve_under_faults(
    store: FLStore,
    trace: Sequence[WorkloadRequest],
    injector: ZipfianFaultInjector,
    model_name: str,
) -> list[RequestRecord]:
    """Serve ``trace`` on ``store``, striking it with ``injector`` before each request."""
    records = []
    for request in trace:
        injector.strike(store)
        records += run_trace(store, [request], system_name="flstore", model_name=model_name)
    return records


def run_figure13_fault_tolerance(
    model_name: str = "efficientnet_v2_small",
    workloads: Sequence[str] = (
        "personalization",
        "clustering",
        "malicious_filtering",
        "incentives",
        "scheduling_cluster",
        "reputation",
        "scheduling_perf",
        "cosine_similarity",
    ),
    function_instances: Sequence[int] = (1, 2, 3, 4, 5),
    requests_per_workload: int = 12,
    num_rounds: int = 20,
    fault_rate: float = 0.25,
    seed: int = 7,
) -> list[dict]:
    """Figure 13: latency/cost per request under Zipfian reclamations vs replica count."""
    rows = []
    for instances in function_instances:
        config = paper_experiment_config(model_name, seed=seed).with_serverless(
            replication_factor=instances - 1
        )
        injector = ZipfianFaultInjector(fault_rate=fault_rate, seed=seed)
        setup = prepare_setup(config, num_rounds=num_rounds, systems=("flstore",))
        for workload_name in workloads:
            trace = setup.generator.workload_trace(workload_name, requests_per_workload)
            records = _serve_under_faults(setup.flstore, trace, injector, model_name)
            summary = summarize_records(records)
            rows.append(
                {
                    "function_instances": instances,
                    "workload": WORKLOAD_DISPLAY_NAMES[workload_name],
                    "mean_latency_seconds": summary.mean_latency_seconds,
                    "total_cost_dollars": summary.total_cost_dollars,
                    "hit_rate": summary.hit_rate,
                    "injected_faults": injector.total_faults,
                }
            )
    return rows


def run_figure14_replication_vs_refetch(
    model_name: str = "efficientnet_v2_small",
    workloads: Sequence[str] = (
        "clustering",
        "cosine_similarity",
        "incentives",
        "malicious_filtering",
        "personalization",
        "reputation",
        "scheduling_cluster",
        "scheduling_perf",
    ),
    requests_per_workload: int = 12,
    num_rounds: int = 20,
    fault_rate: float = 0.25,
    replica_count: int = 5,
    trace_duration_hours: float = 50.0,
    seed: int = 7,
) -> dict:
    """Figure 14: re-fetching (no replicas) vs replication under faults.

    Returns per-workload latency and cost for both strategies plus the
    headline comparison: the communication cost of re-fetching lost data vs
    the (tiny) keep-alive cost of maintaining ``replica_count`` replicas.
    """
    strategies = {
        "refetching": 0,
        "replication": replica_count - 1,
    }
    per_workload: dict[str, dict[str, dict[str, float]]] = {}
    strategy_totals = {name: 0.0 for name in strategies}
    for strategy, replication in strategies.items():
        config = paper_experiment_config(model_name, seed=seed).with_serverless(
            replication_factor=replication
        )
        injector = ZipfianFaultInjector(fault_rate=fault_rate, seed=seed)
        setup = prepare_setup(config, num_rounds=num_rounds, systems=("flstore",))
        for workload_name in workloads:
            trace = setup.generator.workload_trace(workload_name, requests_per_workload)
            records = _serve_under_faults(setup.flstore, trace, injector, model_name)
            summary = summarize_records(records)
            per_workload.setdefault(workload_name, {})[strategy] = {
                "mean_latency_seconds": summary.mean_latency_seconds,
                "total_cost_dollars": summary.total_cost_dollars,
            }
            strategy_totals[strategy] += summary.total_cost_dollars

    config = paper_experiment_config(model_name, seed=seed)
    keepalive = (
        TransferCostModel(config.pricing)
        .lambda_keepalive_cost(replica_count, trace_duration_hours)
        .total_dollars
    )
    rows = [
        {
            "workload": WORKLOAD_DISPLAY_NAMES[name],
            "refetch_latency_seconds": values["refetching"]["mean_latency_seconds"],
            "replication_latency_seconds": values["replication"]["mean_latency_seconds"],
            "refetch_cost_dollars": values["refetching"]["total_cost_dollars"],
            "replication_cost_dollars": values["replication"]["total_cost_dollars"],
        }
        for name, values in per_workload.items()
    ]
    refetch_penalty = max(0.0, strategy_totals["refetching"] - strategy_totals["replication"])
    return {
        "rows": rows,
        "refetch_total_cost_dollars": strategy_totals["refetching"],
        "replication_total_cost_dollars": strategy_totals["replication"],
        "refetch_penalty_cost_dollars": refetch_penalty,
        "replication_keepalive_cost_dollars": keepalive,
        "replica_count": replica_count,
        "trace_duration_hours": trace_duration_hours,
    }


# ---------------------------------------------------------------------------
# Figure 19 — model memory footprints
# ---------------------------------------------------------------------------

def run_figure19_model_footprints() -> dict:
    """Figure 19: serialized memory footprint of the cross-device FL model zoo."""
    rows = [
        {
            "model": spec.name,
            "family": spec.family,
            "size_mb": spec.size_mb,
            "params_millions": spec.params_millions,
            "fits_in_10gb_function": spec.size_mb < 10 * 1024,
        }
        for spec in sorted(MODEL_ZOO.values(), key=lambda s: s.size_mb)
    ]
    return {
        "rows": rows,
        "num_models": len(rows),
        "average_size_mb": average_model_size_mb(),
        "max_size_mb": max(r["size_mb"] for r in rows),
    }


# ---------------------------------------------------------------------------
# Section 5.5 — component overhead
# ---------------------------------------------------------------------------

def run_section55_component_overhead(request_counts: Sequence[int] = (1000, 100000)) -> list[dict]:
    """Section 5.5: memory/time overhead of the Request Tracker and Cache Engine."""
    config = SimulationConfig.small().with_serverless(replication_factor=0)
    topology = NetworkTopology(config.network)
    cost_model = TransferCostModel(config.pricing)
    rows = []
    for count in request_counts:
        tracker = RequestTracker()
        platform = ServerlessPlatform(config.serverless, config.pricing)
        cluster = ServerlessCacheCluster(platform)
        store = ObjectStore(topology.objstore, cost_model)
        engine = CacheEngine(make_policy_bundle("tailored"), cluster, store)

        function_ids = [f"fn-{i:04d}" for i in range(32)]
        request_ids = [f"req-{index}" for index in range(count)]
        for index in range(count):
            function_id = function_ids[index % 32]
            tracker.submit(request_ids[index], [function_id])
            engine.register_location(DataKey.update(index % 1000, index // 1000), function_id)

        start = time.perf_counter()
        probe_count = min(count, 1000)
        for index in range(probe_count):
            tracker.get(request_ids[index])
            engine.location_of(DataKey.update(index % 1000, index // 1000))
        elapsed_ms = (time.perf_counter() - start) * 1000.0 / probe_count

        rows.append(
            {
                "concurrent_requests": count,
                "request_tracker_mb": tracker.memory_overhead_bytes() / (1024 * 1024),
                "cache_engine_mb": engine.memory_overhead_bytes() / (1024 * 1024),
                "mean_lookup_milliseconds": elapsed_ms,
                "lookup_under_one_ms": elapsed_ms < 1.0,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Section 2.2 / 4.4 — metadata volume and tailored-policy footprint
# ---------------------------------------------------------------------------

def run_section22_capacity_analysis(
    model_name: str = "efficientnet_v2_small",
    clients_per_round: int = 1000,
    total_rounds: int = 1000,
) -> dict:
    """Sections 2.2 and 4.4: cache-everything vs tailored-policy footprint and cost."""
    full = estimate_full_caching(model_name, clients_per_round, total_rounds)
    tailored = estimate_tailored_caching(model_name, clients_per_round=10)
    return {
        "full_caching": {
            "total_tb": full.total_tb,
            "functions_needed": full.functions_needed,
            "keepalive_cost_per_month": full.keepalive_cost_per_month,
            "dedicated_cache_cost_per_hour": dedicated_cache_cost_per_hour(full.total_bytes),
        },
        "tailored_policies": {
            "total_gb": tailored.total_gb,
            "functions_needed": tailored.functions_needed,
            "keepalive_cost_per_month": tailored.keepalive_cost_per_month,
            "dedicated_cache_cost_per_hour": dedicated_cache_cost_per_hour(tailored.total_bytes),
        },
        "footprint_reduction_pct": percent_reduction(full.total_bytes, tailored.total_bytes),
    }


# ---------------------------------------------------------------------------
# Extension ablation — prefetch depth (not in the paper; called out in DESIGN.md)
# ---------------------------------------------------------------------------

def run_ablation_prefetch_depth(
    model_name: str = "efficientnet_v2_small",
    workload_name: str = "malicious_filtering",
    prefetch_depths: Sequence[int] = (0, 1, 2),
    num_rounds: int = 20,
    num_requests: int = 18,
    seed: int = 7,
) -> list[dict]:
    """How far ahead the tailored P2 policy prefetches vs hit rate and latency."""
    import dataclasses

    rows = []
    for depth in prefetch_depths:
        config = paper_experiment_config(model_name, seed=seed)
        config = dataclasses.replace(
            config,
            cache_policy=dataclasses.replace(config.cache_policy, prefetch_rounds_ahead=depth),
        )
        setup = prepare_setup(config, num_rounds=num_rounds, systems=("flstore",))
        trace = setup.generator.workload_trace(workload_name, num_requests)
        records = run_trace(setup.flstore, trace, system_name="flstore", model_name=model_name)
        summary = summarize_records(records)
        rows.append(
            {
                "prefetch_rounds_ahead": depth,
                "hit_rate": summary.hit_rate,
                "mean_latency_seconds": summary.mean_latency_seconds,
                "mean_cost_dollars": summary.mean_cost_dollars,
            }
        )
    return rows
