"""Serve hot-path performance measurement and reporting.

This module gives the repository a durable performance record: the
``bench_serve_hotpath`` microbenchmark calls :func:`measure_serve_hotpath`
and writes the result to ``BENCH_serve.json`` (requests/sec, p50/p99 request
wall time, setup-cache hit counters), so every PR can compare its serve
throughput against the previous one (see EXPERIMENTS.md).

It also provides :func:`tune_gc`: experiment processes accumulate large,
effectively immutable object graphs (setup-cache masters, interned keys,
simulated rounds), which Python's generational GC rescans on every gen-2
collection.  Raising the collection thresholds — the standard tuning for
allocation-heavy batch jobs — removes that overhead without changing any
result.  The CLI and the benchmark harness both apply it.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.analysis import setup_cache
from repro.analysis.runner import prepare_setup
from repro.scenario import paper_experiment_config

#: GC thresholds for experiment processes (default CPython is (700, 10, 10),
#: which rescans the setup caches' object graphs constantly).
_GC_THRESHOLDS = (200_000, 100, 100)


def tune_gc() -> None:
    """Raise GC thresholds for allocation-heavy experiment runs (idempotent)."""
    gc.set_threshold(*_GC_THRESHOLDS)


@dataclass
class ServePerfReport:
    """Throughput profile of the FLStore serve hot path."""

    requests: int
    wall_seconds: float
    requests_per_second: float
    p50_request_seconds: float
    p99_request_seconds: float
    mean_request_seconds: float
    num_rounds: int
    seed: int
    workloads: list[str] = field(default_factory=list)
    setup_cache_stats: dict[str, int] = field(default_factory=dict)
    python_version: str = ""
    platform: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def measure_serve_hotpath(
    num_rounds: int = 15,
    requests_per_workload: int = 25,
    workloads: Sequence[str] = (
        "clustering",
        "inference",
        "debugging",
        "scheduling_perf",
        "cosine_similarity",
        "malicious_filtering",
    ),
    seed: int = 7,
    model_name: str = "efficientnet_v2_small",
) -> ServePerfReport:
    """Serve a mixed trace on a fresh FLStore and profile per-request wall time.

    The setup goes through :func:`repro.analysis.runner.prepare_setup`, so
    repeated measurements exercise the setup cache exactly like the
    experiment layer does; the report includes its hit/miss counters.
    """
    config = paper_experiment_config(model_name, seed=seed)
    setup = prepare_setup(config, num_rounds=num_rounds, systems=("flstore",))
    flstore = setup.flstore

    timings: list[float] = []
    total_start = time.perf_counter()
    for workload_name in workloads:
        trace = setup.generator.workload_trace(workload_name, requests_per_workload)
        for request in trace:
            start = time.perf_counter()
            flstore.serve(request)
            timings.append(time.perf_counter() - start)
    wall = time.perf_counter() - total_start

    timings.sort()
    count = len(timings)
    return ServePerfReport(
        requests=count,
        wall_seconds=wall,
        requests_per_second=count / wall if wall > 0 else 0.0,
        p50_request_seconds=_percentile(timings, 0.50),
        p99_request_seconds=_percentile(timings, 0.99),
        mean_request_seconds=sum(timings) / count if count else 0.0,
        num_rounds=num_rounds,
        seed=seed,
        workloads=list(workloads),
        setup_cache_stats=setup_cache.stats.as_dict(),
        python_version=sys.version.split()[0],
        platform=platform.platform(),
    )


def _read_bench_json(path: str) -> dict:
    """Existing perf record at ``path``, or an empty dict."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return data if isinstance(data, dict) else {}
    except (OSError, ValueError):
        return {}


def _write_payload(payload: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_bench_json(report: ServePerfReport, path: str = "BENCH_serve.json", extra: dict | None = None) -> str:
    """Write ``report`` (plus optional ``extra`` context) to ``path``.

    Top-level keys the report does not produce (e.g. the ``engine_load``
    section written by :func:`merge_bench_json`) are preserved, so the
    hot-path and open-loop benchmarks can share one perf record regardless
    of execution order.
    """
    payload = _read_bench_json(path)
    payload.update(report.as_dict())
    if extra:
        payload.update(extra)
    return _write_payload(payload, path)


def merge_bench_json(section: str, payload: dict, path: str = "BENCH_serve.json") -> str:
    """Merge ``payload`` under the ``section`` key of the perf record at ``path``."""
    data = _read_bench_json(path)
    data[section] = payload
    return _write_payload(data, path)


def merge_bench_scalar(key: str, value: float, path: str = "BENCH_serve.json") -> str:
    """Merge one top-level scalar into the perf record at ``path``.

    ``benchmarks/check_perf_gate.py`` compares the top-level numeric keys
    named in its ``PERF_BUDGETS`` table, so benchmarks that want their wall
    time regression-gated (e.g. the shard sweep) publish it through this
    helper and add the key, with its budget, to that table.
    """
    data = _read_bench_json(path)
    data[key] = value
    return _write_payload(data, path)
