"""What the benchmark runs and reports: six workloads and the metric table.

Each workload is a registered scenario plus dotted-path overrides, so the
program receives nothing but a :class:`~repro.scenario.ScenarioSpec`.  This
module imports nothing from ``repro``: the launcher (``run.py``) reads it to
validate arguments before any child process imports the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Registered scenario name (``repro.scenario.get_scenario``).
    scenario: str
    #: Dotted-path overrides applied before the seed.
    overrides: dict
    #: Why the workload is in the benchmark (one line).
    why: str
    #: Layers the traced pass must see fire on this workload.
    must_fire: tuple[str, ...]
    #: Scenario instances (spec seeds) one benchmark seed stands for.  One
    #: run of each takes 3-5 s on a quiet 2-core VM, so each instance runs
    #: two to four times in the default ``--seconds``, and once at half speed.
    instances: int


#: Sizes keep one run's serve phase under 0.5 s.  The machine's speed drifts
#: within seconds, so a reference job run right before and after a run
#: tracks the speed the run saw only when the run is short (see README).
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "million-request",
            "million-request",
            {},
            "10^6 Poisson arrivals on the vectorized fast path; oracle and event-loop "
            "changes must not move it",
            ("engine.vectorized", "traces.arrivals", "engine.streaming", "core.flstore.serve"),
            # More instances than the others: its runs are short, and its peak
            # memory depends on the instance more than theirs does.
            instances=16,
        ),
        Workload(
            "engine-baseline-1k",
            "engine-baseline",
            {"workload.num_requests": 1000},
            "plain tier on the event path with full metrics; the FLStore.serve oracle and "
            "workload compute dominate; FIFO queueing",
            (
                "engine.kernel",
                "core.flstore.serve",
                "workloads.compute",
                "serverless.queue",
                "engine.flstore.build_load_report",
            ),
            instances=10,
        ),
        Workload(
            "hotkey-replicated-1.5k",
            "hotkey-replicated",
            {"workload.num_requests": 1500},
            "4 JSQ shards with hot-key replication and degrade-to-objstore shedding; "
            "read-only: its serves place nothing in the cache",
            ("routing", "engine.kernel", "core.flstore.serve", "serverless.queue"),
            instances=10,
        ),
        Workload(
            "noisy-neighbor-1.75k",
            "noisy-neighbor",
            {"tenants.steady.num_requests": 750, "tenants.bursty.num_requests": 1000},
            "two tenants under WFQ with SLO push-out; the request-queue layer under a "
            "fair discipline",
            ("serverless.queue", "engine.kernel", "core.flstore.serve", "traces.generator"),
            instances=10,
        ),
        Workload(
            "autoscale-diurnal-1k",
            "autoscale-diurnal",
            {"workload.num_requests": 1000},
            "write-heavy: resizes replay the round log into cold-joining shards and spawn "
            "functions",
            (
                "engine.autoscale.decide",
                "engine.sharded.resize",
                "core.cache_engine",
                "serverless.platform",
                "routing",
            ),
            instances=10,
        ),
        Workload(
            "fault-recovery-1k",
            "fault-recovery",
            {"workload.num_requests": 1000},
            "a shard crash repaired by remediation, whose nested shadow runs put "
            "build_tier on the serve path",
            ("engine.remediate", "engine.sharded.resize", "routing", "scenario.build_tier"),
            instances=10,
        ),
    )
}

#: End-to-end metrics of the untraced pass: name -> unit.  ``fail_rate`` is
#: printed and written with ``--out`` but is not in ``BENCHMARK.json``,
#: whose metrics must never read 0; failures reach it as ``failed``.
END_TO_END: dict[str, str] = {
    "req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED_ONLY: dict[str, str] = {"fail_rate": "fraction"}

#: Per-layer metrics of the traced pass: name -> unit.  Seconds are scaled
#: by the reference job like the end-to-end times; the raw self seconds are
#: in ``details`` with ``--out``.
PER_LAYER: dict[str, str] = {
    "workloads.compute.calls": "count",
    "workloads.compute.self_s": "s",
    "core.flstore.serve.calls": "count",
    "core.flstore.serve.self_s": "s",
    "core.flstore.serve_per_req": "calls/req",
    "core.flstore.hit_ratio": "ratio",
    "engine.vectorized.self_s": "s",
    "traces.arrivals.calls": "count",
    "traces.arrivals.self_s": "s",
    "engine.streaming.fold.calls": "count",
    "engine.streaming.self_s": "s",
    "engine.kernel.self_s": "s",
    "engine.kernel.events": "count",
    "engine.kernel.events_per_req": "events/req",
    "serverless.queue.push.calls": "count",
    "serverless.queue.self_s": "s",
    "routing.calls": "count",
    "routing.self_s": "s",
    "core.serverless_cache.self_s": "s",
    "core.serverless_cache.place.calls": "count",
    "core.serverless_cache.place_per_serve": "calls/serve",
    "core.cache_engine.self_s": "s",
    "core.cache_engine.ingest_round.calls": "count",
    "core.cache_engine.ingest_round.self_s": "s",
    "serverless.platform.self_s": "s",
    "serverless.platform.spawn_function.calls": "count",
    "cloud.object_store.get.calls": "count",
    "cloud.object_store.put.calls": "count",
    "cloud.object_store.self_s": "s",
    "engine.autoscale.decide.calls": "count",
    "engine.autoscale.decide.self_s": "s",
    "engine.sharded.resize.calls": "count",
    "engine.sharded.resize.self_s": "s",
    "engine.remediate.shadow_runs": "count",
    "engine.remediate.shadow_s": "s",
    "scenario.build_tier.calls": "count",
    "scenario.build_tier.incl_s": "s",
    "engine.flstore.build_load_report.self_s": "s",
    "traces.generator.self_s": "s",
    "scenario.run.self_s": "s",
    "analysis.setup_cache.hits": "count",
    "analysis.setup_cache.misses": "count",
    "trace.overhead": "ratio",
    "trace.self_sum_err": "ratio",
}
