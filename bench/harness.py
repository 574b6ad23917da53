"""Measure one benchmark workload in this process.

Two passes, each in its own process (``run.py`` starts one per workload):

* :func:`measure` — the end-to-end pass over the scenario instances a seed
  stands for (``Workload.instances`` of them).  Nine cold set-ups (setup
  cache and calibration memo cleared, ``build_tier`` timed), one warm-up
  ``run``, then timed ``run`` calls that go round the instances: one of
  each, and more while another fits in ``seconds``.  The serve phase of a
  run is its wall time minus its own (first) ``build_tier`` call;
  ``req_per_s`` is the median over timed runs of the offered request count
  over the serve phase.  ``peak_rss_mb`` is the mean over instances of the
  process's peak RSS during each instance's first timed run.
* :func:`trace` — the per-layer pass over the first instance (spec seed =
  benchmark seed).  One cold set-up (setup-cache counters), one warm-up,
  then pairs of an untraced and a traced run (at least two pairs, more
  while another fits in ``seconds``).  Layer counts must repeat exactly
  across the traced runs; ``trace.overhead`` is the median over pairs of
  the traced serve phase over the untraced one.

Every timed set-up and run is scaled by the reference jobs run just before
and after it (:mod:`pace`); the raw times are reported beside the scaled
ones.  Smoke runs (``smoke=True``, the self-test) shrink every spec, run
two instances, make one cold set-up and skip the reference jobs.

Every run's report is checked (conservation, per-tenant conservation, the
offered request count) and hashed; runs of one instance must hash alike.
A failed check or a raised exception counts as a failed run.

Run as a script it measures one workload and prints one JSON object::

    PYTHONPATH=src python bench/harness.py --workload million-request --seed 7 --seconds 10
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.analysis import setup_cache
from repro.analysis.perf import tune_gc
from repro.scenario import build as scenario_build
from repro.scenario import clear_calibration_cache, get_scenario, smoke_spec

from layers import Tracer
from pace import Pacer
from suite import END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS

COLD_SETUPS = 9
MIN_TRACE_PAIRS = 2
#: Percentiles of a span's call durations need this many calls, so that
#: at least ten samples lie beyond p99.
MIN_PERCENTILE_CALLS = 1000
#: Largest allowed |sum of self time - traced wall| / traced wall.
MAX_SELF_SUM_ERR = 0.01

#: A benchmark seed stands for several scenario instances, at spec seeds
#: ``seed + SEED_STRIDE * j``.  Some scenarios do seed-dependent amounts of
#: work (fault-recovery at 1000 requests: 0.46-0.61 s of serve phase over
#: 16 spec seeds), so one instance per run would measure one seed's luck.
SEED_STRIDE = 1000
SMOKE_INSTANCES = 2


class CheckError(Exception):
    """A run's output failed the benchmark's correctness check."""


def instance_seeds(name: str, seed: int) -> list[int]:
    """Spec seeds of the scenario instances one benchmark seed stands for."""
    return [seed + SEED_STRIDE * j for j in range(WORKLOADS[name].instances)]


def workload_spec(name: str, seed: int, smoke: bool = False):
    """The spec a workload runs at ``seed`` (shrunk by ``smoke_spec`` if asked)."""
    workload = WORKLOADS[name]
    spec = get_scenario(workload.scenario).with_overrides(dict(workload.overrides, seed=seed))
    return smoke_spec(spec) if smoke else spec


def offered_requests(spec) -> int:
    """Requests the spec offers (summed over tenants)."""
    if spec.tenants:
        return sum(tenant.num_requests for tenant in spec.tenants)
    return spec.workload.num_requests


def check_report(report, spec) -> None:
    """Raise :class:`CheckError` unless ``report`` accounts for every request."""
    load = report.load
    expected = offered_requests(spec)
    if not (report.conserved and load.conserved):
        raise CheckError(
            f"not conserved: {load.served} served + {load.degraded} degraded "
            f"+ {load.shed} shed != {load.submitted} offered"
        )
    if load.submitted != expected:
        raise CheckError(f"{load.submitted} requests offered, spec asks for {expected}")
    if spec.tenants:
        rows = report.tenants or []
        for row in rows:
            accounted = row["served"] + row["requeued"] + row["degraded"] + row["shed"]
            if accounted != row["offered"]:
                raise CheckError(
                    f"tenant {row['tenant']!r} not conserved: {accounted} != {row['offered']}"
                )
        if sum(row["offered"] for row in rows) != expected:
            raise CheckError("tenant rows do not cover every offered request")


def output_digest(report) -> str:
    """sha256 of the report's canonical JSON."""
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@contextmanager
def timed_builds():
    """Record the duration of every ``build_tier`` call ``run`` makes."""
    durations: list[float] = []
    inner = scenario_build.build_tier

    def build_tier(spec):
        start = time.perf_counter()
        try:
            return inner(spec)
        finally:
            durations.append(time.perf_counter() - start)

    scenario_build.build_tier = build_tier
    try:
        yield durations
    finally:
        scenario_build.build_tier = inner


def reset_peak_rss() -> None:
    """Start a new peak-RSS window (Linux resets ``VmHWM`` on this write)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # no reset: the peak below is the process's peak so far


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Sample:
    """One checked run."""

    wall_s: float
    serve_s: float
    peak_rss_mb: float
    digest: str


def timed_run(spec) -> Sample:
    """One ``run(spec)``: wall time, serve phase, peak RSS, checked output digest."""
    gc.collect()
    reset_peak_rss()
    with timed_builds() as builds:
        start = time.perf_counter()
        report = scenario_build.run(spec)
        wall = time.perf_counter() - start
    peak = peak_rss_mb()
    check_report(report, spec)
    return Sample(wall, wall - builds[0], peak, output_digest(report))


def cold_setup(spec) -> float:
    """Time one ``build_tier`` with the setup cache and calibration memo empty."""
    setup_cache.clear()
    clear_calibration_cache()
    gc.collect()
    start = time.perf_counter()
    scenario_build.build_tier(spec)
    return time.perf_counter() - start


class Attempts:
    """Counts attempts and failures; keeps each instance's first digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}

    def attempt(self, fn, *args):
        """Call ``fn``; on an exception count a failure and return ``None``."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed run is counted, not fatal
            self.fail(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def check_digest(self, sample: Sample | None, instance: int = 0) -> Sample | None:
        """Fail a run whose output differs from its instance's first run."""
        if sample is None:
            return None
        first = self.digests.setdefault(instance, sample.digest)
        if sample.digest != first:
            self.fail(
                f"instance {instance}: output digest {sample.digest[:12]} "
                f"!= first run's {first[:12]}"
            )
            return None
        return sample

    @property
    def digest(self) -> str | None:
        """One digest over every instance's output (``None`` before any run)."""
        if not self.digests:
            return None
        joined = "".join(self.digests[i] for i in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def fitting(seconds: float, minimum: int):
    """Yield 0, 1, 2, ...: ``minimum`` times, then while another step fits.

    A step starts only when the time used so far plus the last step's
    length stays within ``seconds``, so a slow machine takes fewer steps
    instead of overrunning the budget by up to a step.
    """
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < minimum or time.perf_counter() - start + last <= seconds:
        step_start = time.perf_counter()
        yield done
        done += 1
        last = time.perf_counter() - step_start


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (both the value itself for one sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def host_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def _result(name, seed, attempts, metrics, details) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "errors": attempts.errors,
        "digest": attempts.digest,
        "instance_digests": [attempts.digests[i] for i in sorted(attempts.digests)],
        "metrics": metrics,
        "details": details,
        "host": host_info(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------- end to end


def measure(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The end-to-end pass over one workload.

    Set-ups and timed runs go round the instances in turn.  Every repeat of
    an instance (the first instance repeats its warm-up) is checked against
    that instance's first run.
    """
    seeds = instance_seeds(name, seed)[: SMOKE_INSTANCES if smoke else None]
    specs = [workload_spec(name, s, smoke) for s in seeds]
    offered = offered_requests(specs[0])
    attempts = Attempts()
    pacer = Pacer(enabled=not smoke)
    setups: list[float] = []
    scaled_setups: list[float] = []
    for index in range(1 if smoke else COLD_SETUPS):
        setup = attempts.attempt(cold_setup, specs[index % len(specs)])
        factor = pacer.factor()
        if setup is not None:
            setups.append(setup)
            scaled_setups.append(setup * factor)
    attempts.check_digest(attempts.attempt(timed_run, specs[0]))
    pacer.restart()
    serves: list[float] = []
    scaled_serves: list[float] = []
    # Peak memory depends on the instance (million-request: 137-155 MB over
    # spec seeds), so it is averaged over the instances' first timed runs.
    peaks: dict[int, float] = {}
    for index in fitting(seconds, len(specs)):
        instance = index % len(specs)
        sample = attempts.check_digest(attempts.attempt(timed_run, specs[instance]), instance)
        factor = pacer.factor()
        if sample is not None:
            serves.append(sample.serve_s)
            scaled_serves.append(sample.serve_s * factor)
            peaks.setdefault(instance, sample.peak_rss_mb)
    values: dict = {}
    details: dict = {
        "offered": offered,
        "instance_seeds": seeds,
        "cold_setups": len(setups),
        "serve_s": serves,
        "scaled_serve_s": scaled_serves,
        "setup_s": setups,
        "peak_rss_mb": [peaks.get(i) for i in range(len(specs))],
        "reference_s": statistics.median(pacer.references),
    }
    if peaks:
        values["peak_rss_mb"] = statistics.fmean(peaks.values())
    if scaled_serves:
        # The median over runs of different instances: robust to a run the
        # reference job failed to correct, and to one instance's unusual work.
        rates = [offered / s for s in scaled_serves]
        q1, q3 = quartiles(rates)
        values["req_per_s"] = statistics.median(rates)
        details.update(
            runs=len(rates),
            req_per_s_q1=q1,
            req_per_s_q3=q3,
            raw_req_per_s=offered / statistics.median(serves),
        )
    if setups:
        values["setup_s"] = statistics.median(scaled_setups)
        details["raw_setup_s"] = statistics.median(setups)
    values["fail_rate"] = attempts.failed / max(attempts.attempted, 1)
    units = {**END_TO_END, **REPORTED_ONLY}
    metrics = {key: _metric(value, units[key]) for key, value in values.items()}
    return _result(name, seed, attempts, metrics, details)


# ---------------------------------------------------------------- per layer


def layer_metrics(tracers: list[Tracer], factors: list[float], offered: int) -> dict:
    """The ``PER_LAYER`` metrics of traced runs (all but the harness-health ones).

    Times are medians over the traced runs, each scaled like an end-to-end
    time by its run's reference factor; counts come from the first run
    (they repeat).
    """
    first = tracers[0]

    def calls(layer):
        return first.spans[layer].calls

    def method_calls(key):
        return first.methods.get(key, [0])[0]

    def seconds(of):
        return statistics.median(of(t) * f for t, f in zip(tracers, factors))

    def self_s(layer):
        return seconds(lambda t: t.spans[layer].self_s)

    def incl_s(layer):
        return seconds(lambda t: t.spans[layer].incl_s)

    serves = calls("core.flstore.serve")
    places = method_calls("core.serverless_cache.place")
    events = first.counters["events"]
    looked_up = first.counters["cache_hits"] + first.counters["cache_misses"]
    ingest = "core.cache_engine.ingest_round"
    values = {
        "workloads.compute.calls": calls("workloads.compute"),
        "workloads.compute.self_s": self_s("workloads.compute"),
        "core.flstore.serve.calls": serves,
        "core.flstore.serve.self_s": self_s("core.flstore.serve"),
        "core.flstore.serve_per_req": serves / offered,
        "core.flstore.hit_ratio": first.counters["cache_hits"] / looked_up if looked_up else 0.0,
        "engine.vectorized.self_s": self_s("engine.vectorized"),
        "traces.arrivals.calls": calls("traces.arrivals"),
        "traces.arrivals.self_s": self_s("traces.arrivals"),
        "engine.streaming.fold.calls": method_calls("engine.streaming.fold"),
        "engine.streaming.self_s": self_s("engine.streaming"),
        "engine.kernel.self_s": self_s("engine.kernel"),
        "engine.kernel.events": events,
        "engine.kernel.events_per_req": events / offered,
        "serverless.queue.push.calls": method_calls("serverless.queue.push"),
        "serverless.queue.self_s": self_s("serverless.queue"),
        "routing.calls": calls("routing"),
        "routing.self_s": self_s("routing"),
        "core.serverless_cache.self_s": self_s("core.serverless_cache"),
        "core.serverless_cache.place.calls": places,
        "core.serverless_cache.place_per_serve": places / serves if serves else 0.0,
        "core.cache_engine.self_s": self_s("core.cache_engine"),
        f"{ingest}.calls": method_calls(ingest),
        f"{ingest}.self_s": seconds(lambda t: t.methods.get(ingest, [0, 0.0])[1]),
        "serverless.platform.self_s": self_s("serverless.platform"),
        "serverless.platform.spawn_function.calls": method_calls(
            "serverless.platform.spawn_function"
        ),
        "cloud.object_store.get.calls": method_calls("cloud.object_store.get"),
        "cloud.object_store.put.calls": method_calls("cloud.object_store.put"),
        "cloud.object_store.self_s": self_s("cloud.object_store"),
        "engine.autoscale.decide.calls": calls("engine.autoscale.decide"),
        "engine.autoscale.decide.self_s": self_s("engine.autoscale.decide"),
        "engine.sharded.resize.calls": calls("engine.sharded.resize"),
        "engine.sharded.resize.self_s": self_s("engine.sharded.resize"),
        "engine.remediate.shadow_runs": calls("engine.remediate"),
        "engine.remediate.shadow_s": incl_s("engine.remediate"),
        "scenario.build_tier.calls": calls("scenario.build_tier"),
        "scenario.build_tier.incl_s": incl_s("scenario.build_tier"),
        "engine.flstore.build_load_report.self_s": self_s("engine.flstore.build_load_report"),
        "traces.generator.self_s": self_s("traces.generator"),
        "scenario.run.self_s": self_s("scenario.run"),
    }
    return {key: _metric(value, PER_LAYER[key]) for key, value in values.items()}


def raw_self_seconds(tracers: list[Tracer]) -> dict:
    """Median unscaled self seconds of every layer over the traced runs."""
    return {
        layer: statistics.median(t.spans[layer].self_s for t in tracers)
        for layer in tracers[0].spans
    }


def serve_percentiles_us(tracers: list[Tracer]) -> dict:
    """p50/p99 of ``FLStore.serve`` call durations, when there are enough calls."""
    if tracers[0].spans["core.flstore.serve"].calls < MIN_PERCENTILE_CALLS:
        return {}
    samples = np.concatenate([t.spans["core.flstore.serve"].samples for t in tracers]) * 1e6
    p50, p99 = np.percentile(samples, [50, 99])
    return {
        "core.flstore.serve.p50_us": _metric(float(p50), "us"),
        "core.flstore.serve.p99_us": _metric(float(p99), "us"),
    }


def trace(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """The traced pass over one workload."""
    spec = workload_spec(name, seed, smoke)
    offered = offered_requests(spec)
    attempts = Attempts()
    before = setup_cache.stats.as_dict()
    attempts.attempt(cold_setup, spec)
    after = setup_cache.stats.as_dict()
    cache_hits = sum(after[k] - before[k] for k in after if k.endswith("_hits"))
    cache_misses = sum(after[k] - before[k] for k in after if k.endswith("_misses"))
    attempts.check_digest(attempts.attempt(timed_run, spec))

    pacer = Pacer(enabled=not smoke)
    overheads: list[float] = []
    tracers: list[Tracer] = []
    factors: list[float] = []
    self_sum_err = 0.0
    pairs = 0
    for _ in fitting(seconds, MIN_TRACE_PAIRS):
        pairs += 1
        plain = attempts.check_digest(attempts.attempt(timed_run, spec))
        plain_factor = pacer.factor()
        tracer = Tracer()
        with tracer.installed():
            sample = attempts.check_digest(attempts.attempt(timed_run, spec))
        factor = pacer.factor()
        if sample is None:
            continue
        tracers.append(tracer)
        factors.append(factor)
        self_sum_err = max(self_sum_err, abs(tracer.self_sum() - sample.wall_s) / sample.wall_s)
        if plain is not None:
            # Runs of one pair are next to each other in time, so their ratio
            # is steadier than a ratio of medians over the whole pass.
            overheads.append(sample.serve_s * factor / (plain.serve_s * plain_factor))

    values: dict = {
        "analysis.setup_cache.hits": cache_hits,
        "analysis.setup_cache.misses": cache_misses,
        "trace.self_sum_err": self_sum_err,
    }
    details: dict = {"offered": offered, "pairs": pairs}
    metrics: dict = {}
    if tracers:
        first = tracers[0]
        counts = first.counts()
        if any(tracer.counts() != counts for tracer in tracers[1:]):
            attempts.fail("layer counts differ between traced runs")
        if self_sum_err > MAX_SELF_SUM_ERR:
            attempts.fail(f"sum of self time is off the traced wall by {self_sum_err:.2%}")
        if first.missing:
            attempts.fail(f"wrapper targets not found: {', '.join(first.missing)}")
        metrics.update(layer_metrics(tracers, factors, offered))
        details["raw_self_s"] = raw_self_seconds(tracers)
        details["percentiles"] = serve_percentiles_us(tracers)
        details["coverage"] = {layer: span.calls for layer, span in first.spans.items()}
        details["counts"] = counts
    if overheads:
        values["trace.overhead"] = statistics.median(overheads)
    metrics.update({key: _metric(value, PER_LAYER[key]) for key, value in values.items()})
    if not smoke:
        fired = details.get("coverage", {})
        silent = [layer for layer in WORKLOADS[name].must_fire if not fired.get(layer)]
        if silent:
            attempts.fail(f"layers that must fire never did: {', '.join(silent)}")
    return _result(name, seed, attempts, metrics, details)


# ------------------------------------------------------------------ script


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tune_gc()
    passes = trace if args.trace else measure
    result = passes(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
