"""The discrete-event engine: kernel, queues, and serving equivalence."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import CapacityError
from repro.config import SimulationConfig
from repro.core.flstore import build_default_flstore
from repro.engine import (
    EngineFLStore,
    EventLoop,
    FaultPlan,
    ShardedEngineFLStore,
    SimTask,
    Timeout,
)
from repro.fl.trainer import FLJobSimulator
from repro.scenario import FaultSpec
from repro.serverless.faults import ZipfianFaultInjector
from repro.serverless.function import RequestQueue, ServerlessFunction
from repro.serverless.platform import ServerlessPlatform
from repro.traces.generator import RequestTraceGenerator


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(3.0, lambda: fired.append("c"))
        loop.schedule_at(1.0, lambda: fired.append("a"))
        loop.schedule_at(2.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_same_timestamp_ties_break_by_scheduling_order(self):
        loop = EventLoop()
        fired = []
        for label in ("first", "second", "third"):
            loop.schedule_at(5.0, lambda label=label: fired.append(label))
        loop.run()
        assert fired == ["first", "second", "third"]

    def test_cannot_schedule_into_the_past(self):
        loop = EventLoop()
        loop.schedule_at(2.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_run_until_stops_the_clock_exactly(self):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1.0, lambda: fired.append(1))
        loop.schedule_at(10.0, lambda: fired.append(10))
        loop.run(until=5.0)
        assert fired == [1]
        assert loop.now == 5.0
        assert loop.pending() == 1

    def test_process_timeout_and_return_value(self):
        loop = EventLoop()

        def worker():
            yield Timeout(2.0)
            yield Timeout(0.5)
            return "done"

        task = loop.process(worker())
        loop.run()
        assert task.done and task.result == "done"
        assert loop.now == 2.5

    def test_process_waits_on_another_task(self):
        loop = EventLoop()
        trail = []

        def producer():
            yield Timeout(1.0)
            return 42

        def consumer(upstream):
            value = yield upstream
            trail.append((loop.now, value))
            return value * 2

        upstream = loop.process(producer())
        downstream = loop.process(consumer(upstream))
        loop.run()
        assert trail == [(1.0, 42)]
        assert downstream.result == 84

    def test_waiting_on_done_task_resumes_via_heap(self):
        loop = EventLoop()
        done = SimTask(loop)
        done.resolve("ready")

        def waiter():
            value = yield done
            return value

        task = loop.process(waiter())
        assert not task.done  # resumption is deferred to the event heap
        loop.run()
        assert task.result == "ready"

    def test_yielding_garbage_raises(self):
        loop = EventLoop()

        def bad():
            yield "nope"

        with pytest.raises(TypeError):
            loop.process(bad())

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError, match="non-negative"):
            loop.schedule(-0.1, lambda: None)
        assert loop.pending() == 0

    def test_task_double_resolve_rejected(self):
        loop = EventLoop()
        task = SimTask(loop)
        task.resolve(1)
        with pytest.raises(RuntimeError):
            task.resolve(2)
        assert task.result == 1


# ---------------------------------------------------------------------------
# Queues and concurrency slots
# ---------------------------------------------------------------------------


class TestRequestQueue:
    def test_fifo_pops_in_arrival_order(self):
        queue = RequestQueue("fifo")
        for token in ("a", "b", "c"):
            queue.push(token, priority=5.0)  # priority ignored under FIFO
        assert [queue.pop() for _ in range(3)] == ["a", "b", "c"]

    def test_priority_pops_lowest_first_and_ties_fifo(self):
        queue = RequestQueue("priority")
        queue.push("late-low", priority=1.0)
        queue.push("urgent", priority=0.0)
        queue.push("also-urgent", priority=0.0)
        assert [queue.pop() for _ in range(3)] == ["urgent", "also-urgent", "late-low"]

    def test_drain_returns_pop_order(self):
        queue = RequestQueue("priority")
        queue.push("b", priority=2.0)
        queue.push("a", priority=1.0)
        assert queue.drain() == ["a", "b"]
        assert len(queue) == 0

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError):
            RequestQueue("lifo")


class TestConcurrencySlots:
    def test_function_slot_accounting(self):
        function = ServerlessFunction("fn-0", concurrency_limit=2)
        assert function.has_execution_slot
        function.begin_execution()
        function.begin_execution()
        assert not function.has_execution_slot
        with pytest.raises(CapacityError):
            function.begin_execution()
        function.end_execution()
        assert function.has_execution_slot

    def test_reclaim_clears_active_executions(self):
        function = ServerlessFunction("fn-0", concurrency_limit=1)
        function.begin_execution()
        function.reclaim()
        assert function.active_executions == 0
        function.end_execution()  # past zero is a no-op
        assert function.active_executions == 0

    def test_platform_slot_handoff_to_waiter(self):
        platform = ServerlessPlatform()
        function, _ = platform.spawn_function()
        fid = function.function_id
        assert platform.try_acquire_slot(fid)
        assert not platform.try_acquire_slot(fid)  # concurrency default is 1
        platform.enqueue_waiter(fid, "waiter-1")
        platform.enqueue_waiter(fid, "waiter-2")
        assert platform.queue_depth(fid) == 2
        assert platform.release_slot(fid) == "waiter-1"  # slot handed over
        assert function.active_executions == 1
        assert platform.queue_depth(fid) == 1
        assert platform.release_slot(fid) == "waiter-2"
        assert platform.release_slot(fid) is None
        assert platform.total_queue_depth() == 0

    def test_drain_waiters(self):
        platform = ServerlessPlatform()
        function, _ = platform.spawn_function()
        platform.enqueue_waiter(function.function_id, "x")
        platform.enqueue_waiter(function.function_id, "y")
        assert platform.drain_waiters(function.function_id) == ["x", "y"]
        assert platform.queue_depth(function.function_id) == 0


# ---------------------------------------------------------------------------
# The engine shard, served through a one-shard tier
# ---------------------------------------------------------------------------


def _ingested_flstore(config, rounds):
    system = build_default_flstore(config)
    for record in rounds:
        system.ingest_round(record)
    return system


@pytest.fixture(scope="module")
def engine_config():
    return SimulationConfig.small(seed=11)


@pytest.fixture(scope="module")
def engine_rounds(engine_config):
    return FLJobSimulator(engine_config).run_rounds(8)


class TestEngineShard:
    def test_engine_rejects_flstore_with_its_own_injector(self, engine_config):
        flstore = build_default_flstore(
            engine_config, fault_injector=ZipfianFaultInjector(fault_rate=0.5)
        )
        with pytest.raises(ValueError, match="reclamation-storm"):
            EngineFLStore(flstore)


class TestOpenLoop:
    def _engine(self, engine_config, engine_rounds):
        return ShardedEngineFLStore([_ingested_flstore(engine_config, engine_rounds)])

    def test_simultaneous_burst_queues_on_the_execution_function(
        self, engine_config, engine_rounds
    ):
        engine = self._engine(engine_config, engine_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.workload_trace("inference", 6)
        report = engine.run_open_loop(trace, [0.0] * len(trace), label="burst")
        assert report.completed == 6
        # One request executes immediately, the rest wait: sojourns strictly
        # exceed service for the queued ones and the queue was observed.
        assert report.max_queue_depth >= 1
        assert report.mean_wait_seconds > 0
        waits = sorted(outcome.wait_seconds for outcome in report.outcomes)
        assert waits[0] == 0.0
        assert waits[-1] > 0.0
        assert report.p99_sojourn_seconds >= report.p50_sojourn_seconds

    def test_open_loop_is_deterministic(self, engine_config, engine_rounds):
        def run_once():
            engine = self._engine(engine_config, engine_rounds)
            generator = RequestTraceGenerator(engine.catalog, seed=3)
            trace = generator.mixed_trace(["inference", "clustering"], 30)
            from repro.traces.arrivals import PoissonArrivals

            arrivals = PoissonArrivals(rate_rps=1.0, seed=5).times(len(trace))
            report = engine.run_open_loop(trace, arrivals, label="poisson", keepalive=True)
            return report.row(), [
                (o.request.request_id, o.arrived_at, o.started_at, o.completed_at)
                for o in report.outcomes
            ]

        first_row, first_outcomes = run_once()
        second_row, second_outcomes = run_once()
        assert first_row == second_row
        assert first_outcomes == second_outcomes

    def test_request_records_carry_queue_wait(self, engine_config, engine_rounds):
        engine = self._engine(engine_config, engine_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.workload_trace("inference", 4)
        report = engine.run_open_loop(trace, [0.0] * len(trace), label="burst")
        records = report.to_records(system="engine-flstore", model_name="resnet18")
        assert len(records) == 4
        total_wait = sum(outcome.wait_seconds for outcome in report.outcomes)
        total_queueing = sum(r.latency.queueing_seconds for r in records)
        analytic_queueing = sum(o.result.latency.queueing_seconds for o in report.outcomes)
        assert total_queueing == pytest.approx(analytic_queueing + total_wait)
        assert {r.system for r in records} == {"engine-flstore"}

    def test_open_loop_runs_compose_on_one_engine(self, engine_config, engine_rounds):
        engine = self._engine(engine_config, engine_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        first = engine.run_open_loop(
            generator.workload_trace("inference", 4), [0.0] * 4, label="one"
        )
        resume_at = engine.loop.now
        # Arrival times are relative to each run's start, so a second sweep
        # point on the same engine starts cleanly after the first.
        second = engine.run_open_loop(
            generator.workload_trace("clustering", 3), [0.0, 0.1, 0.2], label="two"
        )
        assert first.completed == 4
        assert second.completed == 3
        assert all(outcome.arrived_at >= resume_at for outcome in second.outcomes)
        # Per-run counters: the burst of run one must not leak into run two's
        # queue-depth profile.
        assert first.max_queue_depth >= 1
        assert second.max_queue_depth <= first.max_queue_depth

    def test_mismatched_lengths_rejected(self, engine_config, engine_rounds):
        engine = self._engine(engine_config, engine_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.workload_trace("inference", 3)
        with pytest.raises(ValueError):
            engine.run_open_loop(trace, [0.0, 1.0])

    def test_keepalive_fires_as_scheduled_events(self, engine_config, engine_rounds):
        engine = self._engine(engine_config, engine_rounds)
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering"], 10)
        # Spread arrivals far beyond the keep-alive interval so pings fire.
        interval = engine.config.serverless.keepalive_interval_seconds
        arrivals = [i * interval for i in range(len(trace))]
        report = engine.run_open_loop(trace, arrivals, label="slow", keepalive=True)
        assert report.completed == 10
        assert report.keepalive_pings > 0

    def test_keepalive_rejects_a_non_positive_interval(self, engine_config, engine_rounds):
        # The serverless config does not validate the interval; the daemon does.
        config = replace(
            engine_config,
            serverless=replace(engine_config.serverless, keepalive_interval_seconds=0.0),
        )
        engine = self._engine(config, engine_rounds)
        with pytest.raises(ValueError, match="keepalive interval must be positive"):
            engine.shards[0].schedule_keepalive(lambda: True)

    def _storm_run(self, engine_config, engine_rounds):
        """Twenty requests 0.1 s apart under a reclamation storm (four bursts)."""
        engine = self._engine(engine_config, engine_rounds)
        storm = FaultSpec(
            kind="reclamation-storm",
            onset_seconds=0.5,
            duration_seconds=1.5,
            interval_seconds=0.5,
            magnitude=4.0,
        )
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        trace = generator.mixed_trace(["inference", "clustering"], 20)
        arrivals = [0.1 * i for i in range(len(trace))]
        report = engine.run_open_loop(
            trace, arrivals, label="faulty", fault_plan=FaultPlan(engine, [storm], seed=13)
        )
        return engine, report

    def test_scheduled_reclamations_drain_waiters(self, engine_config, engine_rounds):
        engine, report = self._storm_run(engine_config, engine_rounds)
        # Every request completes even though functions are being reclaimed
        # underneath the queues.
        assert report.completed == 20
        assert engine.reclamations > 0
        assert engine.shards[0].platform.total_queue_depth() == 0

    def test_drained_waiters_are_recorded_as_requeued(self, engine_config, engine_rounds):
        """Satellite fix: waiters drained by a reclamation must show up in the
        accounting (disposition, report counters, shard counters) instead of
        silently completing as if they had been served normally."""
        engine, report = self._storm_run(engine_config, engine_rounds)
        requeued = [o for o in report.outcomes if o.disposition == "requeued"]
        assert requeued, "the storm must drain at least one waiter"
        assert report.requeued == len(requeued)
        # Requeued requests still completed with a response (they are part
        # of served goodput), and conservation covers every submission.
        assert report.served + report.degraded + report.shed == report.submitted
        assert engine.requeued_requests == report.requeued
        assert engine.shards[0].requeued_requests == report.requeued
        # Every requeued row is ServeResult-compatible: it converts into a
        # RequestRecord like any served request.
        records = report.to_records(system="engine-flstore", model_name="m")
        assert len(records) == report.submitted

    def test_load_sweep_queues_more_as_load_crosses_the_service_rate(self):
        """``engine-baseline`` at 10 rounds x 80 requests, arrival process x
        offered utilization: every cell completes, and for each process the
        p95 sojourn at rho 2 is at least the one at rho 0.5."""
        from repro.scenario import get_scenario, sweep

        base = get_scenario("engine-baseline").with_overrides(
            {"num_rounds": 10, "workload.num_requests": 80}
        )
        axes = {
            "arrival.kind": ("poisson", "bursty", "diurnal"),
            "arrival.utilization": (0.5, 1.0, 2.0),
        }
        rows = sweep(base, axes)
        assert len(rows) == 9
        assert all(row["completed"] == 80 for row in rows)
        by_point = {(row["process"], row["utilization"]): row for row in rows}
        for process in ("poisson", "bursty", "diurnal"):
            light, heavy = by_point[(process, 0.5)], by_point[(process, 2.0)]
            assert heavy["p95_sojourn_seconds"] >= light["p95_sojourn_seconds"]


class TestPriorityServing:
    """Satellite: the ``priority`` discipline under overload must separate
    latency-critical P1 traffic from batch P4 traffic."""

    def _run(self, engine_config, engine_rounds, discipline):
        import numpy as np

        from repro.traces.arrivals import BurstyArrivals
        from repro.workloads.registry import workload_priority

        config = replace(
            engine_config,
            serverless=replace(engine_config.serverless, queue_discipline=discipline),
        )
        engine = ShardedEngineFLStore([_ingested_flstore(config, engine_rounds)])
        generator = RequestTraceGenerator(engine.catalog, seed=3)
        # inference is P1 (priority 1.0), scheduling_perf is P4 (priority 4.0).
        trace = generator.mixed_trace(["inference", "scheduling_perf"], 40)
        priorities = [workload_priority(request.workload) for request in trace]
        arrivals = BurstyArrivals(
            rate_rps=2.0, seed=5, mean_on_seconds=2.0, mean_off_seconds=8.0
        ).times(len(trace))
        report = engine.run_open_loop(trace, arrivals, priorities=priorities, label="bursty")
        assert report.completed == 40
        means = {}
        for workload in ("inference", "scheduling_perf"):
            sojourns = [
                o.sojourn_seconds for o in report.outcomes if o.request.workload == workload
            ]
            means[workload] = float(np.mean(sojourns))
        return means, [
            (o.request.request_id, o.arrived_at, o.started_at, o.completed_at)
            for o in report.outcomes
        ]

    def test_priority_separates_p1_from_p4_under_overload(self, engine_config, engine_rounds):
        fifo_means, _ = self._run(engine_config, engine_rounds, "fifo")
        priority_means, _ = self._run(engine_config, engine_rounds, "priority")
        # Under FIFO the two classes see statistically similar sojourns;
        # under priority, P1 must be strictly faster and P4 strictly slower
        # than their FIFO baselines (work-conserving reshuffling).
        assert priority_means["inference"] < fifo_means["inference"] * 0.8
        assert priority_means["scheduling_perf"] > fifo_means["scheduling_perf"] * 1.2
        assert priority_means["inference"] < priority_means["scheduling_perf"] / 2

    def test_priority_overload_run_is_deterministic(self, engine_config, engine_rounds):
        first = self._run(engine_config, engine_rounds, "priority")
        second = self._run(engine_config, engine_rounds, "priority")
        assert first == second
