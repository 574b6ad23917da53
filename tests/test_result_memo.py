"""Workload-result reuse on the serve path (``repro.workloads.base.memoized_compute``).

A serving system hands one ``compute`` result to every request with equal
compute inputs.  These tests pin the hit rule, check that each registered
workload's ``memoizable`` flag tells the truth, compare every result served
by every registered scenario against a fresh compute, and check that a memo
never outlives the store that owns it.  FLStore's per-signature request plans
(``FLStore.request_plan``) are held to the same standard: every plan equals a
fresh one, across catalog changes, and snapshots start without any.
"""

from __future__ import annotations

import copy

import pytest

import repro.engine.flstore as engine_flstore
from repro.analysis import setup_cache
from repro.analysis.runner import prepare_setup
from repro.config import SimulationConfig
from repro.core.flstore import FLStore
from repro.fl.keys import DataKey
from repro.scenario import calibrate, get_scenario, list_scenarios, run, smoke_spec
from repro.workloads.base import Workload, WorkloadRequest, memoized_compute
from repro.workloads.registry import get_workload, list_workloads


class _CountingWorkload(Workload):
    """A pure workload that counts its ``compute`` calls."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def required_keys(self, request, catalog):
        return []

    def compute(self, request, data):
        self.calls += 1
        return {"round_id": request.round_id, "num_objects": len(data)}


def _request(
    request_id: str = "r-1", client_id: int | None = None, history_rounds: int = 2, **params
) -> WorkloadRequest:
    return WorkloadRequest(
        request_id=request_id,
        workload="counting",
        round_id=1,
        client_id=client_id,
        history_rounds=history_rounds,
        params=params,
    )


def _count_compute_calls(monkeypatch) -> list[int]:
    """Wrap every registered workload class's ``compute``; returns the live call counter."""
    counter = [0]
    # Patched on the classes: undoing a patch on an instance would leave a
    # bound method behind that shadows later class-level wrappers.
    for cls in {type(get_workload(name)) for name in list_workloads()}:
        original = cls.compute

        def counting(self, request, data, original=original):
            counter[0] += 1
            return original(self, request, data)

        monkeypatch.setattr(cls, "compute", counting)
    return counter


class TestHitRule:
    def test_repeated_inputs_reuse_one_result(self):
        workload, memo = _CountingWorkload(), {}
        data = {DataKey.aggregate(0): object(), DataKey.aggregate(1): object()}
        first = memoized_compute(memo, workload, _request("r-1"), data)
        second = memoized_compute(memo, workload, _request("r-2"), dict(data))
        assert second is first
        assert workload.calls == 1

    def test_replaced_value_recomputes(self):
        workload, memo = _CountingWorkload(), {}
        value = {"weights": [1.0, 2.0]}
        data = {DataKey.aggregate(0): object(), DataKey.aggregate(1): value}
        first = memoized_compute(memo, workload, _request(), data)
        # An equal but distinct object under the same key is a new input.
        replaced = {**data, DataKey.aggregate(1): copy.deepcopy(value)}
        second = memoized_compute(memo, workload, _request(), replaced)
        assert workload.calls == 2
        assert second == first and second is not first
        # The entry now holds the replacement, so the original recomputes too.
        memoized_compute(memo, workload, _request(), data)
        assert workload.calls == 3

    def test_other_inputs_miss(self):
        workload, memo = _CountingWorkload(), {}
        data = {DataKey.aggregate(0): object()}
        memoized_compute(memo, workload, _request(), data)
        memoized_compute(memo, workload, _request(num_clusters=3), data)
        memoized_compute(memo, workload, _request(client_id=2), data)
        memoized_compute(memo, workload, _request(history_rounds=3), data)
        memoized_compute(memo, workload, _request(), {**data, DataKey.aggregate(1): object()})
        assert workload.calls == 5
        # A workload registered anew under the same name computes its own results.
        replacement = _CountingWorkload()
        memoized_compute(memo, replacement, _request(), data)
        assert replacement.calls == 1
        assert len(memo) == 6

    def test_list_valued_param_is_computed_not_raised_on(self):
        workload, memo = _CountingWorkload(), {}
        data = {DataKey.aggregate(0): object()}
        for _ in range(2):
            result = memoized_compute(memo, workload, _request(clients=[1, 2]), data)
            assert result == {"round_id": 1, "num_objects": 1}
        assert workload.calls == 2
        assert memo == {}

    def test_unmemoizable_workload_is_always_computed(self):
        workload, memo = _CountingWorkload(), {}
        workload.memoizable = False
        data = {DataKey.aggregate(0): object()}
        memoized_compute(memo, workload, _request(), data)
        memoized_compute(memo, workload, _request(), data)
        assert workload.calls == 2
        assert memo == {}


def _stored_data(flstore: FLStore, workload: Workload, request: WorkloadRequest) -> dict:
    """The objects ``request`` needs, read back from ``flstore``'s persistent store."""
    store = flstore.persistent_store
    return {
        key: store.get(key).value
        for key in workload.required_keys(request, flstore.catalog)
        if store.contains(key)
    }


@pytest.fixture(scope="module")
def ingested():
    return prepare_setup(SimulationConfig.small(seed=11), num_rounds=4, systems=("flstore",))


class TestMemoizableFlag:
    """``memoizable`` is true exactly for workloads that ignore request identity."""

    @pytest.mark.parametrize("name", list_workloads())
    def test_flag_matches_what_compute_reads(self, name, ingested):
        workload = get_workload(name)
        client = ingested.flstore.catalog.participants(3)[0]
        requests = [
            WorkloadRequest(
                request_id=request_id,
                workload=name,
                round_id=3,
                client_id=client,
                tenant_id=tenant,
            )
            for request_id, tenant in (("req-000001", None), ("req-000002", "tenant-b"))
        ]
        data = _stored_data(ingested.flstore, workload, requests[0])
        first, second = (workload.compute(request, data) for request in requests)
        if workload.memoizable:
            assert first == second
        else:
            assert first != second


def _fresh_plan(flstore: FLStore, workload: Workload, request: WorkloadRequest) -> tuple:
    """What ``FLStore.request_plan`` must answer, derived without its memo."""
    keys = tuple(workload.required_keys(request, flstore.catalog))
    return (
        keys,
        workload.compute_seconds(flstore.model_spec, max(len(keys), 1)),
        flstore.topology.client.transfer_seconds(workload.result_size_bytes),
    )


class TestRequestPlans:
    """A store plans each request signature once per catalog version."""

    @pytest.mark.parametrize("name", list_workloads())
    def test_request_id_and_tenant_do_not_change_the_keys(self, name, ingested):
        flstore = ingested.flstore
        workload = get_workload(name)
        client = flstore.catalog.participants(3)[0]
        requests = [
            WorkloadRequest(
                request_id=request_id,
                workload=name,
                round_id=3,
                client_id=client,
                params={"recent_rounds": 2},
                tenant_id=tenant,
            )
            for request_id, tenant in (
                ("plan-1", None),
                ("plan-2", None),
                ("plan-3", "tenant-a"),
                ("plan-4", "tenant-b"),
            )
        ]
        keys = [workload.required_keys(request, flstore.catalog) for request in requests]
        assert keys[0] and all(other == keys[0] for other in keys[1:])
        plans = [flstore.request_plan(workload, request) for request in requests]
        assert plans[0] == _fresh_plan(flstore, workload, requests[0])
        assert all(plan is plans[0] for plan in plans[1:])

    @pytest.mark.parametrize("name", list_workloads())
    def test_plans_follow_catalog_changes(self, name, small_config, rounds):
        flstore = FLStore(config=small_config)
        for record in rounds[:4]:
            flstore.ingest_round(record)
        workload = get_workload(name)
        catalog = flstore.catalog
        client = catalog.participants(3)[0]
        request = WorkloadRequest("plan-1", name, round_id=5, client_id=client)
        seen = [flstore.request_plan(workload, request)]
        for change in (
            lambda: flstore.ingest_round(rounds[4]),
            lambda: flstore.ingest_round(rounds[5]),
            # Rewrite a known round's membership: only the version says so.
            lambda: catalog.register_membership(5, catalog.participants(5)[:2], [client]),
            lambda: catalog.register_membership(4, [client]),
        ):
            version = catalog.version
            change()
            assert catalog.version == version + 1
            plan = flstore.request_plan(workload, request)
            assert plan == _fresh_plan(flstore, workload, request)
            seen.append(plan)
        assert len(set(seen)) > 1 or name == "inference"

    @pytest.mark.parametrize(
        ("name", "field", "values"),
        [
            ("clustering", "round_id", (2, 3)),
            ("debugging", "client_id", "two participants"),
            ("debugging", "history_rounds", (1, 3)),
            ("scheduling_perf", "params", ({"recent_rounds": 1}, {"recent_rounds": 3})),
        ],
    )
    def test_each_signature_field_keys_its_own_plan(self, name, field, values, ingested):
        flstore = ingested.flstore
        workload = get_workload(name)
        catalog = flstore.catalog
        participants = catalog.participants(3)
        if values == "two participants":
            values = tuple(participants[:2])
        # The client with the longest history, so the history window matters.
        client = max(participants, key=lambda cid: len(catalog.rounds_for_client(cid, up_to=3)))
        base = {"round_id": 3, "client_id": client}
        requests = [
            WorkloadRequest(f"plan-{value}", name, **{**base, field: value}) for value in values
        ]
        plans = [flstore.request_plan(workload, request) for request in requests]
        assert plans[0].keys != plans[1].keys
        assert plans == [_fresh_plan(flstore, workload, request) for request in requests]

    def test_unhashable_params_are_planned_afresh(self, ingested):
        flstore = ingested.flstore
        workload = get_workload("clustering")
        request = WorkloadRequest("plan-1", "clustering", round_id=3, params={"clients": [1]})
        before = dict(flstore._plan_memo)
        plans = [flstore.request_plan(workload, request) for _ in range(2)]
        assert plans[0] == plans[1] == _fresh_plan(flstore, workload, request)
        assert plans[0] is not plans[1]
        assert flstore._plan_memo == before


class TestScenarioResults:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_every_result_equals_a_fresh_compute(self, name, monkeypatch):
        """Each served and degraded result equals a recompute over the shard's data."""
        served: list[tuple[FLStore, WorkloadRequest, dict]] = []
        serve, degraded = FLStore.serve, engine_flstore.serve_degraded

        def recording_serve(self, request):
            outcome = serve(self, request)
            served.append((self, request, outcome.result))
            return outcome

        def recording_degraded(flstore, request):
            outcome = degraded(flstore, request)
            served.append((flstore, request, outcome.result))
            return outcome

        monkeypatch.setattr(FLStore, "serve", recording_serve)
        monkeypatch.setattr(engine_flstore, "serve_degraded", recording_degraded)
        report = run(smoke_spec(get_scenario(name)))

        recorded = {id(result) for _, _, result in served}
        finished = [o for o in report.load.outcomes if o.disposition != "shed"]
        assert all(id(o.result.result) in recorded for o in finished)
        assert served
        for flstore, request, result in served:
            workload = get_workload(request.workload)
            assert result == workload.compute(request, _stored_data(flstore, workload, request))
            # The plan the serve used is what a fresh plan answers now.
            plan = flstore.request_plan(workload, request)
            assert plan == _fresh_plan(flstore, workload, request)


class TestMemoLifetime:
    @pytest.mark.parametrize("name", list_scenarios())
    def test_repeated_runs_compute_alike(self, name, monkeypatch):
        """A second run in a warm process recomputes everything its first run did."""
        spec = smoke_spec(get_scenario(name))
        calibrate(spec)  # calibration is cached per process; keep it out of both counts
        counter = _count_compute_calls(monkeypatch)
        counts = []
        for _ in range(2):
            counter[0] = 0
            run(spec)
            counts.append(counter[0])
        assert counts[0] == counts[1] > 0

    def test_snapshot_stores_start_with_an_empty_memo(self):
        """Result memos, and FLStore's request plans, start empty on every snapshot."""
        config = SimulationConfig.small(seed=29)
        systems = ("flstore", "objstore-agg", "cache-agg")
        assert FLStore(config=config)._plan_memo == {}
        setup = prepare_setup(config, num_rounds=3, systems=systems)
        assert setup.flstore._plan_memo == {}
        for _ in range(2):
            trace = setup.generator.mixed_trace(["clustering", "scheduling_perf"], 6)
            for system in setup.systems.values():
                for request in trace:
                    system.serve(request)
                assert system._result_memo
            assert setup.flstore._plan_memo
            hits = setup_cache.stats.snapshot_hits
            setup = prepare_setup(config, num_rounds=3, systems=systems)
            assert setup_cache.stats.snapshot_hits == hits + 1
            assert all(system._result_memo == {} for system in setup.systems.values())
            assert setup.flstore._plan_memo == {}
