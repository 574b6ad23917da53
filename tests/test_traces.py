"""Request trace generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.rng import derive_rng
from repro.fl.catalog import RoundCatalog
from repro.traces.generator import RequestTraceGenerator
from repro.workloads.registry import EVALUATION_WORKLOADS, list_workloads


class TestWorkloadTraces:
    def test_p2_trace_walks_rounds_in_order(self, flstore, trace_generator):
        trace = trace_generator.workload_trace("malicious_filtering", 5)
        assert [r.round_id for r in trace] == [0, 1, 2, 3, 4]
        assert all(r.workload == "malicious_filtering" for r in trace)

    def test_p2_trace_wraps_around(self, flstore, trace_generator):
        total_rounds = len(flstore.catalog)
        trace = trace_generator.workload_trace("clustering", total_rounds + 2)
        assert trace[-1].round_id == trace[1].round_id

    def test_p1_trace_targets_latest_round(self, flstore, trace_generator):
        trace = trace_generator.workload_trace("inference", 4)
        assert {r.round_id for r in trace} == {flstore.catalog.latest_round}

    def test_p3_trace_follows_single_client(self, flstore, trace_generator):
        trace = trace_generator.workload_trace("debugging", 4)
        clients = {r.client_id for r in trace}
        assert len(clients) == 1
        client = clients.pop()
        assert all(client in flstore.catalog.participants(r.round_id) for r in trace)

    def test_p3_trace_respects_requested_client(self, flstore, trace_generator):
        client = flstore.catalog.participants(3)[0]
        trace = trace_generator.workload_trace("debugging", 2, client_id=client)
        assert all(r.client_id == client for r in trace)

    def test_p4_trace_targets_recent_rounds(self, flstore):
        generator = RequestTraceGenerator(flstore.catalog, seed=1, recent_rounds=3)
        trace = generator.workload_trace("scheduling_perf", 6)
        recent = set(flstore.catalog.recent_rounds(3))
        assert {r.round_id for r in trace} <= recent

    def test_history_rounds_and_params_propagate(self, trace_generator):
        trace = trace_generator.workload_trace(
            "debugging", 2, history_rounds=1, recent_rounds=5
        )
        assert all(r.history_rounds == 1 for r in trace)
        assert all(r.params["recent_rounds"] == 5 for r in trace)

    def test_request_ids_are_unique(self, trace_generator):
        trace = trace_generator.workload_trace("clustering", 10)
        assert len({r.request_id for r in trace}) == 10

    def test_start_round_honoured(self, trace_generator):
        trace = trace_generator.workload_trace("clustering", 3, start_round=4)
        assert trace[0].round_id == 4

    def test_empty_catalog_rejected(self):
        generator = RequestTraceGenerator(RoundCatalog(), seed=1)
        with pytest.raises(ValueError):
            generator.workload_trace("clustering", 3)

    def test_negative_count_rejected(self, trace_generator):
        with pytest.raises(ValueError):
            trace_generator.workload_trace("clustering", -1)

    def test_zero_requests_allowed(self, trace_generator):
        assert trace_generator.workload_trace("clustering", 0) == []


class TestMixedTraces:
    def test_mixed_trace_length_and_composition(self, trace_generator):
        trace = trace_generator.mixed_trace(list(EVALUATION_WORKLOADS[:4]), 40)
        assert len(trace) == 40
        assert {r.workload for r in trace} <= set(EVALUATION_WORKLOADS[:4])
        assert len({r.workload for r in trace}) >= 2

    def test_weights_bias_composition(self, flstore):
        generator = RequestTraceGenerator(flstore.catalog, seed=5)
        trace = generator.mixed_trace(["inference", "clustering"], 60, weights=[0.9, 0.1])
        inference_count = sum(1 for r in trace if r.workload == "inference")
        assert inference_count > 40

    def test_weight_length_mismatch(self, trace_generator):
        with pytest.raises(ValueError):
            trace_generator.mixed_trace(["inference"], 5, weights=[0.5, 0.5])

    def test_empty_workloads_rejected(self, trace_generator):
        with pytest.raises(ValueError):
            trace_generator.mixed_trace([], 5)

    def test_negative_count_rejected(self, trace_generator):
        with pytest.raises(ValueError, match="non-negative"):
            trace_generator.mixed_trace(["inference"], -1)


def scalar_draws(rng, workload_names, num_requests, weights):
    """The mixture's workload names, one scalar ``rng.choice`` per request."""
    probabilities = None
    if weights is not None:
        weights_array = np.asarray(weights, dtype=float)
        probabilities = weights_array / weights_array.sum()
    return [
        workload_names[int(rng.choice(len(workload_names), p=probabilities))]
        for _ in range(num_requests)
    ]


class TestBatchedMixtureDraw:
    """One batched ``rng.choice`` draws the same names as one scalar draw per request."""

    MIXES = [list_workloads()[:count] for count in (1, 2, 3, 5, 11)]

    @staticmethod
    def weights_for(names, weighted):
        return [float(index + 1) ** 2 for index in range(len(names))] if weighted else None

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("names", MIXES, ids=len)
    def test_mixed_trace(self, flstore, names, weighted):
        weights = self.weights_for(names, weighted)
        trace = RequestTraceGenerator(flstore.catalog, seed=97).mixed_trace(names, 300, weights)
        expected = scalar_draws(derive_rng(97, "mixed-trace"), names, 300, weights)
        assert [request.workload for request in trace] == expected

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("names", MIXES, ids=len)
    def test_tenant_trace(self, flstore, names, weighted):
        weights = self.weights_for(names, weighted)
        generator = RequestTraceGenerator(flstore.catalog, seed=97)
        trace = generator.tenant_trace("bursty", names, 300, weights)
        expected = scalar_draws(derive_rng(97, "tenant-trace", "bursty"), names, 300, weights)
        assert [request.workload for request in trace] == expected
        assert {request.tenant_id for request in trace} == {"bursty"}


class TestTraceStats:
    def test_stats_summarize_trace(self, trace_generator):
        trace = trace_generator.workload_trace("clustering", 5)
        stats = RequestTraceGenerator.stats(trace)
        assert stats.num_requests == 5
        assert stats.workloads == ("clustering",)
        assert stats.first_round == 0

    def test_stats_on_empty_trace(self):
        stats = RequestTraceGenerator.stats([])
        assert stats.num_requests == 0
        assert stats.first_round == -1

    def test_most_active_client_is_deterministic(self, flstore):
        a = RequestTraceGenerator(flstore.catalog, seed=1).most_active_client()
        b = RequestTraceGenerator(flstore.catalog, seed=2).most_active_client()
        assert a == b


class TestMixedTraceDeterminism:
    WORKLOADS = ["inference", "clustering", "debugging"]

    @staticmethod
    def _fingerprint(trace):
        return [(r.request_id, r.workload, r.round_id, r.client_id) for r in trace]

    def test_same_seed_across_two_generator_instances(self, flstore):
        first = RequestTraceGenerator(flstore.catalog, seed=9)
        second = RequestTraceGenerator(flstore.catalog, seed=9)
        trace_a = first.mixed_trace(self.WORKLOADS, 40)
        trace_b = second.mixed_trace(self.WORKLOADS, 40)
        assert self._fingerprint(trace_a) == self._fingerprint(trace_b)

    def test_different_seeds_produce_different_mixes(self, flstore):
        trace_a = RequestTraceGenerator(flstore.catalog, seed=9).mixed_trace(self.WORKLOADS, 40)
        trace_b = RequestTraceGenerator(flstore.catalog, seed=10).mixed_trace(self.WORKLOADS, 40)
        assert [r.workload for r in trace_a] != [r.workload for r in trace_b]

    def test_stats_totals_match_the_emitted_trace(self, flstore):
        generator = RequestTraceGenerator(flstore.catalog, seed=9)
        trace = generator.mixed_trace(self.WORKLOADS, 30)
        stats = RequestTraceGenerator.stats(trace)
        assert stats.num_requests == len(trace) == 30
        assert set(stats.workloads) == {r.workload for r in trace}
        assert stats.first_round == min(r.round_id for r in trace)
        assert stats.last_round == max(r.round_id for r in trace)
