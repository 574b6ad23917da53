"""Generation of non-training request traces.

The paper evaluates FLStore against the baselines on a 50-hour trace of 3000
non-training requests spanning ten workloads (Section 5.2), and evaluates the
caching policies on traces "crafted from FL jobs for 10 clients each round
from a pool of 250 over 2000 rounds" (Table 2).  The generator below produces
both kinds of traces deterministically from a :class:`RoundCatalog`:

* per-workload traces that follow the natural access pattern of the
  workload's taxonomy class (per-round for P2/P4, across-round for P3,
  latest-model for P1), and
* mixed traces that interleave several workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.ids import IdGenerator
from repro.common.rng import derive_rng
from repro.fl.catalog import RoundCatalog
from repro.workloads.base import PolicyClass, WorkloadRequest
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class TraceStats:
    """Summary of a generated trace."""

    num_requests: int
    workloads: tuple[str, ...]
    first_round: int
    last_round: int


class RequestTraceGenerator:
    """Builds deterministic request traces over the rounds known to a catalog."""

    def __init__(self, catalog: RoundCatalog, seed: int = 7, recent_rounds: int = 10) -> None:
        self.catalog = catalog
        self.seed = seed
        self.recent_rounds = recent_rounds
        self._ids = IdGenerator(prefix="trace-req", width=6)

    # ------------------------------------------------------------ single flow

    def workload_trace(
        self,
        workload_name: str,
        num_requests: int,
        start_round: int | None = None,
        client_id: int | None = None,
        history_rounds: int = 2,
        **params: object,
    ) -> list[WorkloadRequest]:
        """A trace of ``num_requests`` requests for one workload.

        The request rounds follow the workload's natural access pattern:

        * **P1** (inference/serving): every request targets the latest round.
        * **P2** (per-round analyses): requests walk forward one round at a
          time, wrapping around when they reach the newest round.
        * **P3** (across-round tracing): requests follow one client through
          the rounds it participated in.
        * **P4** (metadata): requests walk forward across recent rounds, like
          P2, but target metadata.
        """
        workload = get_workload(workload_name)
        rounds = self.catalog.rounds()
        if not rounds:
            raise ValueError("the catalog has no registered rounds; ingest rounds first")
        if num_requests < 0:
            raise ValueError("num_requests must be non-negative")

        if workload.policy_class is PolicyClass.P1_INDIVIDUAL:
            request_rounds = [self.catalog.latest_round] * num_requests
            return self._emit(workload_name, request_rounds, None, params, history_rounds)
        if workload.policy_class is PolicyClass.P3_ACROSS_ROUNDS:
            return self._across_round_trace(workload_name, num_requests, client_id, params, history_rounds)
        if workload.policy_class is PolicyClass.P4_METADATA:
            window = self.catalog.recent_rounds(max(self.recent_rounds, 1))
            first = window[0] if window else rounds[0]
            candidate_rounds = [r for r in rounds if r >= first]
            request_rounds = self._walk(candidate_rounds, num_requests, start_round)
            return self._emit(workload_name, request_rounds, None, params, history_rounds)
        # P2 and any custom per-round workload.
        request_rounds = self._walk(rounds, num_requests, start_round)
        return self._emit(workload_name, request_rounds, None, params, history_rounds)

    def _walk(self, rounds: list[int], num_requests: int, start_round: int | None) -> list[int]:
        if not rounds:
            return []
        if start_round is None:
            start_index = 0
        else:
            start_index = next((i for i, r in enumerate(rounds) if r >= start_round), 0)
        return [rounds[(start_index + i) % len(rounds)] for i in range(num_requests)]

    def _across_round_trace(
        self,
        workload_name: str,
        num_requests: int,
        client_id: int | None,
        params: dict,
        history_rounds: int = 2,
    ) -> list[WorkloadRequest]:
        if client_id is None:
            client_id = self._most_active_client()
        client_rounds = self.catalog.rounds_for_client(client_id)
        if not client_rounds:
            raise ValueError(f"client {client_id} never participated in a registered round")
        request_rounds = [client_rounds[i % len(client_rounds)] for i in range(num_requests)]
        return self._emit(workload_name, request_rounds, client_id, params, history_rounds)

    def most_active_client(self) -> int:
        """The client that participated in the most registered rounds (ties: lowest id)."""
        return self._most_active_client()

    def _most_active_client(self) -> int:
        counts: dict[int, int] = {}
        for round_id in self.catalog.rounds():
            for cid in self.catalog.participants(round_id):
                counts[cid] = counts.get(cid, 0) + 1
        if not counts:
            raise ValueError("the catalog has no participants")
        best = max(counts.values())
        return min(cid for cid, count in counts.items() if count == best)

    def _emit(
        self,
        workload_name: str,
        request_rounds: list[int],
        client_id: int | None,
        params: dict,
        history_rounds: int = 2,
    ) -> list[WorkloadRequest]:
        return [
            WorkloadRequest(
                request_id=self._ids.next(),
                workload=workload_name,
                round_id=round_id,
                client_id=client_id,
                history_rounds=history_rounds,
                params=dict(params),
            )
            for round_id in request_rounds
        ]

    # -------------------------------------------------------------- mixtures

    def mixed_trace(
        self,
        workload_names: list[str],
        num_requests: int,
        weights: list[float] | None = None,
        requests_per_round: int | None = None,
    ) -> list[WorkloadRequest]:
        """Interleave several workloads into one round-aligned trace.

        The trace models how non-training workloads arrive in a live FL
        deployment: as training progresses round by round, a batch of
        non-training requests (scheduling, filtering, incentives, ...) runs
        against the *current* round's data before the process moves to the
        next round.  ``requests_per_round`` controls how many requests target
        each round before advancing (default: one per listed workload).
        Serving/inference (P1) requests always target the newest round.
        """
        rng = derive_rng(self.seed, "mixed-trace")
        return self._mixture(workload_names, num_requests, rng, None, weights, requests_per_round)

    def tenant_trace(
        self,
        tenant_id: str,
        workload_names: list[str],
        num_requests: int,
        weights: list[float] | None = None,
        requests_per_round: int | None = None,
    ) -> list[WorkloadRequest]:
        """A tenant's own mixed trace, tagged with ``tenant_id``.

        Draws from a per-tenant RNG stream derived from the generator seed
        and the tenant id, so each tenant's trace is independent of every
        other tenant's — and the untagged :meth:`mixed_trace` stream is
        never perturbed by adding tenants.
        """
        rng = derive_rng(self.seed, "tenant-trace", tenant_id)
        return self._mixture(
            workload_names, num_requests, rng, tenant_id, weights, requests_per_round
        )

    def _mixture(
        self,
        workload_names: list[str],
        num_requests: int,
        rng: np.random.Generator,
        tenant_id: str | None,
        weights: list[float] | None,
        requests_per_round: int | None,
    ) -> list[WorkloadRequest]:
        if not workload_names:
            raise ValueError("workload_names must not be empty")
        if weights is not None and len(weights) != len(workload_names):
            raise ValueError("weights must match workload_names in length")
        if num_requests < 0:
            raise ValueError("num_requests must be non-negative")
        rounds = self.catalog.rounds()
        if not rounds:
            raise ValueError("the catalog has no registered rounds; ingest rounds first")
        probabilities = None
        if weights is not None:
            weights_array = np.asarray(weights, dtype=float)
            probabilities = weights_array / weights_array.sum()
        per_round = requests_per_round or len(workload_names)

        # One batched draw consumes the same bit stream as one scalar draw
        # per request would (the vectorized fast path relies on it too).
        drawn = rng.choice(len(workload_names), size=num_requests, p=probabilities)
        trace: list[WorkloadRequest] = []
        for index, name_index in enumerate(drawn.tolist()):
            round_id = rounds[(index // per_round) % len(rounds)]
            name = workload_names[name_index]
            workload = get_workload(name)
            client_id = None
            request_round = round_id
            if workload.policy_class is PolicyClass.P1_INDIVIDUAL:
                request_round = self.catalog.latest_round
            elif workload.policy_class is PolicyClass.P3_ACROSS_ROUNDS:
                participants = self.catalog.participants(round_id)
                client_id = participants[0] if participants else None
            trace.append(
                WorkloadRequest(
                    request_id=self._ids.next(),
                    workload=name,
                    round_id=request_round,
                    client_id=client_id,
                    tenant_id=tenant_id,
                )
            )
        return trace

    # --------------------------------------------------------------- summary

    @staticmethod
    def stats(trace: list[WorkloadRequest]) -> TraceStats:
        """Summarize a generated trace."""
        if not trace:
            return TraceStats(num_requests=0, workloads=(), first_round=-1, last_round=-1)
        rounds = [r.round_id for r in trace]
        return TraceStats(
            num_requests=len(trace),
            workloads=tuple(sorted({r.workload for r in trace})),
            first_round=min(rounds),
            last_round=max(rounds),
        )
