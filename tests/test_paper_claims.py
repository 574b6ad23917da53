"""The paper's evaluation claims: one table, one row per claim, each run at its own scale.

A row names an experiment of ``repro.cli.EXPERIMENTS``, the keyword arguments
that set its scale, what the paper reports (``paper``, kept as data: a
number, a ``(low, high)`` range over models or workloads, a stated limit such
as ``"< 1 MB"``, or ``None`` where the paper gives no number), the value
measured from the experiment's result, and the comparison that value must
pass against a bound.  The simulator is analytic, so a claim checks the
paper's *shape* (who wins, by roughly what factor), with a bound looser than
the paper's number.

Most experiments are checked at two scales, side by side, each row with its
own bound: ``full`` runs every model and workload the paper plots (15 rounds
for most), ``mini`` a reduced grid (8 rounds for most).  Every
experiment/scale pair runs once per module; all of its claims read that one
result.  Run the table with::

    PYTHONPATH=src python -m pytest tests/test_paper_claims.py -q
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.cli import EXPERIMENTS

#: Workloads that read only metadata; they may tie with the baselines on time.
METADATA_ONLY = ("Incentives", "Sched. (Perf.)")
MINI_WORKLOADS = ("malicious_filtering", "cosine_similarity", "incentives")
GROUPS = ["P2", "P3", "P4"]
LATENCY = "mean_latency_seconds"
LATENCY_CUT = "latency_reduction_pct"
AVG_COMM = "average_communication_seconds"
AVG_COMP = "average_computation_seconds"
COMM_VS_COMP = {"communication_seconds": 89.0, "computation_seconds": 2.8}
REPLICATION_COST = "replication_total_cost_dollars"
REFETCH_COST = "refetch_total_cost_dollars"

Measure = Callable[[Any], Any]


class Scale(NamedTuple):
    name: str
    kwargs: dict


class Claim(NamedTuple):
    experiment: str
    scale: Scale
    name: str
    paper: Any
    measure: Measure
    op: str
    bound: Any  # a value, or a Measure of the same result

    @property
    def id(self) -> str:
        return f"{self.experiment}-{self.scale.name}-{self.name}"


def claims(experiment: str, scale: Scale, *rows: tuple) -> list[Claim]:
    return [Claim(experiment, scale, *row) for row in rows]


def _rows(result: Any) -> list[dict]:
    return result["rows"] if isinstance(result, dict) else result


def count(result: Any) -> int:
    return len(_rows(result))


def field(*path: str) -> Measure:
    def measure(result: Any) -> Any:
        for key in path:
            result = result[key]
        return result

    return measure


def where(key: str, value: Any) -> Callable[[dict], bool]:
    return lambda row: row[key] == value


def heavy(row: dict) -> bool:
    return row["workload"] not in METADATA_ONLY


def flstore_policy(row: dict) -> bool:
    return row["policy"].startswith("FLStore")


def traditional_policy(row: dict) -> bool:
    return not flstore_policy(row)


def col(key: str, keep: Callable[[dict], bool] | None = None) -> Measure:
    """Every row's ``key`` (of the rows ``keep`` accepts): the claim holds for each."""
    return lambda result: [row[key] for row in _rows(result) if keep is None or keep(row)]


def mean(key: str, keep: Callable[[dict], bool] | None = None) -> Measure:
    return lambda result: float(np.mean(col(key, keep)(result)))


def top(key: str) -> Measure:
    return lambda result: max(col(key)(result))


def at(key: str, value: Any, column: str) -> Measure:
    """``column`` of the first row whose ``key`` equals ``value`` (missing: the claim fails)."""
    return lambda result: col(column, where(key, value))(result)[0]


def variant_latency(variant: str) -> Measure:
    return mean(LATENCY, where("variant", variant))


def instances_latency(instances: int) -> Measure:
    return mean(LATENCY, where("function_instances", instances))


def latency_at(parallel: int) -> Measure:
    return col(LATENCY, where("parallel_requests", parallel))


def depth(rounds_ahead: int, column: str) -> Measure:
    return at("prefetch_rounds_ahead", rounds_ahead, column)


def requests(concurrent: int, column: str) -> Measure:
    return at("concurrent_requests", concurrent, column)


def gap_4_to_5_instances(result: list[dict]) -> float:
    return abs(instances_latency(4)(result) - instances_latency(5)(result))


def half_of_3_instances(result: list[dict]) -> float:
    return 0.5 * instances_latency(3)(result)


def refetch_slower(result: dict) -> int:
    rows = result["rows"]
    return sum(r["refetch_latency_seconds"] >= r["replication_latency_seconds"] for r in rows)


def half_the_rows(result: dict) -> int:
    return len(result["rows"]) // 2


FULL_6 = Scale("full", {"num_rounds": 15, "requests_per_workload": 6})
FULL_8 = Scale("full", {"num_rounds": 15, "requests_per_workload": 8})
FULL_FAULTS = Scale("full", {"num_rounds": 15, "requests_per_workload": 10})
NO_KNOBS = Scale("full", {})
MINI_4 = Scale("mini", {"workloads": MINI_WORKLOADS, "num_rounds": 8, "requests_per_workload": 4})
MINI_5 = Scale("mini", {"workloads": MINI_WORKLOADS, "num_rounds": 8, "requests_per_workload": 5})
MINI_5_ONE_MODEL = Scale("mini", {"models": ("efficientnet_v2_small",), **MINI_5.kwargs})
MINI_FAULTS = Scale(
    "mini",
    {
        "workloads": ("clustering", "cosine_similarity"),
        "requests_per_workload": 6,
        "num_rounds": 8,
        "fault_rate": 0.4,
    },
)

CLAIMS = [
    # Figure 1: one non-training application can take up to 60 % of a round's latency.
    *claims(
        "fig1",
        FULL_6,
        ("rows", 10, count, "==", 10),
        ("max-share", 60.0, top("non_training_share_pct"), ">", 30.0),
    ),
    *claims(
        "fig1",
        MINI_4,
        ("rows", None, count, "==", 3),
        ("share-at-least-0", None, col("non_training_share_pct"), ">=", 0.0),
        ("share-at-most-100", None, col("non_training_share_pct"), "<=", 100.0),
        ("max-share", 60.0, top("non_training_share_pct"), ">", 30.0),
    ),
    # Figure 2: the same share of a round's cost.  With 10 participants per
    # round (the paper's rounds have 200 clients) the share is smaller.
    *claims(
        "fig2",
        FULL_6,
        ("rows", 10, count, "==", 10),
        ("cost-positive", None, col("non_training_cost"), ">", 0),
        ("max-share", None, top("non_training_share_pct"), ">", 35.0),
    ),
    *claims(
        "fig2",
        MINI_4,
        ("max-share", None, top("non_training_share_pct"), ">", 40.0),
        ("cost-positive", None, col("non_training_cost"), ">", 0),
    ),
    # Figure 4: ~89 s of communication vs ~2.8 s of computation per request (31x).
    *claims(
        "fig4",
        FULL_6,
        ("comm-over-comp", COMM_VS_COMP, field(AVG_COMM), ">", field(AVG_COMP)),
        ("ratio", 31.0, field("communication_to_computation_ratio"), ">", 5.0),
    ),
    *claims(
        "fig4",
        Scale(
            "mini",
            {
                "models": ("resnet18", "efficientnet_v2_small"),
                "workloads": ("cosine_similarity", "malicious_filtering"),
                "num_rounds": 8,
                "requests_per_workload": 4,
            },
        ),
        ("comm-over-comp", COMM_VS_COMP, field(AVG_COMM), ">", field(AVG_COMP)),
        ("ratio", 31.0, field("communication_to_computation_ratio"), ">", 5.0),
    ),
    # Figure 7: FLStore cuts per-request latency vs ObjStore-Agg by 50.75 % on
    # average, up to 99.94 % (4 models x 10 workloads).
    *claims(
        "fig7",
        FULL_8,
        ("rows", 40, count, "==", 40),
        ("mean-cut", 50.75, mean(LATENCY_CUT), ">", 50.0),
        ("max-cut", 99.94, top(LATENCY_CUT), ">", 90.0),
    ),
    *claims(
        "fig7",
        MINI_5_ONE_MODEL,
        ("rows", None, count, "==", 3),
        ("mean-cut", 50.75, mean(LATENCY_CUT), ">", 40.0),
        (
            "always-faster",
            None,
            col("flstore_latency_seconds"),
            "<",
            col("objstore_agg_latency_seconds"),
        ),
    ),
    # Figure 8: per-request cost vs ObjStore-Agg, 88.23 % lower on average, up to 99.78 %.
    *claims(
        "fig8",
        FULL_8,
        ("rows", 40, count, "==", 40),
        ("mean-cut", 88.23, mean("cost_reduction_pct"), ">", 80.0),
        ("max-cut", 99.78, top("cost_reduction_pct"), ">", 95.0),
    ),
    *claims("fig8", MINI_5_ONE_MODEL, ("mean-cut", 88.23, mean("cost_reduction_pct"), ">", 70.0)),
    # Figure 9: vs Cache-Agg, 64.66 % lower latency and 98.83 % lower cost on average.
    *claims(
        "fig9",
        FULL_8,
        ("rows", 6, count, "==", 6),
        ("heavy-mean-latency-cut", 64.66, mean(LATENCY_CUT, heavy), ">", 40.0),
        ("mean-cost-cut", 98.83, mean("cost_reduction_pct"), ">", 95.0),
    ),
    *claims(
        "fig9",
        MINI_5,
        ("cost-cut", 98.83, col("cost_reduction_pct"), ">", 90.0),
        ("filtering-cut", None, at("workload", "Malicious Filtering", LATENCY_CUT), ">", 0.0),
    ),
    # Figure 10: FLStore cuts the whole round's cost by 42-96 % per workload.
    *claims(
        "fig10",
        FULL_6,
        ("rows", 10, count, "==", 10),
        ("never-dearer", None, col("cost_with_flstore"), "<=", col("cost_without_flstore")),
        ("max-cut", (42.0, 96.0), top("reduction_pct"), ">", 30.0),
    ),
    *claims(
        "fig10",
        MINI_4,
        ("never-dearer", None, col("cost_with_flstore"), "<=", col("cost_without_flstore")),
        ("max-cut", (42.0, 96.0), top("reduction_pct"), ">", 20.0),
    ),
    # Figure 11: the tailored policies (and the capacity-limited variant) beat
    # the traditional reactive ones; FLStore-Random sits in between.
    *claims(
        "fig11",
        FULL_8,
        ("beats-lru", None, variant_latency("FLStore"), "<", variant_latency("FLStore-LRU")),
        ("beats-fifo", None, variant_latency("FLStore"), "<", variant_latency("FLStore-FIFO")),
        (
            "limited-beats-fifo",
            None,
            variant_latency("FLStore-limited"),
            "<",
            variant_latency("FLStore-FIFO"),
        ),
    ),
    *claims(
        "fig11",
        Scale(
            "mini",
            {
                "workloads": ("malicious_filtering", "clustering"),
                "policy_modes": {"FLStore": "tailored", "FLStore-FIFO": "fifo"},
                "num_rounds": 8,
                "requests_per_workload": 5,
            },
        ),
        ("beats-fifo", None, variant_latency("FLStore"), "<", variant_latency("FLStore-FIFO")),
    ),
    # Table 2: 0.98-1.00 hit rate for FLStore's tailored policies, 0 for FIFO/LFU/LRU.
    *claims(
        "table2",
        Scale("full", {"num_rounds": 30}),
        ("tailored-hits", (0.98, 1.0), col("hit_rate", flstore_policy), ">=", 0.85),
        ("traditional-hits", 0.0, col("hit_rate", traditional_policy), "<=", 0.05),
    ),
    *claims(
        "table2",
        Scale("mini", {"num_rounds": 10}),
        ("tailored-hits", (0.98, 1.0), col("hit_rate", flstore_policy), ">=", 0.8),
        ("traditional-hits", 0.0, col("hit_rate", traditional_policy), "<=", 0.05),
        ("groups", GROUPS, lambda rows: sorted({r["group"] for r in rows}), "==", GROUPS),
    ),
    # Figure 18: after the workload switch FLStore cuts latency by ~99 % and
    # cost by ~3x against FLStore-Static.
    *claims(
        "fig18",
        Scale("full", {"num_rounds": 15, "warmup_requests": 6, "measured_requests": 10}),
        ("latency-cut", 99.0, field(LATENCY_CUT), ">", 50.0),
        ("cost-ratio", 3.0, field("cost_ratio"), ">", 1.5),
    ),
    *claims(
        "fig18",
        Scale("mini", {"num_rounds": 8, "warmup_requests": 3, "measured_requests": 5}),
        ("latency-cut", 99.0, field(LATENCY_CUT), ">", 0.0),
        ("cost-ratio", 3.0, field("cost_ratio"), ">", 1.0),
    ),
    # Figure 15: ObjStore-Agg spends ~99 % of its time communicating, and
    # FLStore removes most of that time.
    *claims(
        "fig15",
        FULL_8,
        ("rows", 40, count, "==", 40),
        ("baseline-comm-bound", 0.99, col("objstore_comm_fraction", heavy), ">", 0.7),
        ("time-cut", None, col("total_time_reduction_pct", heavy), ">", 20.0),
    ),
    *claims(
        "fig15",
        MINI_5_ONE_MODEL,
        ("baseline-comm-bound", 0.99, col("objstore_comm_fraction", heavy), ">", 0.8),
        (
            "under-baseline-comm",
            None,
            col("flstore_total_hours", heavy),
            "<",
            col("objstore_communication_hours", heavy),
        ),
    ),
    # Figure 16: 77.8-94.7 % lower total cost on average, depending on the model.
    *claims(
        "fig16",
        FULL_8,
        ("rows", 40, count, "==", 40),
        ("mean-cut", (77.8, 94.7), mean("cost_reduction_pct"), ">", 70.0),
    ),
    *claims("fig16", MINI_5_ONE_MODEL, ("cut", (77.8, 94.7), col("cost_reduction_pct"), ">", 50.0)),
    # Figure 17: vs Cache-Agg, 37.8-84.5 % less total time and 98.1-99.9 % less total cost.
    *claims(
        "fig17",
        FULL_8,
        ("rows", 6, count, "==", 6),
        ("mean-cost-cut", (98.1, 99.9), mean("cost_reduction_pct"), ">", 95.0),
        ("time-cut", (37.8, 84.5), col("time_reduction_pct", heavy), ">", 0.0),
    ),
    *claims(
        "fig17",
        MINI_5,
        ("cost-cut", (98.1, 99.9), col("cost_reduction_pct"), ">", 90.0),
        (
            "faster",
            (37.8, 84.5),
            col("flstore_total_hours", heavy),
            "<",
            col("cache_agg_total_hours", heavy),
        ),
    ),
    # Figure 12: latency is flat up to the number of cached parallel functions
    # (5) and rises beyond it, for every workload.
    *claims(
        "fig12",
        Scale("full", {"num_rounds": 12}),
        ("flat-to-5", None, latency_at(1), "==", latency_at(5)),
        ("rises-past-5", None, latency_at(10), ">", latency_at(5)),
    ),
    *claims(
        "fig12",
        Scale(
            "mini",
            {
                "workloads": ("cosine_similarity",),
                "parallel_requests": (1, 3, 5, 8, 10),
                "num_rounds": 6,
            },
        ),
        ("flat-to-5", None, latency_at(1), "approx", latency_at(5)),
        ("rises-past-5", None, latency_at(10), ">", latency_at(5)),
    ),
    # Figure 13: a single function instance suffers most under reclamations;
    # 3-5 instances are nearly flat.
    *claims(
        "fig13",
        FULL_FAULTS,
        ("one-worst", None, instances_latency(1), ">", instances_latency(3)),
        ("flat-from-4", None, gap_4_to_5_instances, "<", half_of_3_instances),
    ),
    *claims(
        "fig13",
        Scale("mini", {**MINI_FAULTS.kwargs, "function_instances": (1, 3)}),
        ("three-no-worse", None, instances_latency(3), "<=", instances_latency(1)),
    ),
    # Figure 14: keeping replicas is far cheaper than re-fetching lost data.
    *claims(
        "fig14",
        FULL_FAULTS,
        ("cheaper", None, field(REPLICATION_COST), "<=", field(REFETCH_COST)),
        ("keepalive", None, field("replication_keepalive_cost_dollars"), "<", 0.01),
        ("refetch-slower", None, refetch_slower, ">=", half_the_rows),
    ),
    *claims(
        "fig14",
        MINI_FAULTS,
        ("cheaper", None, field(REPLICATION_COST), "<=", field(REFETCH_COST)),
        ("keepalive", None, field("replication_keepalive_cost_dollars"), "<", 0.01),
    ),
    # Figure 19: 23 models of ~161 MB on average; each fits a 10 GB function.
    *claims(
        "fig19",
        NO_KNOBS,
        ("models", 23, field("num_models"), "==", 23),
        ("mean-size", 161.0, field("average_size_mb"), "within", (120, 200)),
        ("fits", True, col("fits_in_10gb_function"), "==", True),
    ),
    # Section 5.5: under 1 MB at 1000 requests, tens of MB at 100k, lookups under 1 ms.
    *claims(
        "sec55",
        Scale("full", {"request_counts": (1000, 100000)}),
        ("tracker-1k", "< 1 MB", requests(1000, "request_tracker_mb"), "<", 2.0),
        ("engine-1k", "< 1 MB", requests(1000, "cache_engine_mb"), "<", 2.0),
        ("tracker-100k", "tens of MB", requests(100000, "request_tracker_mb"), "<", 100.0),
        ("engine-100k", "tens of MB", requests(100000, "cache_engine_mb"), "<", 100.0),
        ("lookup-under-1ms", True, col("lookup_under_one_ms"), "==", True),
    ),
    *claims(
        "sec55",
        Scale("mini", {"request_counts": (1000,)}),
        ("tracker-1k", "< 1 MB", requests(1000, "request_tracker_mb"), "<", 5.0),
        ("engine-1k", "< 1 MB", requests(1000, "cache_engine_mb"), "<", 5.0),
        ("lookup-under-1ms", True, requests(1000, "lookup_under_one_ms"), "==", True),
    ),
    # Sections 2.2 and 4.4: caching everything needs ~79 TB on ~10098
    # functions; the tailored policies need ~1.2 GB on two.
    *claims(
        "sec22",
        NO_KNOBS,
        ("full-tb", 79.0, field("full_caching", "total_tb"), "within", (60, 100)),
        ("full-tb-over-50", 79.0, field("full_caching", "total_tb"), ">", 50),
        ("full-functions", 10098, field("full_caching", "functions_needed"), ">", 5000),
        ("tailored-gb", 1.2, field("tailored_policies", "total_gb"), "<", 5),
        ("tailored-functions", 2, field("tailored_policies", "functions_needed"), "<=", 2),
        ("footprint-cut", None, field("footprint_reduction_pct"), ">", 99.0),
    ),
    # Extension (not in the paper): prefetching one round ahead turns the
    # iterative access pattern into hits; deeper prefetching does not hurt.
    *claims(
        "prefetch",
        Scale("full", {"num_rounds": 15, "num_requests": 12}),
        ("none-misses", None, depth(0, "hit_rate"), "<", 0.2),
        ("one-hits", None, depth(1, "hit_rate"), ">", 0.8),
        ("one-faster", None, depth(1, LATENCY), "<", depth(0, LATENCY)),
        ("two-holds", None, depth(2, "hit_rate"), ">=", lambda r: depth(1, "hit_rate")(r) - 0.05),
    ),
    *claims(
        "prefetch",
        Scale("mini", {"prefetch_depths": (0, 1), "num_rounds": 8, "num_requests": 6}),
        ("one-hits-more", None, depth(0, "hit_rate"), "<", depth(1, "hit_rate")),
        ("one-faster", None, depth(1, LATENCY), "<", depth(0, LATENCY)),
    ),
]

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "within": lambda value, bounds: (bounds[0] <= value) & (value <= bounds[1]),
}


def holds(measured: Any, op: str, bound: Any) -> bool:
    """``measured op bound``; a list holds when every element (or pair) does.

    ``within`` reads the bound as a closed ``(low, high)`` range; ``approx``
    compares with ``pytest.approx``.
    """
    if op == "approx":
        return measured == pytest.approx(bound)
    return bool(np.all(_OPS[op](np.asarray(measured), np.asarray(bound))))


@pytest.fixture(scope="module")
def run():
    """Run each experiment once per scale; every claim on it reads that result."""
    results: dict[tuple[str, str], Any] = {}

    def result(claim: Claim) -> Any:
        key = (claim.experiment, repr(claim.scale.kwargs))
        if key not in results:
            runner, _ = EXPERIMENTS[claim.experiment]
            results[key] = runner(**claim.scale.kwargs)
        return results[key]

    return result


@pytest.mark.parametrize("claim", CLAIMS, ids=[claim.id for claim in CLAIMS])
def test_claim_holds(claim, run):
    result = run(claim)
    measured = claim.measure(result)
    bound = claim.bound(result) if callable(claim.bound) else claim.bound
    assert holds(measured, claim.op, bound), (
        f"{claim.id}: measured {measured!r}, needs {claim.op} {bound!r} (paper: {claim.paper!r})"
    )


def test_every_experiment_has_a_claim():
    assert {claim.experiment for claim in CLAIMS} == set(EXPERIMENTS)
