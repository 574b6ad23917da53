"""Compare alternating benchmark runs of two commits, pair by pair.

    python benchmarks/compare_pairs.py PARENT.jsonl CHANGE.jsonl [--claim WORKLOAD/METRIC]

Each file holds the final JSON lines of ``bench/run.py`` runs, one run per
line, in run order (the recipe under "Comparing two commits" in
``bench/README.md`` appends them); run i of one file is paired with run i of
the other.  For every metric the runs report, the script prints both sides'
median and quartiles and how many pairs the change won.

The claimed metric gets bench/README's claim rule: at least 10 pairs, the
change wins at least 9 in 10 of them, and its median is better than the
parent's by more than the parent's quartile distance.  Every other
end-to-end metric is checked against its ``BENCHMARK.json`` bound: a change
median worse than the parent's by more than ``bound`` x the parent's median
is a regression, and a pairing where either side's quartile distance is
more than ``bound`` x its median is reported "unresolved" (the runs spread
too widely to tell) unless every change run is better than every parent
run.  A metric without a bound (a traced per-layer one) is
only printed.  Metrics of a single-workload run carry no ``WORKLOAD/``
prefix; a claim names them by the metric alone or with any prefix.

Exits 1 on an unmet claim, a regression, a metric missing from some run, or
a larger share of failed runs than the parent's; 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: The claim rule: the change must win at least this share of the pairs ...
CLAIM_WINS = (9, 10)
#: ... over at least this many pairs.
MIN_CLAIM_PAIRS = 10


@dataclass(frozen=True)
class Rule:
    """How one metric is compared: its better direction and regression bound."""

    better: str
    bound: float | None = None


def load_rules() -> dict[str, Rule]:
    """Metric name -> rule, from ``BENCHMARK.json``'s end-to-end and per-layer lists."""
    declared = json.loads(BENCHMARK.read_text())
    rules = {m["name"]: Rule(m["better"]) for m in declared.get("per_layer", ())}
    rules.update((m["name"], Rule(m["better"], m["bound"])) for m in declared["end_to_end"])
    return rules


def read_runs(path: str) -> list[dict]:
    """Every ``bench/run.py`` result line in ``path``, in order."""
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            record = json.loads(line)
            if "metrics" in record:
                runs.append(record)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (``bench/harness.py``'s quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


@dataclass(frozen=True)
class Comparison:
    """One metric over the pairs."""

    name: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int | None
    pairs: int
    verdict: str

    @property
    def failed(self) -> bool:
        return self.verdict in ("claim not met", "REGRESSION", "missing")


def _spread(stats: tuple[float, float, float]) -> float:
    """Quartile distance over the median (bench/README's spread)."""
    median, q1, q3 = stats
    return (q3 - q1) / abs(median) if median else 0.0


def _gain(parent: float, change: float, better: str) -> float:
    """How much better ``change`` is than ``parent`` (negative when worse)."""
    return change - parent if better == "higher" else parent - change


def _all_better(parent: list[float], change: list[float], rule: Rule) -> bool:
    """Whether every change run is better than every parent run."""
    if rule.better == "higher":
        return min(change) > max(parent)
    return max(change) < min(parent)


def compare(
    name: str, parent: list[float], change: list[float], rule: Rule | None, claimed: bool
) -> Comparison:
    """Apply the claim rule (``claimed``) or the regression bound to one metric."""
    p, c = summary(parent), summary(change)
    pairs = len(parent)
    if rule is None:
        return Comparison(name, p, c, None, pairs, "")
    wins = sum(_gain(a, b, rule.better) > 0 for a, b in zip(parent, change))
    gain = _gain(p[0], c[0], rule.better)
    if claimed:
        won, of = CLAIM_WINS
        met = pairs >= MIN_CLAIM_PAIRS and of * wins >= won * pairs and gain > p[2] - p[1]
        verdict = "claim met" if met else "claim not met"
    elif rule.bound is None:
        verdict = ""
    elif -gain > rule.bound * abs(p[0]):
        verdict = "REGRESSION"
    elif max(_spread(p), _spread(c)) > rule.bound and not _all_better(parent, change, rule):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return Comparison(name, p, c, wins, pairs, verdict)


def claimed_name(claim: str | None, names: list[str]) -> str | None:
    """The run metric ``claim`` names (``None`` if it names none)."""
    if claim is None or claim in names:
        return claim
    metric = claim.rsplit("/", 1)[-1]
    return metric if metric in names else None


def compare_runs(
    parent_runs: list[dict], change_runs: list[dict], claim: str | None = None
) -> list[Comparison]:
    """One comparison per metric the runs report, pairing runs in order."""
    rules = load_rules()
    names = list(dict.fromkeys(n for run in parent_runs + change_runs for n in run["metrics"]))
    results = []
    for name in names:
        parent = [run["metrics"].get(name, {}).get("value") for run in parent_runs]
        change = [run["metrics"].get(name, {}).get("value") for run in change_runs]
        if None in parent or None in change:
            results.append(Comparison(name, (0, 0, 0), (0, 0, 0), None, 0, "missing"))
            continue
        rule = rules.get(name.rsplit("/", 1)[-1])
        results.append(compare(name, parent, change, rule, name == claim))
    return results


def failed_share(runs: list[dict]) -> float:
    """Failed runs over attempted ones, over every line."""
    attempted = sum(run.get("attempted", 0) for run in runs)
    return sum(run.get("failed", 0) for run in runs) / attempted if attempted else 0.0


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def _band(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{_fmt(median)} ({_fmt(q1)}-{_fmt(q3)})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent commit's run lines")
    parser.add_argument("change", help="the change's run lines, in the same order")
    parser.add_argument("--claim", help="WORKLOAD/METRIC the change claims to improve")
    args = parser.parse_args(argv)

    parent_runs, change_runs = read_runs(args.parent), read_runs(args.change)
    if not parent_runs or len(parent_runs) != len(change_runs):
        print(
            f"error: need the same nonzero number of runs on both sides, got "
            f"{len(parent_runs)} and {len(change_runs)}",
            file=sys.stderr,
        )
        return 2
    names = [n for run in parent_runs + change_runs for n in run["metrics"]]
    claim = claimed_name(args.claim, names)
    if args.claim is not None and claim is None:
        print(f"error: no metric {args.claim!r} in the runs", file=sys.stderr)
        return 2

    results = compare_runs(parent_runs, change_runs, claim)
    width = max(len(r.name) for r in results)
    print(f"{len(parent_runs)} pairs; median (q1-q3), parent -> change")
    for r in results:
        won = f"{r.wins}/{r.pairs}" if r.wins is not None else ""
        ratio = f"x{r.change[0] / r.parent[0]:.3f}" if r.parent[0] else ""
        print(
            f"{r.name:<{width}}  {_band(r.parent):>28} -> {_band(r.change):<28} "
            f"{ratio:>7} {won:>6}  {r.verdict}"
        )
    shares = failed_share(parent_runs), failed_share(change_runs)
    more_failed = shares[1] > shares[0]
    if more_failed:
        print(f"failed runs: {shares[0]:.3%} -> {shares[1]:.3%}  REGRESSION")
    return 1 if more_failed or any(r.failed for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
