"""``benchmarks/compare_pairs.py``: the claim rule and regression bounds on synthetic runs."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_pairs.py"

#: A steady parent: ten runs with a narrow spread (quartiles 98.75-102.25).
PARENT_RPS = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0, 97.0, 101.0]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their module through ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _runs(req_per_s, setup_s=None, peak_rss_mb=None, failed=0, prefix="") -> list[dict]:
    """``bench/run.py`` result lines; ``failed`` failures on the first."""
    count = len(req_per_s)
    columns = zip(req_per_s, setup_s or [0.1] * count, peak_rss_mb or [50.0] * count)
    return [
        {
            "correct": not (failed and i == 0),
            "attempted": 10,
            "failed": failed if i == 0 else 0,
            "metrics": {
                prefix + "req_per_s": {"value": rps, "unit": "req/s"},
                prefix + "setup_s": {"value": setup, "unit": "s"},
                prefix + "peak_rss_mb": {"value": rss, "unit": "MB"},
            },
        }
        for i, (rps, setup, rss) in enumerate(columns)
    ]


def _verdicts(tool, parent, change, claim=None) -> dict[str, str]:
    return {r.name: r.verdict for r in tool.compare_runs(parent, change, claim)}


def _cli(tool, tmp_path, parent, change, *args) -> int:
    parent_file, change_file = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    # A run's printed table precedes its result line; only result lines count.
    parent_file.write_text("".join(f"== table\n{json.dumps(run)}\n" for run in parent))
    change_file.write_text("".join(f"{json.dumps(run)}\n" for run in change))
    return tool.main([str(parent_file), str(change_file), *args])


def test_clear_win_meets_the_claim(tool, tmp_path):
    parent, change = _runs(PARENT_RPS), _runs([value * 1.2 for value in PARENT_RPS])
    assert _verdicts(tool, parent, change, "req_per_s") == {
        "req_per_s": "claim met",
        "setup_s": "ok",
        "peak_rss_mb": "ok",
    }
    (rps,) = [r for r in tool.compare_runs(parent, change, "req_per_s") if r.name == "req_per_s"]
    assert (rps.wins, rps.pairs) == (10, 10)
    assert rps.parent == (100.5, 98.75, 102.25)
    # Single-workload runs carry no prefix; the claim may still name one.
    assert _cli(tool, tmp_path, parent, change, "--claim", "hotkey-replicated-1.5k/req_per_s") == 0


def test_nine_of_ten_pairs_is_the_edge(tool, tmp_path):
    change = [value * 1.2 for value in PARENT_RPS]
    change[3] = PARENT_RPS[3] - 1  # one pair lost: 9 of 10 still meets the claim
    verdicts = _verdicts(tool, _runs(PARENT_RPS), _runs(change), "req_per_s")
    assert verdicts["req_per_s"] == "claim met"
    change[5] = PARENT_RPS[5]  # a tie is not a win: 8 of 10
    assert (
        _verdicts(tool, _runs(PARENT_RPS), _runs(change), "req_per_s")["req_per_s"]
        == "claim not met"
    )
    assert _cli(tool, tmp_path, _runs(PARENT_RPS), _runs(change), "--claim", "req_per_s") == 1


def test_claim_needs_a_median_gap_above_the_parent_spread_and_ten_pairs(tool):
    # Every pair won, but by less than the parent's quartile distance.
    close = [value + 1.0 for value in PARENT_RPS]
    assert (
        _verdicts(tool, _runs(PARENT_RPS), _runs(close), "req_per_s")["req_per_s"]
        == "claim not met"
    )
    nine = [value * 1.2 for value in PARENT_RPS[:9]]
    assert (
        _verdicts(tool, _runs(PARENT_RPS[:9]), _runs(nine), "req_per_s")["req_per_s"]
        == "claim not met"
    )


def test_regression_past_the_bound_fails(tool, tmp_path):
    # setup_s has a 20 % bound: 0.125 s is worse by 25 %, 0.115 s by 15 %.
    parent = _runs(PARENT_RPS)
    slower = _runs(PARENT_RPS, setup_s=[0.125] * 10)
    assert _verdicts(tool, parent, slower) == {
        "req_per_s": "ok",
        "setup_s": "REGRESSION",
        "peak_rss_mb": "ok",
    }
    assert _cli(tool, tmp_path, parent, slower) == 1
    within = _runs(PARENT_RPS, setup_s=[0.115] * 10)
    assert _verdicts(tool, parent, within)["setup_s"] == "ok"
    assert _cli(tool, tmp_path, parent, within) == 0


def test_spread_wider_than_the_bound_is_unresolved(tool, tmp_path):
    # peak_rss_mb has a 5 % bound; these runs keep the parent's median but
    # spread by 20 %.
    noisy = _runs(PARENT_RPS, peak_rss_mb=[45.0, 55.0] * 5)
    assert _verdicts(tool, _runs(PARENT_RPS), noisy)["peak_rss_mb"] == "unresolved"
    assert _cli(tool, tmp_path, _runs(PARENT_RPS), noisy) == 0
    # Unless every change run is better than every parent run.
    lower = _runs(PARENT_RPS, peak_rss_mb=[40.0, 48.0] * 5)
    assert _verdicts(tool, _runs(PARENT_RPS), lower)["peak_rss_mb"] == "ok"


def test_more_failed_runs_or_a_missing_metric_fail(tool, tmp_path):
    parent = _runs(PARENT_RPS, prefix="w/")
    assert set(_verdicts(tool, parent, parent)) == {"w/req_per_s", "w/setup_s", "w/peak_rss_mb"}
    assert _cli(tool, tmp_path, parent, _runs(PARENT_RPS, prefix="w/")) == 0
    assert _cli(tool, tmp_path, parent, _runs(PARENT_RPS, failed=1, prefix="w/")) == 1
    change = _runs(PARENT_RPS, prefix="w/")
    del change[4]["metrics"]["w/setup_s"]
    assert _verdicts(tool, parent, change)["w/setup_s"] == "missing"
    assert _cli(tool, tmp_path, parent, change) == 1


def test_unpaired_runs_or_an_unknown_claim_are_unusable(tool, tmp_path):
    assert _cli(tool, tmp_path, _runs(PARENT_RPS), _runs(PARENT_RPS[:9])) == 2
    assert _cli(tool, tmp_path, _runs(PARENT_RPS), _runs(PARENT_RPS), "--claim", "w/no_such") == 2
