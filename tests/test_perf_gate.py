"""The CI perf gate: one invocation checks every gated ``BENCH_serve.json`` key."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "check_perf_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(gate, tmp_path, baseline: dict, current: dict) -> int:
    base_file = tmp_path / "baseline.json"
    current_file = tmp_path / "current.json"
    base_file.write_text(json.dumps(baseline))
    current_file.write_text(json.dumps(current))
    return gate.main([str(base_file), str(current_file)])


def _record(gate, value: float = 1.0) -> dict:
    return {key: value for key in gate.PERF_BUDGETS} | {"sweep_rows": [1, 2]}


def test_every_key_within_budget_passes(gate, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PERF_GATE_SKIP", raising=False)
    current = {key: 1.0 + budget for key, budget in gate.PERF_BUDGETS.items()}
    assert _run(gate, tmp_path, _record(gate), current) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(gate.PERF_BUDGETS)
    assert all(line.endswith("-> ok") for line in lines)


def test_one_regressed_key_fails_and_every_key_still_reports(gate, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PERF_GATE_SKIP", raising=False)
    current = _record(gate)
    current["wall_seconds"] = 1.3  # past the hot path's +25% budget
    assert _run(gate, tmp_path, _record(gate), current) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(gate.PERF_BUDGETS)
    [regressed] = [line for line in lines if "REGRESSION" in line]
    assert regressed.startswith("perf gate [wall_seconds]")


def test_missing_key_fails(gate, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PERF_GATE_SKIP", raising=False)
    current = _record(gate)
    del current["tenants_wall_seconds"]
    assert _run(gate, tmp_path, _record(gate), current) == 1
    out = capsys.readouterr().out
    assert "perf gate [tenants_wall_seconds]: cannot compare" in out
    assert "MISSING" in out


def test_skip_mode_reports_without_failing(gate, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERF_GATE_SKIP", "1")
    current = _record(gate, value=10.0)
    del current["fault_wall_seconds"]
    assert _run(gate, tmp_path, _record(gate), current) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "MISSING" in out
    assert "PERF_GATE_SKIP set, reporting only" in out
    # "0" keeps the gate on.
    monkeypatch.setenv("PERF_GATE_SKIP", "0")
    assert _run(gate, tmp_path, _record(gate), current) == 1
