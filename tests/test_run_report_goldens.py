"""Byte-identity of every registered scenario's ``RunReport`` at smoke size.

The fixtures under ``tests/data/run_reports/`` hold ``RunReport.to_json()``
of each registered scenario, shrunk by ``smoke_spec`` and run at seed 7.
They pin the whole report — load columns, tier accounting, autoscale,
fault, remediation and tenant sections — so a refactor of the serving
stack that should change nothing can prove it changed nothing.

As with ``tests/data/golden_sweeps/``, the fixtures are regenerated only
from *pre-change* code: when a change moves a report on purpose, capture
the new fixtures from the commit before it, never from the changed code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import get_scenario, list_scenarios, run, smoke_spec

GOLDEN_DIR = Path(__file__).parent / "data" / "run_reports"


def smoke_report_json(name: str) -> str:
    """The serialized smoke-size report of registered scenario ``name``."""
    spec = smoke_spec(get_scenario(name)).with_overrides({"seed": 7})
    return run(spec).to_json()


def test_every_registered_scenario_has_a_fixture():
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.json")) == sorted(list_scenarios())


@pytest.mark.parametrize("name", list_scenarios())
def test_run_report_is_byte_identical_to_fixture(name):
    assert smoke_report_json(name) == (GOLDEN_DIR / f"{name}.json").read_text()
