"""The evaluation fleet: content-addressed manifest, incremental runner,
programmatic report.

The package turns the scenario registry into a self-maintaining evaluation
fleet, in three layers:

* :mod:`repro.fleet.manifest` — the content-addressed run manifest and
  artifact store: cells keyed by ``(spec hash, seed, axes, code
  fingerprint)``, artifacts as versioned ``RunReport.to_json`` files written
  atomically, staleness defined as hash-or-fingerprint mismatch;
* :mod:`repro.fleet.runner` — fleet definitions (:func:`default_fleet`
  derives the standing fleet from the scenario registry) and the
  incremental runner: ``run_missing`` plans every cell, executes only the
  absent/stale ones in parallel, and records artifacts as they land;
* :mod:`repro.fleet.report` — the report generator: Markdown + CSV tables
  rendered purely from stored artifacts, failing loudly (with the exact
  repair command) on any missing cell, plus the headline comparisons
  (predictive vs reactive scaling, controller on vs off, fair queueing vs
  FIFO) reduced from the stored reports.

Surfaced as ``repro.cli run-missing`` and ``repro.cli report``.
"""

from repro.fleet.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    ArtifactStore,
    FleetError,
    ManifestEntry,
    RunManifest,
    clear_fingerprint_cache,
    code_fingerprint,
)
from repro.fleet.report import (
    collect_rows,
    compare_autoscale_policies,
    compare_fault_recovery,
    compare_tenant_disciplines,
    fix_command,
    generate_report,
    load_reports,
)
from repro.fleet.runner import (
    CELL_STATUSES,
    FleetCell,
    FleetExperiment,
    cell_id,
    classify,
    default_fleet,
    load_fleet,
    plan,
    plan_cells,
    run_missing,
)

__all__ = [
    "CELL_STATUSES",
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "ArtifactStore",
    "FleetCell",
    "FleetError",
    "FleetExperiment",
    "ManifestEntry",
    "RunManifest",
    "cell_id",
    "classify",
    "clear_fingerprint_cache",
    "code_fingerprint",
    "collect_rows",
    "compare_autoscale_policies",
    "compare_fault_recovery",
    "compare_tenant_disciplines",
    "default_fleet",
    "fix_command",
    "generate_report",
    "load_fleet",
    "load_reports",
    "plan",
    "plan_cells",
    "run_missing",
]
