"""Command-line interface for the FLStore reproduction.

Usage examples::

    python -m repro.cli list                         # list available experiments
    python -m repro.cli run fig7 --rounds 15         # regenerate Figure 7 and print it
    python -m repro.cli run table2 --out table2.json # save the rows as JSON
    python -m repro.cli run fig7 --parallel          # fan model sweeps out to worker processes
    python -m repro.cli run fig11 --workers 4        # explicit worker count
    python -m repro.cli run-scenario --list           # registered scenario specs
    python -m repro.cli run-scenario --name jsq-hotkey --set tier.shards=8
    python -m repro.cli run-scenario --spec examples/scenarios/sharded_burst.json \
        --sweep tier.router_kind=consistent-hash,jsq
    python -m repro.cli run-scenario --name engine-baseline --workers 4 \
        --sweep arrival.kind=poisson,bursty,diurnal --sweep arrival.utilization=0.5,1.0,2.0
    python -m repro.cli run-scenario --name fault-recovery --sweep remediation.enabled=true,false
    python -m repro.cli run-scenario --name noisy-neighbor \
        --sweep tier.queue_discipline=fifo,wfq,drr --sweep tenants.steady.weight=1,2,4
    python -m repro.cli run-missing --artifacts artifacts --parallel
    python -m repro.cli run-missing --dry-run         # plan only: what would run and why
    python -m repro.cli report --artifacts artifacts --out report
    python -m repro.cli workloads                     # show the workload taxonomy
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable

from repro.analysis import experiments as E
from repro.analysis import experiments_appendix as A
from repro.analysis.export import export_csv, export_json
from repro.analysis.perf import tune_gc
from repro.analysis.runner import set_max_workers
from repro.analysis.tables import format_table, union_columns
from repro.fleet import (
    ArtifactStore,
    FleetError,
    default_fleet,
    generate_report,
    load_fleet,
    run_missing,
)
from repro.engine.vectorized import explain_fast_path
from repro.scenario import (
    ScenarioSpec,
    ScenarioValidationError,
    apply_overrides,
    coerce_override,
    field_value,
    get_scenario,
    list_scenarios,
    smoke_spec,
)
from repro.scenario import run as run_scenario_spec
from repro.scenario import sweep as scenario_sweep
from repro.workloads.registry import TAXONOMY, WORKLOAD_DISPLAY_NAMES

#: Experiment name -> (callable, description, accepts num_rounds kwarg).
EXPERIMENTS: dict[str, tuple[Callable[..., Any], str]] = {
    "fig1": (E.run_figure1_latency_share, "Non-training share of per-round FL latency"),
    "fig2": (E.run_figure2_cost_share, "Non-training share of per-round FL cost"),
    "fig4": (E.run_figure4_comm_vs_comp, "Communication vs computation latency"),
    "fig7": (E.run_figure7_latency_vs_objstore, "Per-request latency vs ObjStore-Agg"),
    "fig8": (E.run_figure8_cost_vs_objstore, "Per-request cost vs ObjStore-Agg"),
    "fig9": (E.run_figure9_vs_cache_agg, "Per-request latency/cost vs Cache-Agg"),
    "fig10": (E.run_figure10_overall_cost, "Overall per-round FL cost with/without FLStore"),
    "fig11": (E.run_figure11_policy_comparison, "Caching-policy variant comparison"),
    "table2": (E.run_table2_hit_rates, "Cache-policy hit rates"),
    "fig12": (A.run_figure12_scalability, "Scalability with concurrent requests"),
    "fig13": (A.run_figure13_fault_tolerance, "Fault tolerance vs function instances"),
    "fig14": (A.run_figure14_replication_vs_refetch, "Replication vs re-fetching"),
    "fig15": (E.run_figure15_total_time_breakup, "Total time breakup vs ObjStore-Agg"),
    "fig16": (E.run_figure16_total_cost_breakup, "Total cost breakup vs ObjStore-Agg"),
    "fig17": (E.run_figure17_vs_cache_agg_totals, "Totals vs Cache-Agg"),
    "fig18": (E.run_figure18_static_ablation, "FLStore vs FLStore-Static ablation"),
    "fig19": (A.run_figure19_model_footprints, "Model memory footprints"),
    "sec55": (A.run_section55_component_overhead, "Component overhead"),
    "sec22": (A.run_section22_capacity_analysis, "Capacity analysis"),
    "prefetch": (A.run_ablation_prefetch_depth, "Prefetch-depth ablation (extension)"),
}

#: Experiments whose runner accepts a ``num_rounds`` keyword.
_ACCEPTS_ROUNDS = {
    "fig1", "fig2", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11", "table2",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "prefetch",
}


def _add_worker_and_out_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan independent sweep cells out to this many worker processes",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="shorthand for --workers <CPU count>",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="write results to a .json or .csv file"
    )


def _add_fleet_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifacts",
        type=str,
        default="artifacts",
        help="artifact directory holding the run manifest (default: artifacts)",
    )
    parser.add_argument(
        "--fleet",
        type=str,
        default=None,
        help="JSON fleet definition file (default: the standing fleet derived "
        "from the scenario registry)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="plan the smoke variant of every cell (shrunk rounds/requests; "
        "smoke cells never collide with full-size ones)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("workloads", help="show the non-training workload taxonomy (Table 1)")

    run = sub.add_parser("run", help="run one experiment and print its rows")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment identifier")
    run.add_argument("--rounds", type=int, default=None, help="number of ingested training rounds")
    run.add_argument("--seed", type=int, default=None, help="simulation seed")
    run.add_argument("--out", type=str, default=None, help="write results to a .json or .csv file")
    run.add_argument(
        "--parallel",
        action="store_true",
        help="serve independent (system, workload) traces in parallel worker processes",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count for --parallel (default: CPU count); implies --parallel",
    )

    scenario = sub.add_parser(
        "run-scenario",
        help="run (or sweep) a declarative scenario spec",
        description=(
            "Build and serve the serving tier a ScenarioSpec describes — any "
            "topology (plain engine, routed shards, autoscaled) from one typed "
            "spec file or registered scenario, with conservation asserted on "
            "every run.  Override any field with --set dotted.key=value; sweep "
            "any field with --sweep dotted.key=v1,v2,..."
        ),
    )
    scenario.add_argument("--spec", type=str, default=None, help="path to a .json/.toml spec file")
    scenario.add_argument(
        "--name", type=str, default=None, help="registered scenario name (see --list)"
    )
    scenario.add_argument(
        "--list", action="store_true", help="list the registered scenarios and exit"
    )
    scenario.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one spec field by dotted path, e.g. --set tier.shards=4 (repeatable)",
    )
    scenario.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        dest="axes",
        help=(
            "sweep one spec field over comma-separated values, e.g. "
            "--sweep arrival.utilization=0.5,1.0,2.0 (repeatable; first axis varies slowest)"
        ),
    )
    scenario.add_argument(
        "--smoke",
        action="store_true",
        help="shrink rounds/requests for a fast end-to-end validation run (CI uses this)",
    )
    _add_worker_and_out_flags(scenario)

    missing = sub.add_parser(
        "run-missing",
        help="run only the fleet cells whose artifacts are absent or stale",
        description=(
            "Plan every cell of the evaluation fleet (each registered scenario "
            "plus the standing sweeps), compare each against the content-"
            "addressed run manifest, and execute only the cells whose artifact "
            "is missing, whose spec hash changed, or whose code fingerprint "
            "changed.  Everything else is reused as-is.  Run twice back to "
            "back, the second invocation executes zero cells."
        ),
    )
    _add_fleet_flags(missing)
    missing.add_argument(
        "--dry-run",
        action="store_true",
        help="print the plan (which cells would run and why) without running anything",
    )
    missing.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan cell runs out to this many worker processes",
    )
    missing.add_argument(
        "--parallel", action="store_true", help="shorthand for --workers <CPU count>"
    )

    report = sub.add_parser(
        "report",
        help="render the evaluation report from recorded artifacts (never re-runs)",
        description=(
            "Render the fleet's Markdown + per-experiment CSV report purely "
            "from artifacts recorded in the run manifest.  A missing or stale "
            "cell fails the report with the exact run-missing command that "
            "repairs it; nothing is ever re-run implicitly."
        ),
    )
    _add_fleet_flags(report)
    report.add_argument(
        "--out",
        type=str,
        default=None,
        help="report output directory (default: <artifacts>/report)",
    )
    return parser


def _axis_values(spec: ScenarioSpec, key: str, text: str) -> list:
    """Parse one ``--sweep key=v1,v2`` axis, typed by the field it sweeps."""
    current = field_value(spec, key)  # unknown paths raise ScenarioValidationError
    values = [coerce_override(item.strip(), current, key) for item in text.split(",") if item.strip()]
    if not values:
        raise ScenarioValidationError(f"--sweep {key} needs at least one value")
    return values


def _run_scenario_command(args) -> int:
    """The ``run-scenario`` subcommand: one spec (or a sweep of it) end to end."""
    if args.list:
        rows = []
        for name in list_scenarios():
            spec = get_scenario(name)
            topology = (
                f"{spec.tier.shards}x {spec.tier.router_kind}" if spec.tier.sharded else "engine"
            )
            if spec.tier.autoscaler.enabled:
                topology += f" + {spec.tier.autoscaler.policy} autoscaler"
            rows.append(
                {
                    "scenario": name,
                    "topology": topology,
                    "arrivals": f"{spec.arrival.kind} @ rho={spec.arrival.utilization}",
                    "workloads": ",".join(spec.workload.workloads),
                    "requests": spec.workload.num_requests,
                }
            )
        print(format_table(rows, title="Registered scenarios"))
        return 0
    if bool(args.spec) == bool(args.name):
        print("error: pass exactly one of --spec FILE or --name SCENARIO", file=sys.stderr)
        return 2
    try:
        spec = ScenarioSpec.load(args.spec) if args.spec else get_scenario(args.name)
        overrides: dict[str, str] = {}
        for item in args.overrides:
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise ScenarioValidationError(f"--set expects KEY=VALUE, got {item!r}")
            overrides[key.strip()] = value
        if overrides:
            spec = apply_overrides(spec, overrides)
        if args.smoke:
            spec = smoke_spec(spec)
            reasons = explain_fast_path(spec)
            if reasons:
                print("fast path: event path —")
                for reason in reasons:
                    print(f"  - {reason}")
            else:
                print("fast path: eligible (vectorized)")
        axes: dict[str, list] = {}
        for item in args.axes:
            key, sep, values = item.partition("=")
            if not sep or not key.strip():
                raise ScenarioValidationError(f"--sweep expects KEY=V1,V2,..., got {item!r}")
            axes[key.strip()] = _axis_values(spec, key.strip(), values)
    except (ScenarioValidationError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    workers = args.workers
    if workers is None and args.parallel:
        workers = os.cpu_count() or 1
    tune_gc()
    try:
        # Axis values are validated per grid point inside sweep(); a bad
        # value must exit like any other spec error, not as a traceback.
        if axes:
            rows = scenario_sweep(spec, axes, workers=workers)
            result: dict[str, Any] = {"scenario": spec.name, "rows": rows}
            title = f"Scenario sweep: {spec.name} ({' x '.join(axes)})"
        else:
            report = run_scenario_spec(spec)
            rows = [report.row()]
            result = {
                "scenario": spec.name,
                "rows": rows,
                "mean_service_seconds": report.mean_service_seconds,
                "slo_seconds": report.slo_seconds,
                "offered_rate_rps": report.offered_rate_rps,
            }
            title = f"Scenario: {spec.name}"
    except ScenarioValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result["spec"] = spec.to_dict()
    print(format_table(rows, columns=union_columns(rows), title=title))
    print(
        "summary:",
        {k: v for k, v in result.items() if k not in ("rows", "spec")},
    )
    if args.out:
        if args.out.endswith(".csv"):
            path = export_csv(rows, args.out)
        else:
            path = export_json(result, args.out)
        print(f"wrote {path}")
    return 0


def _fleet_experiments(args):
    return load_fleet(args.fleet) if args.fleet else default_fleet()


def _run_missing_command(args) -> int:
    """The ``run-missing`` subcommand: execute only absent/stale fleet cells."""
    try:
        experiments = _fleet_experiments(args)
        store = ArtifactStore(args.artifacts)
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workers = args.workers
    if workers is None and args.parallel:
        workers = os.cpu_count() or 1
    tune_gc()
    summary = run_missing(
        experiments, store, smoke=args.smoke, workers=workers, dry_run=args.dry_run
    )
    title = "Fleet plan (dry run)" if args.dry_run else "Fleet run"
    print(format_table(summary["cells"], columns=["cell", "status", "action"], title=title))
    print(
        "summary:",
        {
            key: summary[key]
            for key in ("planned", "ran", "reused", "stale", "missing", "dry_run")
        },
    )
    return 0


def _report_command(args) -> int:
    """The ``report`` subcommand: render Markdown + CSV from stored artifacts."""
    try:
        experiments = _fleet_experiments(args)
        store = ArtifactStore(args.artifacts)
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out else os.path.join(args.artifacts, "report")
    try:
        result = generate_report(experiments, store, out_dir, smoke=args.smoke)
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {result['report']}")
    for experiment, csv_path in result["csv"].items():
        print(f"wrote {csv_path} ({result['rows'][experiment]} rows)")
    return 0


def _run_experiment(name: str, rounds: int | None, seed: int | None) -> Any:
    runner, _ = EXPERIMENTS[name]
    kwargs: dict[str, Any] = {}
    if rounds is not None and name in _ACCEPTS_ROUNDS:
        kwargs["num_rounds"] = rounds
    if seed is not None and name in _ACCEPTS_ROUNDS and name not in {"fig19", "sec55", "sec22"}:
        kwargs["seed"] = seed
    return runner(**kwargs)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        rows = [{"experiment": name, "description": desc} for name, (_, desc) in sorted(EXPERIMENTS.items())]
        print(format_table(rows, title="Available experiments"))
        return 0

    if args.command == "workloads":
        rows = [
            {"workload": name, "figure_label": WORKLOAD_DISPLAY_NAMES[name], "policy": policy}
            for name, policy in sorted(TAXONOMY.items())
        ]
        print(format_table(rows, title="Non-training workload taxonomy (Table 1)"))
        return 0

    if args.command == "run-scenario":
        return _run_scenario_command(args)

    if args.command == "run-missing":
        return _run_missing_command(args)

    if args.command == "report":
        return _report_command(args)

    tune_gc()
    if args.parallel or args.workers is not None:
        set_max_workers(args.workers if args.workers is not None else (os.cpu_count() or 1))

    result = _run_experiment(args.experiment, args.rounds, args.seed)
    rows = result["rows"] if isinstance(result, dict) and "rows" in result else result
    title = EXPERIMENTS[args.experiment][1]
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        print(format_table(rows, title=title))
    else:
        print(title)
        print(rows)
    if isinstance(result, dict):
        extras = {k: v for k, v in result.items() if k != "rows" and not isinstance(v, (list, dict))}
        if extras:
            print("summary:", extras)

    if args.out:
        if args.out.endswith(".csv") and isinstance(rows, list):
            path = export_csv(rows, args.out)
        else:
            path = export_json(result, args.out)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
