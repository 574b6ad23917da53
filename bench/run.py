"""Run the benchmark: each workload in a fresh process, then one JSON line.

    python3 bench/run.py --seed 7 [--workload NAME]... [--seconds S] [--trace 0|1] [--out FILE]

Without ``--workload`` every workload runs, one after another.  Each runs in
its own single-threaded child (``harness.py``, with ``src/`` on
``PYTHONPATH``), so its peak RSS is its own and the traced pass's wrappers
never touch an untraced measurement.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Metric names
are prefixed ``WORKLOAD/`` when more than one workload ran.  The command
exits non-zero when any run failed its output check, and without printing
a result when a child could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from suite import END_TO_END, PER_LAYER, REPORTED_ONLY, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A child that takes longer than this is killed and the command fails.
CHILD_TIMEOUT_S = 170
DEFAULT_SECONDS = 15


def child_env() -> dict:
    """Environment of a workload process: one BLAS thread, fixed hash seed."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(name: str, args) -> dict | None:
    """Measure one workload in a child process; ``None`` if it could not run."""
    command = [
        sys.executable,
        str(BENCH / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(result: dict) -> None:
    details = result["details"]
    metrics = result["metrics"]
    seeds = details["instance_seeds"]
    peaks = [p for p in details["peak_rss_mb"] if p is not None]
    print(
        f"== {result['workload']} (seed {result['seed']}): {len(seeds)} instances at spec seeds "
        f"{seeds[0]}..{seeds[-1]}, {details['cold_setups']} cold set-ups, "
        f"output_digest {result['digest']}"
    )
    notes = {
        "req_per_s": (
            f"q1 {_fmt(details.get('req_per_s_q1'))}  q3 {_fmt(details.get('req_per_s_q3'))}  "
            f"runs={details.get('runs', 0)}  raw {_fmt(details.get('raw_req_per_s'))}"
        ),
        "setup_s": f"n={details['cold_setups']}  raw {_fmt(details.get('raw_setup_s'))}",
        "peak_rss_mb": f"instances' peaks {min(peaks, default=0):.1f}..{max(peaks, default=0):.1f}",
        "fail_rate": f"{result['failed']}/{result['attempted']} runs failed",
    }
    print(f"   (times scaled by a reference job; its median here {details['reference_s']:.4f} s)")
    for name in (*END_TO_END, *REPORTED_ONLY):
        if name in metrics:
            metric = metrics[name]
            print(f"   {name:<14}{_fmt(metric['value']):>14} {metric['unit']:<9}{notes.get(name, '')}")


def print_trace(result: dict) -> None:
    details = result["details"]
    print(f"== {result['workload']} (seed {result['seed']}): traced, {details['pairs']} pairs")
    must_fire = WORKLOADS[result["workload"]].must_fire
    print("   span coverage (calls in one traced run; * = must fire):")
    for layer, calls in details.get("coverage", {}).items():
        mark = "*" if layer in must_fire else " "
        print(f"    {mark} {layer:<34}{calls:>10}")
    metrics = {**result["metrics"], **details.get("percentiles", {})}
    for name, metric in metrics.items():
        print(f"   {name:<42}{_fmt(metric['value']):>14} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="FLStore simulator benchmark")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write every child's full result and host info here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 2
        results[name] = result
        (print_trace if args.trace else print_end_to_end)(result)
        for error in result["errors"]:
            print(f"   FAILED: {error}")

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    complete = True
    for name, result in results.items():
        prefix = f"{name}/" if len(results) > 1 else ""
        for metric in wanted:
            if metric in result["metrics"]:
                metrics[prefix + metric] = result["metrics"][metric]
            else:
                complete = False
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = complete and failed == 0
    if args.out:
        payload = {"argv": sys.argv, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "host": results[names[0]]["host"], "workloads": results}
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
