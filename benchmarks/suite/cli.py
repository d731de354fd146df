"""Command line of the benchmark.

    python -m benchmarks.suite run --workload paper [--seed 2005] [--seconds 18] [--trace 0|1]
    python -m benchmarks.suite trace --workload sharded
    python -m benchmarks.suite all [--trace 0|1]
    python -m benchmarks.suite compare --parent DIR --change DIR [--workload wide] [--pairs 10]

``run`` prints a table, then one JSON result object as its last line,
and exits 1 when any output check failed.  ``all`` runs every workload,
each in its own process so that peak RSS is per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

from benchmarks.suite.spec import ROOT, SUITE_DIR, WORKLOADS, load_spec


def _run_args(parser: argparse.ArgumentParser, spec: dict, workload: bool, trace: bool) -> None:
    if workload:
        parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    if trace:
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)


def _check_checkout() -> None:
    """Measure the program in this checkout, never an installed copy."""
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(ROOT, "src", "repro"):
        raise SystemExit(f"repro imported from {where}, not from this checkout's src/")


def _run(args: argparse.Namespace, trace: bool) -> int:
    _check_checkout()
    from benchmarks.suite.measure import report, run

    outcome = run(args.workload, args.seed, args.seconds, trace=trace)
    report(outcome, args.workload, args.seed)
    return 0 if outcome.result["correct"] else 1


def _all(args: argparse.Namespace) -> int:
    worst = 0
    for workload in WORKLOADS:
        argv = [
            sys.executable, os.path.join(SUITE_DIR, "run.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def _compare(args: argparse.Namespace, spec: dict) -> int:
    from benchmarks.suite.compare import MIN_PAIRS, render, run_pairs, verdicts

    if args.pairs < MIN_PAIRS:
        raise SystemExit(f"--pairs must be at least {MIN_PAIRS}")
    seeds = [args.seed + index for index in range(args.pairs)]
    saved = {}
    worst = 0
    for workload in args.workload or WORKLOADS:
        runs = run_pairs(args.parent, args.change, workload, seeds, args.seconds)
        saved[workload] = runs
        results = verdicts(runs, spec["end_to_end"])
        print(render(workload, results))
        if any(v.status == "regression" for v in results):
            worst = 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seeds": seeds, "runs": saved}, handle, indent=1)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _run_args(sub.add_parser("run", help="run one workload"), spec, workload=True, trace=True)
    _run_args(
        sub.add_parser("trace", help="traced run of one workload: per-layer metrics"),
        spec, workload=True, trace=False,
    )
    _run_args(sub.add_parser("all", help="run every workload"), spec, workload=False, trace=True)
    compare = sub.add_parser(
        "compare", help="paired runs of two checkouts, judged metric by metric"
    )
    compare.add_argument("--parent", required=True, help="checkout of the parent commit")
    compare.add_argument("--change", required=True, help="checkout of the change")
    compare.add_argument("--workload", choices=WORKLOADS, action="append")
    compare.add_argument("--pairs", type=int, default=10)
    compare.add_argument("--seed", type=int, default=2005, help="first pair's seed")
    compare.add_argument("--seconds", type=int, default=spec["run_seconds"])
    compare.add_argument("--out", help="also write every run's result here (JSON)")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args, trace=bool(args.trace))
    if args.command == "trace":
        return _run(args, trace=True)
    if args.command == "all":
        return _all(args)
    return _compare(args, spec)
