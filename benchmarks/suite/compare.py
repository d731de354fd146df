"""Compare two commits on the benchmark by the rule every perf claim in
this repository uses.

* At least ``MIN_PAIRS`` pairs of runs, one per side, with the same
  seed; the side that runs first alternates from pair to pair.
* Each side is summarised by its median and quartiles.
* ``gain``: the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ, in the change's
  favour, by more than the parent's spread between quartiles.
* Otherwise the change may be worse than the parent's median by at
  most the metric's bound from ``BENCHMARK.json`` (``no-regression``,
  else ``regression``).  When the parent's spread is wider than the
  bound the metric is ``unresolved``, unless every run of the change
  reads better than every run of the parent.

Only the standard library is used: this module drives other checkouts.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives the quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


@dataclass
class Verdict:
    metric: str
    status: str
    wins: int
    pairs: int
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    #: How much worse the change's median is, as a share of the
    #: parent's (negative: better).
    worse_by: float


def classify(
    metric: str,
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Verdict:
    """Apply the rule to one metric; ``parent[i]`` pairs with ``change[i]``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same, non-zero number of runs")
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(1 for old, new in zip(parent, change) if sign * (new - old) > 0)
    p_low, p_mid, p_high = quartiles(parent)
    c_quartiles = quartiles(change)
    gained = sign * (c_quartiles[1] - p_mid)
    worse_by = -gained / abs(p_mid)
    all_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gained > p_high - p_low:
        status = "gain"
    elif (p_high - p_low) / abs(p_mid) > bound and not all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regression"
    else:
        status = "no-regression"
    return Verdict(metric, status, wins, pairs, (p_low, p_mid, p_high), c_quartiles, worse_by)


def run_side(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in ``checkout``; returns its result object."""
    argv = [
        sys.executable,
        os.path.join("benchmarks", "suite", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {workload} seed {seed} exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(lines[-1])


def run_pairs(
    parent: str, change: str, workload: str, seeds: Sequence[int], seconds: int
) -> Dict[str, List[dict]]:
    """Alternate which side runs first; pair ``i`` uses ``seeds[i]``."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(run_side(checkout, workload, seed, seconds, trace=0))
            print(f"  pair {index + 1}/{len(seeds)} {side} done", file=sys.stderr)
    return runs


def verdicts(runs: Dict[str, List[dict]], declared: List[dict]) -> List[Verdict]:
    out = []
    for metric in declared:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        out.append(classify(name, parent, change, metric["better"], metric["bound"]))
    return out


def render(workload: str, results: List[Verdict]) -> str:
    lines = [
        f"workload {workload}:",
        f"  {'metric':<16} {'status':<14} {'wins':>7} "
        f"{'parent q1/median/q3':>36} {'change q1/median/q3':>36} {'worse by':>9}",
    ]
    for v in results:
        parent = "/".join(f"{x:.5g}" for x in v.parent)
        change = "/".join(f"{x:.5g}" for x in v.change)
        lines.append(
            f"  {v.metric:<16} {v.status:<14} {v.wins:>3}/{v.pairs:<3} "
            f"{parent:>36} {change:>36} {v.worse_by:>+9.2%}"
        )
    return "\n".join(lines)
