"""Run one workload for a fixed time and report its metrics.

An untraced run reports the end-to-end metrics of ``BENCHMARK.json``;
a traced run (``trace=True``) reports its per-layer metrics.  Either
way the result is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.suite.compare import quartiles
from benchmarks.suite.layers import TRACERS, Traced
from benchmarks.suite.spec import ROOT, committed_digests, load_spec
from benchmarks.suite.workloads import (
    DIGEST_SEED,
    Unit,
    Workload,
    make_workload,
    run_fresh,
)
from repro.observability.export import chrome_trace, validate_chrome_trace
from repro.observability.tracer import SpanTracer

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 3

#: Iterations of the host-speed reference loop.
REFERENCE_ITERATIONS = 800_000
#: Seconds the reference loop takes at the reference speed (a quiet
#: 2.1 GHz vCPU of the host the baseline was measured on).
REFERENCE_S = 0.05


def reference_loop() -> float:
    """Seconds a fixed loop of integer bytecode takes right now.

    On a shared host the speed of a vCPU drifts by a fifth or more over
    minutes, and the program slows down with it.  Timing this loop,
    which does not touch ``repro``, next to every unit lets times and
    rates be quoted at the reference speed.
    """
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return perf_counter() - start


def slowdown_between(loop_before: float, loop_after: float) -> float:
    """How much slower than the reference speed the host ran between
    two reference loops (1.1: everything took 10% longer)."""
    return (loop_before + loop_after) / 2.0 / REFERENCE_S


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Sample:
    """One timed unit: its output summary, wall and CPU seconds."""

    unit: Optional[Unit]
    wall: float
    cpu: float
    problems: List[str]
    #: How much slower than the reference speed the host ran the unit:
    #: the reference loop's mean time just before and just after it,
    #: over ``REFERENCE_S``.
    slowdown: float = 1.0


def timed_units(
    workload: Workload, seconds: float, index_of: Callable[[int], int], group: int = 1
) -> List[Sample]:
    """Closed loop of whole passes of ``group`` units; each unit starts
    only after the previous one is checked.  The run ends at the pass
    boundary nearest to ``seconds`` (after one pass at least), so every
    run measures the same mix of inputs however fast the host is."""
    samples: List[Sample] = []
    start = perf_counter()
    loop_before = reference_loop()
    while True:
        if samples and len(samples) % group == 0:
            elapsed = perf_counter() - start
            per_pass = elapsed / (len(samples) // group)
            if elapsed + per_pass / 2.0 >= seconds:
                break
        index = index_of(len(samples))
        # Reclaim the previous unit's cycles outside the timed region.
        gc.collect()
        cpu_start = cpu_seconds()
        wall_start = perf_counter()
        try:
            output = workload.run(index)
        except Exception:
            wall = perf_counter() - wall_start
            samples.append(Sample(None, wall, cpu_seconds() - cpu_start, [traceback.format_exc()]))
            continue
        wall = perf_counter() - wall_start
        cpu = cpu_seconds() - cpu_start
        loop_after = reference_loop()
        unit = workload.inspect(index, output)
        del output
        samples.append(
            Sample(unit, wall, cpu, list(unit.problems), slowdown_between(loop_before, loop_after))
        )
        loop_before = loop_after
    return samples


def check_digests(
    samples: List[Sample], workload: str, scale: str, untimed: Sequence[Unit] = ()
) -> None:
    """Units with the same input must agree (``untimed`` units, such as
    the warmup, take part but are not counted); at the committed seed
    they must also match ``digests.json``."""
    by_key: Dict[str, set] = {}
    for unit in [s.unit for s in samples if s.unit is not None] + list(untimed):
        by_key.setdefault(unit.key, set()).add(unit.digest)
    expected = committed_digests().get(workload) if scale == "bench" else None
    for sample in samples:
        unit = sample.unit
        if unit is None:
            continue
        if len(by_key[unit.key]) > 1:
            sample.problems.append(f"digest of input {unit.key} differs between repeats")
        if expected is not None and unit.key == str(DIGEST_SEED) and unit.digest != expected:
            sample.problems.append(
                f"digest {unit.digest} of seed {DIGEST_SEED} != committed {expected}"
            )


def emit(values: Dict[str, float], declared: List[dict]) -> Dict[str, dict]:
    """Attach units; every declared metric and no other must be present."""
    names = [metric["name"] for metric in declared]
    undeclared = sorted(set(values) - set(names))
    missing = sorted(set(names) - set(values))
    if undeclared or missing:
        raise ValueError(f"metrics undeclared: {undeclared}; missing: {missing}")
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


@dataclass
class Outcome:
    """A finished run: the result object and what produced it."""

    result: dict
    #: name -> (first quartile, median, third quartile, n), untraced runs.
    spread: Dict[str, Tuple[float, float, float, int]]
    samples: List[Sample]
    traced: Optional[Traced] = None
    tracer: Optional[SpanTracer] = None


def untraced(workload: Workload, seconds: float, scale: str, spec: dict) -> Outcome:
    setups = []
    loop_before = reference_loop()
    for _ in range(SETUP_PROBES):
        probe = run_fresh(
            "setup",
            workload=workload.name,
            seed=workload.seed,
            scale=scale,
            logs=getattr(workload, "logs", ""),
        )
        loop_after = reference_loop()
        setups.append(
            (probe["import_s"] + probe["construct_s"]) / slowdown_between(loop_before, loop_after)
        )
        loop_before = loop_after
    warm = [workload.inspect(0, workload.run(0))] if workload.warmup else []
    samples = timed_units(workload, seconds, index_of=lambda i: i, group=workload.group)
    check_digests(samples, workload.name, scale, untimed=warm)
    good = [s for s in samples if not s.problems]
    series = {
        "events_per_s": [s.unit.events * s.slowdown / s.wall for s in good],
        "lines_per_s": [s.unit.lines * s.slowdown / s.wall for s in good],
        "cpu_us_per_line": [s.cpu / s.slowdown / s.unit.lines * 1e6 for s in good],
        "setup_s": setups,
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        # Shown, not emitted: the rates as measured, and the host's speed.
        "events_per_s at host speed": [s.unit.events / s.wall for s in good],
        "host slowdown": [s.slowdown for s in good],
    }
    spread = {
        name: (*quartiles(values), len(values)) for name, values in series.items() if values
    }
    declared = {metric["name"] for metric in spec["end_to_end"]}
    values = {name: stats[1] for name, stats in spread.items() if name in declared}
    return Outcome(
        result=result_object(samples, emit(values, spec["end_to_end"]) if good else {}),
        spread=spread,
        samples=samples,
    )


def traced(
    workload: Workload, seconds: float, scale: str, spec: dict, trace_dir: str
) -> Outcome:
    """After an untimed warmup, untraced reference units on the traced
    input for half the time, then the traced unit; its overhead is
    measured against them."""
    warm = workload.inspect(0, workload.run(0))
    samples = timed_units(workload, seconds / 2.0, index_of=lambda i: 0)
    check_digests(samples, workload.name, scale, untimed=[warm])
    good = [s for s in samples if not s.problems]
    if not good:
        return Outcome(result=result_object(samples, {}), spread={}, samples=samples)
    tracer = SpanTracer()
    gc.collect()
    loop_before = reference_loop()
    outcome = TRACERS[workload.name](
        workload, tracer, statistics.median(s.wall for s in good)
    )
    slowdown = slowdown_between(loop_before, reference_loop())
    # Both sides at the reference speed.
    untraced_cost = statistics.median(
        (s.cpu if outcome.cost_is_cpu else s.wall) / s.slowdown for s in good
    )
    outcome.values["trace.overhead"] = outcome.cost / slowdown / untraced_cost - 1.0
    problems = list(outcome.problems)
    if outcome.digest != good[0].unit.digest:
        problems.append("traced unit's digest differs from the untraced units'")
    trace = chrome_trace(tracer, outcome.registry)
    problems += [f"chrome trace: {problem}" for problem in validate_chrome_trace(trace)]
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{workload.name}-{workload.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    print(f"chrome trace: {path}")
    samples.append(Sample(None, outcome.wall, 0.0, problems))
    values = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    values.update(outcome.values)
    return Outcome(
        result=result_object(samples, emit(values, spec["per_layer"])),
        spread={},
        samples=samples,
        traced=outcome,
        tracer=tracer,
    )


def result_object(samples: List[Sample], metrics: Dict[str, dict]) -> dict:
    failed = sum(1 for sample in samples if sample.problems)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    scale: str = "bench",
) -> Outcome:
    """Make the workload's inputs, measure, and clean up.

    Scratch files live under ``.bench_work/`` in the checkout (also the
    process's temp directory for the duration); traced runs keep their
    Chrome trace under ``.bench_work/traces/``.
    """
    spec = load_spec()
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=work_root)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = workdir
    try:
        workload = make_workload(workload_name, seed, scale, workdir)
        if trace:
            return traced(
                workload, seconds, scale, spec, os.path.join(work_root, "traces")
            )
        return untraced(workload, seconds, scale, spec)
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(workdir, ignore_errors=True)


def report(outcome: Outcome, workload: str, seed: int, out=sys.stdout) -> None:
    """Human-readable lines, then the result object as the last line."""
    for index, sample in enumerate(outcome.samples):
        for problem in sample.problems:
            print(f"FAILED unit {index}: {problem}", file=sys.stderr)
    units = len(outcome.samples)
    print(f"workload {workload}, seed {seed}: {units} units", file=out)
    if outcome.spread:
        print(f"  {'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}", file=out)
        for name, (low, mid, high, count) in outcome.spread.items():
            unit = outcome.result["metrics"].get(name, {}).get("unit", "")
            print(
                f"  {name:<26} {mid:>14.6g} {low:>14.6g} {high:>14.6g} {count:>4}  {unit}",
                file=out,
            )
    elif outcome.result["metrics"]:
        for name, metric in outcome.result["metrics"].items():
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}", file=out)
    print(json.dumps(outcome.result), file=out)
