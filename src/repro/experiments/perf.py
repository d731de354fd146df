"""Reproducible performance harness for the campaign pipeline.

The hot path of this repository is ``run_campaign``: simulate the fleet,
ingest the collected logs, build the report.  This module measures that
path the same way every time, so performance claims are comparable
across commits and machines:

* **wall and CPU time** of the ``run_campaign`` call itself;
* **throughput** as simulator events per second;
* an optional **cProfile table** (top functions by internal time) taken
  in a *separate* profiled run, because the profiler itself inflates
  wall time roughly 2.5-3x on this workload — profiled seconds must
  never be quoted as wall seconds;
* a JSON snapshot (:meth:`PerfResult.to_dict`) suitable for committing
  as a benchmark baseline (``BENCH_campaign.json``) and for regression
  checks in CI (:func:`check_regression`).

The split of that time across layers (engine, logger, transfer, ingest,
report, ...) is the benchmark suite's per-layer ledger
(``benchmarks/suite``), not this harness's job.

Run it from the command line::

    python -m repro.cli perf --repeats 3 --json
    python -m repro.cli perf --profile
    python -m repro.cli perf --check-against BENCH_campaign.json
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.clock import MONTH
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry

#: CI fails when the measured wall time exceeds the committed baseline
#: by more than this factor (generous: CI runners are shared machines).
DEFAULT_REGRESSION_THRESHOLD = 2.0

#: CI threshold for CPU seconds (:func:`time.process_time`).  CPU time
#: excludes scheduler preemption and other-tenant noise, so the gate
#: can be much tighter than the wall-time one without flaking.
DEFAULT_CPU_REGRESSION_THRESHOLD = 1.6


@dataclass
class PerfResult:
    """One measured campaign run (the best of ``repeats``)."""

    phones: int
    months: float
    seed: int
    repeats: int
    #: Wall seconds of the best (fastest) repeat.
    wall_seconds: float
    events_fired: int
    events_per_second: float
    #: Total log entries the collection server gathered.
    records_collected: int
    #: Wall seconds of every repeat, in run order (noise visibility).
    all_wall_seconds: List[float] = field(default_factory=list)
    #: CPU seconds (:func:`time.process_time`) of the same best repeat.
    #: CPU time is immune to machine load, so it is the preferred
    #: regression-gate metric.
    cpu_seconds: float = 0.0
    #: CPU seconds of every repeat, in run order.
    all_cpu_seconds: List[float] = field(default_factory=list)
    #: Top functions by internal time from the profiled run, if any.
    #: Profiled time is reported separately and is NOT wall time.
    profile_top: Optional[List[Dict[str, Any]]] = None
    profile_wall_seconds: Optional[float] = None
    #: Headline counter totals from a separate telemetry-enabled run
    #: (deterministic in the seed, so they describe the timed runs too).
    counter_totals: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "config": {
                "phones": self.phones,
                "months": self.months,
                "seed": self.seed,
                "repeats": self.repeats,
            },
            "wall_seconds": round(self.wall_seconds, 4),
            "all_wall_seconds": [round(t, 4) for t in self.all_wall_seconds],
            "cpu_seconds": round(self.cpu_seconds, 4),
            "all_cpu_seconds": [round(t, 4) for t in self.all_cpu_seconds],
            "events_fired": self.events_fired,
            "events_per_second": round(self.events_per_second, 1),
            "records_collected": self.records_collected,
        }
        if self.counter_totals is not None:
            data["counters"] = {
                name: value for name, value in sorted(self.counter_totals.items())
            }
        if self.profile_top is not None:
            data["profile"] = {
                "note": (
                    "profiled seconds include interpreter tracing overhead "
                    "(~2.5-3x on this workload); compare wall_seconds only"
                ),
                "wall_seconds_profiled": round(self.profile_wall_seconds or 0.0, 4),
                "top_functions": self.profile_top,
            }
        return data

    def render(self) -> str:
        """Human-readable report."""
        lines = [
            f"campaign perf: {self.phones} phones x {self.months:g} months, "
            f"seed {self.seed}",
            f"  wall time      : {self.wall_seconds:.3f} s "
            f"(best of {self.repeats}: "
            + ", ".join(f"{t:.3f}" for t in self.all_wall_seconds)
            + ")",
            f"  cpu time       : {self.cpu_seconds:.3f} s "
            f"(best repeat: "
            + ", ".join(f"{t:.3f}" for t in self.all_cpu_seconds)
            + ")",
        ]
        lines.append(f"  events fired   : {self.events_fired}")
        lines.append(f"  events/second  : {self.events_per_second:,.0f}")
        lines.append(f"  records        : {self.records_collected}")
        if self.counter_totals:
            lines.append("  counters (separate telemetry run):")
            for name, value in sorted(self.counter_totals.items()):
                lines.append(f"    {name:32s}: {value:,.0f}")
        if self.profile_top:
            lines.append(
                f"  profile (separate run, {self.profile_wall_seconds:.3f} s "
                "profiled — includes tracing overhead):"
            )
            lines.append(
                f"    {'ncalls':>10s}  {'tottime':>8s}  {'cumtime':>8s}  function"
            )
            for row in self.profile_top:
                lines.append(
                    f"    {row['ncalls']:>10}  {row['tottime']:8.3f}  "
                    f"{row['cumtime']:8.3f}  {row['function']}"
                )
        return "\n".join(lines)


def measure_campaign(
    config: Optional[CampaignConfig] = None,
    repeats: int = 1,
    profile: bool = False,
    profile_top: int = 12,
    counters: bool = True,
) -> PerfResult:
    """Measure ``run_campaign``; returns the best of ``repeats``.

    Each repeat times the ``run_campaign(config)`` call itself, sampling
    :func:`time.perf_counter` (wall) and :func:`time.process_time` (CPU)
    back to back; CPU seconds do not accumulate while the scheduler runs
    someone else, which is what makes them the stable regression metric
    on shared machines.  Wall numbers always come from clean
    (unprofiled, untelemetered) runs.  With ``profile=True`` one
    *additional* call executes under cProfile to produce the
    hot-function table.  With ``counters=True`` (the default) one
    additional metrics-level run samples the headline counter totals —
    deterministic in the seed, so they describe the timed runs exactly.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = config if config is not None else CampaignConfig.paper_scale()

    all_walls: List[float] = []
    all_cpus: List[float] = []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        result = run_campaign(config)
        all_walls.append(time.perf_counter() - t0)
        all_cpus.append(time.process_time() - c0)
        # Deterministic in the seed, so any repeat's counts will do;
        # drop the result so the next repeat never runs beside it.
        events = result.fleet.sim.events_fired
        records = result.fleet.collector.total_lines
        del result
    wall = min(all_walls)
    best = all_walls.index(wall)

    top_rows: Optional[List[Dict[str, Any]]] = None
    profiled_wall: Optional[float] = None
    if profile:
        profiler = cProfile.Profile()
        t0 = time.perf_counter()
        profiler.enable()
        run_campaign(config)
        profiler.disable()
        profiled_wall = time.perf_counter() - t0
        stats = pstats.Stats(profiler)
        stats.sort_stats("tottime")
        top_rows = []
        for func in stats.fcn_list[:profile_top]:  # type: ignore[attr-defined]
            cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
            filename, lineno, name = func
            location = f"{filename}:{lineno}({name})"
            if filename.startswith("~"):  # C builtins
                location = name
            top_rows.append(
                {
                    "function": location,
                    "ncalls": nc if cc == nc else f"{nc}/{cc}",
                    "tottime": round(tt, 4),
                    "cumtime": round(ct, 4),
                }
            )

    totals: Optional[Dict[str, float]] = None
    if counters:
        tel = Telemetry(TELEMETRY_METRICS)
        run_campaign(config, telemetry=tel)
        totals = tel.registry.counter_totals()

    months = config.fleet.duration / MONTH
    return PerfResult(
        phones=config.fleet.phone_count,
        months=round(months, 3),
        seed=config.seed,
        repeats=repeats,
        wall_seconds=wall,
        events_fired=events,
        events_per_second=events / wall if wall > 0 else 0.0,
        records_collected=records,
        all_wall_seconds=all_walls,
        cpu_seconds=all_cpus[best],
        all_cpu_seconds=all_cpus,
        profile_top=top_rows,
        profile_wall_seconds=profiled_wall,
        counter_totals=totals,
    )


def measure_live_overhead(
    config: Optional[CampaignConfig] = None,
    repeats: int = 3,
) -> Dict[str, Any]:
    """A/B the live op-log flush hook: heartbeats on vs off.

    Runs the same campaign ``repeats`` times in each arm, interleaved
    with the leading arm alternating per repeat (off/on, then on/off,
    ...) after one untimed warmup, so machine drift and cache warming
    hit both arms symmetrically.  The *on* arm installs a
    process-current :class:`OpLogWriter` whose heartbeats ride each
    phone's periodic-transfer callback, exactly as a ``--live`` worker
    does.  Best-of CPU seconds is the gate metric (immune to scheduler
    noise); the returned dict is the ``live_overhead`` section of
    ``BENCH_campaign.json``.
    """
    import shutil
    import tempfile

    from repro.observability.live import OpLogWriter, install_live_writer

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = config if config is not None else CampaignConfig.paper_scale()
    live_dir = tempfile.mkdtemp(prefix="repro-live-bench-")
    off_wall: List[float] = []
    off_cpu: List[float] = []
    on_wall: List[float] = []
    on_cpu: List[float] = []
    heartbeats = 0

    def _run_off() -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        run_campaign(config)
        off_wall.append(time.perf_counter() - t0)
        off_cpu.append(time.process_time() - c0)

    def _run_on() -> None:
        nonlocal heartbeats
        writer = OpLogWriter(live_dir)
        previous = install_live_writer(writer)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            run_campaign(config)
            on_wall.append(time.perf_counter() - t0)
            on_cpu.append(time.process_time() - c0)
        finally:
            install_live_writer(previous)
            heartbeats += writer.seq
            writer.close()

    try:
        # Untimed warmup: the first run pays import, allocator, and
        # branch-predictor warming that would otherwise bias whichever
        # arm happens to go first.
        run_campaign(config)
        for i in range(repeats):
            first, second = (_run_off, _run_on) if i % 2 == 0 else (
                _run_on,
                _run_off,
            )
            first()
            second()
    finally:
        shutil.rmtree(live_dir, ignore_errors=True)

    best_off_cpu, best_on_cpu = min(off_cpu), min(on_cpu)
    best_off_wall, best_on_wall = min(off_wall), min(on_wall)
    cpu_overhead = (
        100.0 * (best_on_cpu / best_off_cpu - 1.0) if best_off_cpu > 0 else 0.0
    )
    wall_overhead = (
        100.0 * (best_on_wall / best_off_wall - 1.0)
        if best_off_wall > 0
        else 0.0
    )
    return {
        "config": {
            "phones": config.fleet.phone_count,
            "months": round(config.fleet.duration / MONTH, 3),
            "seed": config.seed,
            "repeats": repeats,
        },
        "wall_seconds_off": round(best_off_wall, 4),
        "wall_seconds_on": round(best_on_wall, 4),
        "cpu_seconds_off": round(best_off_cpu, 4),
        "cpu_seconds_on": round(best_on_cpu, 4),
        "all_cpu_seconds_off": [round(t, 4) for t in off_cpu],
        "all_cpu_seconds_on": [round(t, 4) for t in on_cpu],
        "heartbeats_per_run": heartbeats // repeats,
        "cpu_overhead_percent": round(cpu_overhead, 3),
        "wall_overhead_percent": round(wall_overhead, 3),
    }


def load_baseline(path: str) -> Dict[str, Any]:
    """Read a committed benchmark snapshot (``BENCH_campaign.json``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def baseline_wall_seconds(baseline: Dict[str, Any]) -> float:
    """The reference wall time inside a benchmark snapshot.

    Accepts either a bare :meth:`PerfResult.to_dict` dump or the
    committed ``BENCH_campaign.json`` shape (reference under
    ``"optimized"``).
    """
    if "optimized" in baseline:
        return float(baseline["optimized"]["wall_seconds"])
    return float(baseline["wall_seconds"])


def baseline_cpu_seconds(baseline: Dict[str, Any]) -> Optional[float]:
    """The reference CPU time inside a benchmark snapshot, if recorded.

    Returns ``None`` for snapshots committed before CPU timing existed,
    so callers can fall back to the wall-time gate.
    """
    source = baseline.get("optimized", baseline)
    value = source.get("cpu_seconds")
    return float(value) if value is not None else None


def baseline_counters(baseline: Dict[str, Any]) -> Dict[str, float]:
    """The committed headline counter totals inside a benchmark snapshot.

    Accepts either a bare :meth:`PerfResult.to_dict` dump (counters at
    the top level) or the committed ``BENCH_campaign.json`` shape
    (under ``"optimized"``).

    Raises:
        ValueError: if the snapshot carries no counters.
    """
    source = baseline.get("optimized", baseline)
    counters = source.get("counters")
    if not counters:
        raise ValueError("baseline snapshot has no 'counters' section")
    return {name: float(value) for name, value in counters.items()}


def check_counters(
    result: PerfResult, baseline: Dict[str, Any]
) -> Tuple[bool, str]:
    """Bit-exact identity check of headline telemetry counters.

    The hot-path optimisations are only admissible while the simulated
    campaign is *observably unchanged*, and the committed counter
    totals are the cheapest observable: any drift in event scheduling,
    bus traffic, or logger dispatch shows up here as an integer
    mismatch.  Unlike :func:`check_regression` there is no tolerance —
    every counter named in the baseline must match exactly.
    """
    reference = baseline_counters(baseline)
    measured = result.counter_totals
    if measured is None:
        return False, "no counters measured (run with counters=True)"
    mismatches = []
    for name, expected in sorted(reference.items()):
        actual = measured.get(name)
        if actual is None:
            mismatches.append(f"{name}: missing (expected {expected:g})")
        elif float(actual) != expected:
            mismatches.append(f"{name}: {actual:g} != {expected:g}")
    if mismatches:
        return False, "counter identity broken: " + "; ".join(mismatches)
    return True, f"{len(reference)} counters bit-identical to baseline"


def check_regression(
    result: PerfResult,
    baseline: Dict[str, Any],
    threshold: Optional[float] = None,
) -> Tuple[bool, str]:
    """Compare a fresh measurement against a committed baseline.

    Prefers CPU seconds when the baseline records them: wall time on a
    shared CI runner swings 2x with co-tenant load, which forced the
    historical wall gate to be loose, while process CPU time stays
    within a few percent — so the CPU gate can be tight
    (:data:`DEFAULT_CPU_REGRESSION_THRESHOLD`) without flaking.  Old
    snapshots without ``cpu_seconds`` fall back to the wall gate.
    ``threshold`` overrides the default factor for whichever metric is
    used.  Returns ``(ok, message)``.
    """
    reference_cpu = baseline_cpu_seconds(baseline)
    if reference_cpu is not None and result.cpu_seconds > 0:
        limit = threshold if threshold is not None else DEFAULT_CPU_REGRESSION_THRESHOLD
        ratio = result.cpu_seconds / reference_cpu if reference_cpu > 0 else float("inf")
        message = (
            f"cpu {result.cpu_seconds:.3f} s vs baseline {reference_cpu:.3f} s "
            f"({ratio:.2f}x, threshold {limit:g}x)"
        )
        return ratio <= limit, message
    reference = baseline_wall_seconds(baseline)
    limit = threshold if threshold is not None else DEFAULT_REGRESSION_THRESHOLD
    ratio = result.wall_seconds / reference if reference > 0 else float("inf")
    message = (
        f"wall {result.wall_seconds:.3f} s vs baseline {reference:.3f} s "
        f"({ratio:.2f}x, threshold {limit:g}x)"
    )
    return ratio <= limit, message
