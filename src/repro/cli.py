"""Command-line interface.

Nine subcommands cover the whole study:

* ``campaign`` — simulate a deployment campaign, print the full report,
  optionally export the raw per-phone log files to a directory;
* ``analyze``  — ingest previously exported log files and rerun the
  offline analysis (the logs are the complete interface: this is the
  paper's analysis workstation).  Takes the same coalescence window and
  report-shape flags as ``campaign``, so an exported-then-reanalyzed
  campaign reproduces the same report;
* ``sweep``    — re-run the campaign across many seeds in parallel
  (the reproduction's robustness workhorse); ``--cache DIR`` is the
  run directory, and a rerun on it adopts every committed campaign;
* ``forum``    — run the §4 web-forum study;
* ``perf``     — time ``run_campaign`` (wall and CPU seconds,
  events/second, optional cProfile table) and optionally check the
  result against a committed baseline such as ``BENCH_campaign.json``;
* ``trace``    — run one campaign at full telemetry and write a Chrome
  ``trace_event`` JSON timeline (open it in ``chrome://tracing`` or
  https://ui.perfetto.dev), plus a top-N hotspot summary on stdout;
* ``faults``   — inject faults into the collection path (storage,
  transfer, worker, commit layers) at swept intensities and report how
  far the headline figures drift — the degradation-curve experiment
  that certifies the pipeline degrades gracefully;
* ``megafleet`` — run one large campaign as K deterministic
  per-phone-range shards with streaming merge: peak memory is bounded
  by the largest shard, and the merged summary is bit-identical to the
  monolithic run (``--verify`` proves it in-process).  ``--cache DIR``
  is the run directory: shards are committed there, and a rerun (after
  a ``kill -9`` or not) adopts every committed shard of the same
  campaign and computes only the rest.  ``--live`` streams worker
  heartbeats into a durable op-log and prints rolling fleet KPIs
  without changing a single result bit;
* ``monitor``  — tail a live (or crashed) campaign's op-log from
  another terminal: refreshing dashboard of committed progress,
  rolling MTBF/panic-mix/quarantine KPIs, per-worker throughput, ETA,
  and a Prometheus text snapshot (``metrics.prom``) on every fold.

An invalid configuration or argument (``--phones 0``, ``--months nan``,
``--seeds 5,x``, ``--shards 0``, ...) exits 1 with a one-line
``repro <command>: <message>`` on stderr.

Usage::

    python -m repro.cli campaign --phones 25 --months 14 --export logs/
    python -m repro.cli analyze logs/ --window 300 --headline-only
    python -m repro.cli sweep --seeds 11,22,33 --workers 4 --cache .sweep/
    python -m repro.cli forum --noise 0.25
    python -m repro.cli perf --repeats 3 --profile
    python -m repro.cli perf --check-against BENCH_campaign.json
    python -m repro.cli trace trace.json --phones 25 --months 14
    python -m repro.cli faults --intensities 0.5,1,2 --output robustness.json
    python -m repro.cli faults --max-drift 5 --gate-intensity 1 --resilience
    python -m repro.cli megafleet --phones 10000 --months 2 --shards 16 \\
        --workers 4 --output BENCH_megafleet.json
    python -m repro.cli megafleet --phones 50 --shards 5 --verify
    python -m repro.cli megafleet --phones 100000 --shards 64 --workers 8 \\
        --cache .mega/ --live
    python -m repro.cli monitor .mega/ --interval 2
    python -m repro.cli monitor .mega/ --once
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from repro.analysis.coalescence import DEFAULT_WINDOW
from repro.analysis.ingest import Dataset
from repro.analysis.report import build_report
from repro.analysis.tables import render_table
from repro.core.clock import MONTH
from repro.core.errors import AnalysisError, ConfigError
from repro.core.gcpause import gc_suspended
from repro.experiments.campaign import run_campaign
from repro.experiments.compare import headline_comparison
from repro.experiments.config import CampaignConfig
from repro.experiments.perf import (
    baseline_counters,
    baseline_wall_seconds,
    check_counters,
    check_regression,
    load_baseline,
    measure_campaign,
)
from repro.experiments.runner import run_campaigns_resilient
from repro.forum.corpus import CorpusConfig
from repro.forum.study import run_forum_study
from repro.logger.transfer import load_lines_from_dir
from repro.observability.export import (
    chrome_trace,
    render_hotspots,
    validate_chrome_trace,
)
from repro.observability.telemetry import TELEMETRY_TRACE, Telemetry
from repro.phone.fleet import FleetConfig
from repro.robustness.experiment import (
    DEFAULT_INTENSITIES,
    run_degradation_experiment,
    run_resilience_probe,
)
from repro.robustness.plan import FaultPlan


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'How Do Mobile Phones Fail?' (DSN 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", help="simulate a deployment campaign and analyse it"
    )
    campaign.add_argument("--phones", type=int, default=25)
    campaign.add_argument("--months", type=float, default=14.0)
    campaign.add_argument("--seed", type=int, default=2005)
    campaign.add_argument(
        "--export", metavar="DIR", default=None,
        help="write the raw per-phone log files here",
    )
    campaign.add_argument(
        "--headline-only", action="store_true",
        help="print only the headline findings",
    )
    campaign.add_argument(
        "--extended", action="store_true",
        help="append the extension analyses (downtime, reliability, "
        "variability, trends)",
    )

    analyze = sub.add_parser(
        "analyze", help="analyse previously exported log files"
    )
    analyze.add_argument("directory", help="directory of <phone>.log files")
    analyze.add_argument(
        "--end-time", type=float, default=None,
        help="campaign end (seconds since epoch); default: last record",
    )
    analyze.add_argument(
        "--window", type=float, default=DEFAULT_WINDOW,
        help="panic/HL coalescence window in seconds (paper: 300)",
    )
    analyze.add_argument(
        "--headline-only", action="store_true",
        help="print only the headline findings",
    )
    analyze.add_argument(
        "--extended", action="store_true",
        help="append the extension analyses (downtime, reliability, "
        "variability, trends)",
    )

    sweep = sub.add_parser(
        "sweep", help="run one campaign per seed, in parallel"
    )
    sweep.add_argument(
        "--seeds", default="11,22,33,44,55",
        help="comma-separated seed list (default: 11,22,33,44,55)",
    )
    sweep.add_argument("--phones", type=int, default=25)
    sweep.add_argument("--months", type=float, default=14.0)
    sweep.add_argument(
        "--workers", type=int, default=4,
        help="worker processes (1 = in-process)",
    )
    sweep.add_argument(
        "--cache", metavar="DIR", default=None,
        help="run directory: every campaign's shards are committed "
        "here, and a rerun on it adopts them (kill -9 resumable)",
    )
    sweep.add_argument(
        "--window", type=float, default=DEFAULT_WINDOW,
        help="panic/HL coalescence window in seconds (paper: 300)",
    )
    sweep.add_argument(
        "--live", action="store_true",
        help="print a progress line (to stderr) as each campaign "
        "completes — resumed campaigns included",
    )

    forum = sub.add_parser("forum", help="run the section-4 forum study")
    forum.add_argument("--noise", type=float, default=0.25)
    forum.add_argument("--reports", type=int, default=533)
    forum.add_argument("--seed", type=int, default=2003)

    perf = sub.add_parser(
        "perf", help="time run_campaign (wall/CPU seconds, events/s)"
    )
    perf.add_argument("--phones", type=int, default=25)
    perf.add_argument("--months", type=float, default=14.0)
    perf.add_argument("--seed", type=int, default=2005)
    perf.add_argument(
        "--repeats", type=int, default=1,
        help="clean runs to take the best of (default: 1)",
    )
    perf.add_argument(
        "--profile", action="store_true",
        help="also run once under cProfile and include the hot-function "
        "table (profiled time is reported separately from wall time)",
    )
    perf.add_argument(
        "--profile-top", type=int, default=12,
        help="rows in the cProfile table (default: 12)",
    )
    perf.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the measurement as JSON instead of text",
    )
    perf.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the measurement JSON here (e.g. "
        "BENCH_campaign.json)",
    )
    perf.add_argument(
        "--check-against", metavar="FILE", default=None,
        help="compare against a committed baseline JSON; exit 1 when "
        "slower than --threshold times the baseline",
    )
    perf.add_argument(
        "--threshold", type=float, default=None,
        help="regression factor for --check-against (default: 1.6x on "
        "CPU seconds when the baseline records them, else 2.0x on wall)",
    )
    perf.add_argument(
        "--check-counters", metavar="FILE", default=None,
        help="assert the headline telemetry counters match the "
        "baseline JSON bit-exactly (no tolerance); exit 1 on any drift",
    )
    perf.add_argument(
        "--no-counters", action="store_false", dest="counters",
        help="skip the separate metrics run that samples counter totals",
    )

    trace = sub.add_parser(
        "trace",
        help="run one campaign at full telemetry and write a Chrome "
        "trace timeline",
    )
    trace.add_argument(
        "output", help="Chrome trace_event JSON file to write "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    trace.add_argument("--phones", type=int, default=6)
    trace.add_argument("--months", type=float, default=2.0)
    trace.add_argument("--seed", type=int, default=2005)
    trace.add_argument(
        "--top", type=int, default=15,
        help="rows in the hotspot summary (default: 15)",
    )

    faults = sub.add_parser(
        "faults",
        help="fault-injection degradation curve for the collection path",
    )
    faults.add_argument("--phones", type=int, default=6)
    faults.add_argument("--months", type=float, default=2.0)
    faults.add_argument("--seed", type=int, default=2005)
    faults.add_argument(
        "--plan-seed", type=int, default=777,
        help="seed for the fault plan's own random streams (default: 777)",
    )
    faults.add_argument(
        "--preset", choices=("mild", "harsh"), default="mild",
        help="base fault plan scaled by each intensity (default: mild)",
    )
    faults.add_argument(
        "--intensities",
        default=",".join(f"{x:g}" for x in DEFAULT_INTENSITIES),
        help="comma-separated intensity multipliers applied to the "
        "preset (default: 0.25,0.5,1,2)",
    )
    faults.add_argument(
        "--resilience", action="store_true",
        help="also probe the sweep runner: worker crash/hang healing "
        "via retries, and a rerun over corrupted shard commits",
    )
    faults.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the robustness report as JSON instead of text",
    )
    faults.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the robustness report JSON here",
    )
    faults.add_argument(
        "--max-drift", type=float, default=None, metavar="PCT",
        help="fail (exit 1) when the worst headline drift at or below "
        "--gate-intensity exceeds this many percent",
    )
    faults.add_argument(
        "--gate-intensity", type=float, default=1.0, metavar="X",
        help="highest intensity the --max-drift gate inspects "
        "(default: 1.0)",
    )

    megafleet = sub.add_parser(
        "megafleet",
        help="run one large campaign as K deterministic phone-range "
        "shards with streaming merge",
    )
    megafleet.add_argument("--phones", type=int, default=10000)
    megafleet.add_argument("--months", type=float, default=2.0)
    megafleet.add_argument("--seed", type=int, default=2005)
    megafleet.add_argument(
        "--shards", type=int, default=16,
        help="phone-range shards to split the fleet into (default: 16)",
    )
    megafleet.add_argument(
        "--workers", type=int, default=4,
        help="worker processes (1 = in-process)",
    )
    megafleet.add_argument(
        "--retries", type=int, default=0,
        help="re-dispatches per shard after a worker error or death "
        "(default: 0)",
    )
    megafleet.add_argument(
        "--skew", type=float, default=None, metavar="FACTOR",
        help="deliberately unbalance the shard plan: the first shard "
        "gets FACTOR times the weight of each remaining shard "
        "(benchmarks work stealing)",
    )
    megafleet.add_argument(
        "--cache", metavar="DIR", default=None,
        help="run directory for shard commits; a repeated run re-merges "
        "for free, and an interrupted (even kill -9) run resumes from "
        "its committed shards (default: a private temp dir, removed "
        "after the merge)",
    )
    megafleet.add_argument(
        "--window", type=float, default=DEFAULT_WINDOW,
        help="panic/HL coalescence window in seconds (paper: 300)",
    )
    megafleet.add_argument(
        "--live", action="store_true",
        help="stream worker heartbeats into a durable op-log under the "
        "run directory (--cache), print rolling fleet KPIs "
        "to stderr, and write a Prometheus snapshot (metrics.prom) on "
        "each fold; 'repro monitor <dir>' can watch from another "
        "terminal.  Results are bit-identical to a non-live run",
    )
    megafleet.add_argument(
        "--verify", action="store_true",
        help="also run the campaign monolithically and fail (exit 1) "
        "unless the merged summary is bit-identical",
    )
    megafleet.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the run report as JSON instead of text",
    )
    megafleet.add_argument(
        "--output", metavar="FILE", default=None,
        help="also write the run report JSON here "
        "(e.g. BENCH_megafleet.json)",
    )

    monitor = sub.add_parser(
        "monitor",
        help="live dashboard for a running (or crashed) mega-fleet "
        "campaign, folded from its durable op-log",
    )
    monitor.add_argument(
        "run_dir",
        help="the campaign's run directory (the --cache dir of a "
        "'megafleet --live' run; holds the live/ op-log and the "
        "committed shards)",
    )
    monitor.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between dashboard refreshes (default: 2)",
    )
    monitor.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (post-mortem / CI mode)",
    )
    monitor.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="stop after N refreshes (default: until the campaign "
        "finishes, or forever with --follow)",
    )
    monitor.add_argument(
        "--follow", action="store_true",
        help="keep watching even after every phone is committed "
        "(a resumed run may append more)",
    )
    monitor.add_argument(
        "--window", type=float, default=60.0,
        help="rolling window in wall seconds for throughput KPIs "
        "(default: 60)",
    )
    monitor.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen",
    )
    monitor.add_argument(
        "--no-prom", action="store_false", dest="prom",
        help="skip writing metrics.prom on each fold",
    )

    return parser


def _check_writable(path: str) -> None:
    """Refuse an output file the command could not write, before any
    simulation runs: the path must not be a directory, and its parent
    must be an existing, writable directory."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = (
            f"{parent} is not a directory"
            if os.path.exists(parent)
            else f"no such directory {parent}"
        )
    elif not os.access(parent, os.W_OK | os.X_OK):
        problem = f"directory {parent} is not writable"
    else:
        return
    raise ConfigError(f"cannot write {path}: {problem}")


def _write_json(path: str, payload: object) -> None:
    """Write ``payload`` as indented, key-sorted JSON and say so."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    fleet = FleetConfig(phone_count=args.phones, duration=args.months * MONTH)
    config = CampaignConfig(fleet=fleet, seed=args.seed)
    if args.export:
        try:
            os.makedirs(args.export, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot use export directory {args.export!r}: "
                f"{exc.strerror or exc}"
            ) from None
    result = run_campaign(config)
    if args.headline_only:
        print(result.report.render_headline())
    elif args.extended:
        print(result.report.render_extended())
    else:
        print(result.report.render())
    if args.export:
        written = result.fleet.collector.export_to_dir(args.export)
        print(f"\nexported {written} phone logs to {args.export}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.window) and args.window > 0):
        raise ConfigError(
            f"--window must be a positive number of seconds, got {args.window}"
        )
    # Parsing and reporting allocate a few long-lived, acyclic objects
    # per log line, and cyclic GC passes over them free nothing.  The
    # text is not among them: each phone's log is read, parsed and
    # freed by refcount before the next is read.  The hold ends after
    # _analyze_dir has dropped the records, so re-enabling does not
    # start a pass over the whole dataset either.
    with gc_suspended():
        return _analyze_dir(args)


def _analyze_dir(args: argparse.Namespace) -> int:
    # Files are read as Dataset.from_lines parses them, so a log that
    # cannot be read fails there, not at load_lines_from_dir.
    try:
        lines = load_lines_from_dir(args.directory)
        if not lines:
            print(f"no .log files found in {args.directory}", file=sys.stderr)
            return 1
        dataset = Dataset.from_lines(lines, end_time=args.end_time)
    except OSError as exc:
        print(
            f"cannot read {args.directory}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 1
    except AnalysisError as exc:
        print(f"cannot analyse {args.directory}: {exc}", file=sys.stderr)
        return 1
    report = build_report(dataset, window=args.window)
    if args.headline_only:
        print(report.render_headline())
    elif args.extended:
        print(report.render_extended())
    else:
        print(report.render())
    return 0


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"invalid --seeds value: {text!r}") from None
    if not seeds:
        raise ConfigError("at least one seed is required")
    return seeds


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = _parse_seeds(args.seeds)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    configs = [
        CampaignConfig(
            fleet=FleetConfig(
                phone_count=args.phones, duration=args.months * MONTH
            ),
            seed=seed,
            coalescence_window=args.window,
        )
        for seed in seeds
    ]
    if args.cache:
        try:
            os.makedirs(args.cache, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot use cache directory {args.cache!r}: {exc}"
            ) from None
    on_complete = None
    if args.live:
        from time import perf_counter

        total = len(configs)
        state = {"done": 0, "start": perf_counter()}

        def on_complete(index: int, summary) -> None:
            state["done"] += 1
            elapsed = perf_counter() - state["start"]
            rate = state["done"] / elapsed if elapsed > 0 else 0.0
            eta = (total - state["done"]) / rate if rate > 0 else 0.0
            print(
                f"live: seed {summary.seed} done · "
                f"{state['done']}/{total} campaigns · ETA {eta:.0f}s",
                file=sys.stderr,
                flush=True,
            )

    manifest = run_campaigns_resilient(
        configs,
        workers=args.workers,
        run_dir=args.cache,
        retries=0,
        on_complete=on_complete,
    )
    summaries = manifest.summaries_or_raise()

    rows = []
    for summary in summaries:
        availability = summary.availability
        rows.append(
            (
                summary.seed,
                availability["freeze_count"],
                availability["self_shutdown_count"],
                f"{availability['mtbf_freeze_hours']:.0f}",
                f"{availability['mtbf_self_shutdown_hours']:.0f}",
                f"{availability['failure_interval_days']:.1f}",
                f"{summary.panics['access_violation_percent']:.1f}",
                f"{summary.hl['related_percent']:.1f}",
            )
        )
    print(
        f"Sweep: {len(seeds)} seeds x {args.phones} phones x "
        f"{args.months:g} months ({args.workers} workers)\n"
        + render_table(
            (
                "Seed",
                "Freezes",
                "Self-shut",
                "MTBFr (h)",
                "MTBS (h)",
                "Fail (d)",
                "KE-3 (%)",
                "HL rel (%)",
            ),
            rows,
        )
    )
    print()
    print(headline_comparison(summaries[0]).render())
    if args.cache:
        print(
            f"\nrun dir {args.cache}: {manifest.resumed} resumed, "
            f"{len(summaries) - manifest.resumed} executed"
        )
    return 0


def _load_perf_baseline(path: str, section) -> dict:
    """Read a baseline JSON and check it has what ``section`` reads."""
    try:
        baseline = load_baseline(path)
        section(baseline)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot load baseline {path!r}: {exc}") from None
    return baseline


def _cmd_perf(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        fleet=FleetConfig(
            phone_count=args.phones, duration=args.months * MONTH
        ),
        seed=args.seed,
    )
    if args.output:
        _check_writable(args.output)
    # Checked before measuring: a bad baseline must not cost a full run.
    if args.check_counters and not args.counters:
        raise ConfigError(
            "--check-counters needs the counters run; drop --no-counters"
        )
    timing_baseline = (
        _load_perf_baseline(args.check_against, baseline_wall_seconds)
        if args.check_against
        else None
    )
    counters_baseline = (
        _load_perf_baseline(args.check_counters, baseline_counters)
        if args.check_counters
        else None
    )
    try:
        result = measure_campaign(
            config,
            repeats=args.repeats,
            profile=args.profile,
            profile_top=args.profile_top,
            counters=args.counters,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if args.output:
        _write_json(args.output, result.to_dict())
    if timing_baseline is not None:
        ok, message = check_regression(
            result, timing_baseline, threshold=args.threshold
        )
        print(("OK: " if ok else "REGRESSION: ") + message)
        if not ok:
            return 1
    if counters_baseline is not None:
        ok, message = check_counters(result, counters_baseline)
        print(("OK: " if ok else "DIVERGENCE: ") + message)
        if not ok:
            return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        fleet=FleetConfig(
            phone_count=args.phones, duration=args.months * MONTH
        ),
        seed=args.seed,
    )
    _check_writable(args.output)
    tel = Telemetry(TELEMETRY_TRACE)
    run_campaign(config, telemetry=tel)
    trace = chrome_trace(tel.tracer, tel.registry)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
        handle.write("\n")
    print(
        f"wrote {args.output}: {len(trace['traceEvents'])} events from "
        f"{args.phones} phones x {args.months:g} months (seed {args.seed})\n"
        "open it in chrome://tracing or https://ui.perfetto.dev\n"
    )
    print(render_hotspots(tel.tracer, top=args.top))
    return 0


def _parse_intensities(text: str) -> List[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"invalid --intensities value: {text!r}") from None
    if not values or any(value <= 0 for value in values):
        raise ConfigError("intensities must be positive numbers")
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"intensities must be finite, got {value:g}")
    return values


def _check_drift_gate(args: argparse.Namespace, intensities: List[float]) -> None:
    """Refuse a ``--max-drift`` gate that would inspect nothing."""
    if not (math.isfinite(args.max_drift) and args.max_drift >= 0):
        raise ConfigError(
            f"--max-drift must be a non-negative finite percentage, "
            f"got {args.max_drift:g}"
        )
    if not math.isfinite(args.gate_intensity):
        raise ConfigError(
            f"--gate-intensity must be finite, got {args.gate_intensity:g}"
        )
    if args.gate_intensity < min(intensities):
        raise ConfigError(
            f"--gate-intensity {args.gate_intensity:g} is below every "
            f"requested intensity, so the gate would inspect no point"
        )


def _cmd_faults(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        fleet=FleetConfig(
            phone_count=args.phones, duration=args.months * MONTH
        ),
        seed=args.seed,
    )
    preset = FaultPlan.mild if args.preset == "mild" else FaultPlan.harsh
    base_plan = preset(seed=args.plan_seed)
    intensities = _parse_intensities(args.intensities)
    if args.max_drift is not None:
        _check_drift_gate(args, intensities)
    if args.output:
        _check_writable(args.output)
    report = run_degradation_experiment(
        config,
        base_plan=base_plan,
        intensities=intensities,
    )
    if args.resilience:
        report.resilience = run_resilience_probe(config, base_plan)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.output:
        _write_json(args.output, report.to_dict())
    if args.max_drift is not None:
        worst = report.worst_drift_at(args.gate_intensity)
        gate = (
            f"worst drift {worst:.2f}% at intensity <= "
            f"{args.gate_intensity:g} (limit {args.max_drift:g}%)"
        )
        if worst > args.max_drift:
            print("DEGRADED: " + gate)
            return 1
        print("OK: " + gate)
    return 0


def _json_finite(value: float) -> object:
    """Strict-JSON representation of one figure (inf/nan -> string)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _cmd_megafleet(args: argparse.Namespace) -> int:
    import resource
    from time import perf_counter

    from repro.experiments.shard import run_sharded_campaign
    from repro.experiments.summary import CampaignSummary, headline_figures

    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    config = CampaignConfig(
        fleet=FleetConfig(
            phone_count=args.phones, duration=args.months * MONTH
        ),
        seed=args.seed,
        coalescence_window=args.window,
    )
    if args.output:
        _check_writable(args.output)
    if args.cache:
        try:
            os.makedirs(args.cache, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot use cache directory {args.cache!r}: {exc}"
            ) from None
    weights = None
    if args.skew is not None:
        if not (math.isfinite(args.skew) and args.skew > 0):
            raise ConfigError(
                f"--skew must be positive and finite, got {args.skew:g}"
            )
        weights = [args.skew] + [1.0] * (args.shards - 1)
    progress = None
    if args.live:
        from repro.observability.live import progress_line

        def progress(snapshot) -> None:
            print(progress_line(snapshot), file=sys.stderr, flush=True)

    try:
        start = perf_counter()
        result = run_sharded_campaign(
            config,
            shards=args.shards,
            workers=args.workers,
            retries=args.retries,
            spill_dir=args.cache,
            weights=weights,
            live=args.live,
            progress=progress,
        )
        wall = perf_counter() - start
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    summary = result.summary

    report = {
        "phones": args.phones,
        "months": args.months,
        "seed": args.seed,
        "shards": result.shard_count,
        "shard_ranges": [list(r) for r in result.shard_ranges],
        "workers": args.workers,
        "counters": result.stats.to_dict(),
        "events_fired": result.events_fired,
        "events_per_second": round(result.events_fired / wall, 1)
        if wall > 0
        else 0.0,
        "wall_seconds": round(wall, 3),
        # ru_maxrss is KiB on Linux: the parent holds only merged
        # per-phone partials; shard datasets peak inside the children.
        "max_rss_kb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        },
        "quarantined_lines": result.ingest.quarantined,
        "headline": {
            key: _json_finite(value)
            for key, value in headline_figures(summary.sections).items()
        },
    }
    verified: Optional[bool] = None
    if args.verify:
        mono = CampaignSummary.from_result(run_campaign(config))
        verified = json.dumps(mono.to_dict(), sort_keys=True) == json.dumps(
            summary.to_dict(), sort_keys=True
        )
        report["verified"] = verified

    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        lines = [
            f"Mega-fleet: {args.phones} phones x {args.months:g} months, "
            f"{result.shard_count} shards x {args.workers} workers",
            f"wall time:       {wall:.2f}s",
            f"events/second:   {report['events_per_second']:,.0f} "
            f"({result.events_fired:,} events)",
            f"steals/retries:  {result.stats.steals} steals, "
            f"{result.stats.task_retries} retries, "
            f"{result.stats.resumed_shards} resumed, "
            f"{result.stats.worker_restarts} restarts",
            f"peak RSS:        parent "
            f"{report['max_rss_kb']['self'] / 1024:.0f} MiB, "
            f"largest child "
            f"{report['max_rss_kb']['children'] / 1024:.0f} MiB",
            f"quarantined:     {result.ingest.quarantined} lines",
        ]
        for key, value in report["headline"].items():
            rendered = (
                f"{value:.2f}" if isinstance(value, float) else str(value)
            )
            lines.append(f"{key}: {rendered}")
        if args.cache:
            resumed = result.stats.resumed_shards
            lines.append(
                f"run dir {args.cache}: {resumed} shards resumed, "
                f"{result.shard_count - resumed} executed"
            )
        print("\n".join(lines))
    if args.output:
        _write_json(args.output, report)
    if verified is not None:
        if not verified:
            print(
                "MISMATCH: sharded summary differs from the monolithic run",
                file=sys.stderr,
            )
            return 1
        print("OK: sharded summary is bit-identical to the monolithic run")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from time import sleep

    from repro.observability.live import (
        LiveFolder,
        live_dir_for,
        render_dashboard,
        write_prom_snapshot,
    )

    if not os.path.isdir(args.run_dir):
        print(f"no such run directory: {args.run_dir}", file=sys.stderr)
        return 1
    if not (math.isfinite(args.interval) and args.interval > 0):
        raise ConfigError(
            f"--interval must be a positive number of seconds, "
            f"got {args.interval:g}"
        )
    folder = LiveFolder(args.run_dir, window=args.window)
    frames = 1 if args.once else args.frames
    shown = 0
    while True:
        snapshot = folder.fold()
        empty = (
            not snapshot.campaign
            and not snapshot.workers
            and not snapshot.committed_shards
        )
        if empty:
            print(
                f"nothing to monitor in {args.run_dir}: no live op-log "
                f"({live_dir_for(args.run_dir)}) and no committed "
                f"shards.  Start the campaign with 'repro megafleet "
                f"--live --cache {args.run_dir}'",
                file=sys.stderr,
            )
            return 1
        if shown and not args.no_clear:
            # ANSI clear + home between frames; frame 0 just prints.
            print("\x1b[2J\x1b[H", end="")
        print(render_dashboard(snapshot), flush=True)
        if args.prom:
            write_prom_snapshot(args.run_dir, snapshot)
        shown += 1
        if frames is not None and shown >= frames:
            return 0
        finished = (
            snapshot.total_phones > 0
            and snapshot.committed_phones >= snapshot.total_phones
        )
        if finished and not args.follow:
            return 0
        sleep(args.interval)


def _cmd_forum(args: argparse.Namespace) -> int:
    config = CorpusConfig(failure_reports=args.reports, noise_level=args.noise)
    result = run_forum_study(config, seed=args.seed)
    print(result.render_table1())
    print()
    print(result.render_summary())
    return 0


_COMMANDS = {
    "campaign": _cmd_campaign,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "forum": _cmd_forum,
    "perf": _cmd_perf,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "megafleet": _cmd_megafleet,
    "monitor": _cmd_monitor,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
