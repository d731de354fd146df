"""The degradation-curve experiment behind ``repro faults``.

Sweep fault intensity over the collection path and measure how far the
study's headline figures (MTBF, panic distribution, coalescence rate)
drift from the clean run.  A healthy pipeline degrades *gracefully*:
mild fault rates barely move the headlines, and even hostile rates end
in a structured report rather than an unhandled exception — the same
bar Cotroneo et al. set for Android's logging stack.

The experiment also carries an optional *resilience probe*: a small
multi-seed sweep run through the sweep runner with injected worker
crashes/hangs, then rerun on its run directory with committed shards
corrupted under its feet, reporting how much the self-healing machinery
(per-shard retry, watchdog, the ledger's refusal of torn commits)
recovered and whether the rerun reproduced the first sweep.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ReproError
from repro.core.rand import Stream, derive_seed
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import CampaignResult, run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import WorkQueueExecutor
from repro.experiments.runner import run_campaigns_resilient
from repro.experiments.shard import slice_config
from repro.experiments.summary import (
    HEADLINE_KEYS,
    CampaignSummary,
    headline_figures,
)
from repro.analysis.tables import render_table
from repro.logger.transfer import CollectionServer
from repro.robustness.injectors import (
    FaultyCampaignTask,
    FaultyLink,
    corrupt_cache_entry,
)
from repro.robustness.plan import FaultPlan

#: Intensity multipliers the default sweep applies to the base plan.
DEFAULT_INTENSITIES = (0.25, 0.5, 1.0, 2.0)


@dataclass
class FaultyCampaignOutcome:
    """One campaign run through the fault harness, with its evidence."""

    result: CampaignResult
    summary: CampaignSummary
    #: Defense-side accounting (:class:`TransferStats`).
    transfer: Dict[str, float]
    #: Injection-side accounting (:class:`InjectionStats`); all zeros
    #: when the plan was disabled.
    injected: Dict[str, int]
    #: Quarantine accounting from ingest.
    ingest: Dict[str, object]


def run_faulty_campaign(
    config: CampaignConfig,
    plan: Optional[FaultPlan] = None,
) -> FaultyCampaignOutcome:
    """Run one campaign with collection-path faults from ``plan``.

    A ``None`` or disabled plan uses the perfect link and is
    byte-identical to :func:`~repro.experiments.campaign.run_campaign`.
    """
    link = FaultyLink(plan) if plan is not None and plan.enabled else None
    collector = CollectionServer(link=link)
    result = run_campaign(config, collector=collector)
    return FaultyCampaignOutcome(
        result=result,
        summary=CampaignSummary.from_result(result),
        transfer=collector.stats.to_dict(),
        injected=link.stats.to_dict() if link is not None else {},
        ingest=result.dataset.ingest_report.to_dict(),
    )


def drift_percent(clean: float, faulty: float) -> Optional[float]:
    """Relative drift of ``faulty`` from ``clean``, in percent.

    ``None`` when undefined (clean value is 0 but the faulty one is
    not) — callers must surface that, not fold it into a maximum.  A
    figure that collapses to non-finite under faults (an MTBF with its
    last event corrupted away goes to ``inf``) is infinite drift.
    """
    if clean == faulty:
        return 0.0
    if clean == 0:
        return None
    if not math.isfinite(faulty) or not math.isfinite(clean):
        return float("inf")
    return 100.0 * abs(faulty - clean) / abs(clean)


def _json_safe(value: Optional[float]) -> Optional[object]:
    """Strict-JSON representation: non-finite floats become strings."""
    if value is None or isinstance(value, str):
        return value
    if not math.isfinite(value):
        return repr(value)
    return value


@dataclass
class DegradationPoint:
    """Headline drift and pipeline evidence at one fault intensity."""

    intensity: float
    plan: Dict[str, object]
    figures: Optional[Dict[str, float]] = None
    drift: Dict[str, Optional[float]] = field(default_factory=dict)
    transfer: Dict[str, float] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    ingest: Dict[str, object] = field(default_factory=dict)
    #: Set when the pipeline could not produce a report at all (e.g.
    #: corruption emptied the dataset) — the one legitimate hard stop,
    #: still reported structurally instead of raised.
    error: Optional[str] = None

    @property
    def max_drift(self) -> float:
        """Worst defined drift across the headline figures (percent).

        A failed point is catastrophic by definition: ``inf``.
        """
        if self.error is not None:
            return float("inf")
        defined = [value for value in self.drift.values() if value is not None]
        return max(defined, default=0.0)

    @property
    def undefined_drift_keys(self) -> List[str]:
        return sorted(key for key, value in self.drift.items() if value is None)

    def to_dict(self) -> Dict[str, object]:
        return {
            "intensity": self.intensity,
            "plan": self.plan,
            "figures": (
                None
                if self.figures is None
                else {key: _json_safe(val) for key, val in self.figures.items()}
            ),
            "drift_percent": {
                key: _json_safe(val) for key, val in self.drift.items()
            },
            "max_drift_percent": (
                None if self.error is not None else _json_safe(self.max_drift)
            ),
            "undefined_drift_keys": self.undefined_drift_keys,
            "transfer": self.transfer,
            "injected": self.injected,
            "ingest": self.ingest,
            "error": self.error,
        }


@dataclass
class ResilienceProbe:
    """Self-healing evidence from a faulty pooled sweep."""

    seeds: List[int]
    completed: int
    recovered: int
    failures: List[Dict[str, object]]
    #: Committed shard files garbled or torn before the rerun.
    commits_corrupted: int
    #: Committed shards the rerun adopted instead of executing.
    shards_resumed: int
    #: Whether the rerun returned every campaign the first sweep
    #: completed with an equal summary.
    identical: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "seeds": self.seeds,
            "completed": self.completed,
            "recovered": self.recovered,
            "failures": self.failures,
            "commits_corrupted": self.commits_corrupted,
            "shards_resumed": self.shards_resumed,
            "identical": self.identical,
        }


@dataclass
class RobustnessReport:
    """The degradation curve: headline drift versus fault intensity."""

    config: Dict[str, object]
    base_plan: Dict[str, object]
    clean_figures: Dict[str, float]
    points: List[DegradationPoint] = field(default_factory=list)
    resilience: Optional[ResilienceProbe] = None

    def worst_drift_at(self, max_intensity: float) -> float:
        """Worst headline drift among points up to ``max_intensity``."""
        return max(
            (
                point.max_drift
                for point in self.points
                if 0 < point.intensity <= max_intensity
            ),
            default=0.0,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config,
            "base_plan": self.base_plan,
            "clean_figures": {
                key: _json_safe(val) for key, val in self.clean_figures.items()
            },
            "points": [point.to_dict() for point in self.points],
            "resilience": (
                self.resilience.to_dict() if self.resilience else None
            ),
        }

    def render(self) -> str:
        """Human-readable degradation table."""
        rows = []
        for point in self.points:
            if point.error is not None:
                rows.append(
                    (f"{point.intensity:g}", "FAILED", "-", "-", "-", point.error)
                )
                continue
            transfer = point.transfer
            rows.append(
                (
                    f"{point.intensity:g}",
                    f"{point.max_drift:.2f}%",
                    str(point.ingest.get("quarantined", 0)),
                    f"{transfer.get('retries', 0):g}",
                    f"{transfer.get('duplicate_entries_dropped', 0):g}",
                    "",
                )
            )
        table = render_table(
            ("Intensity", "Max drift", "Quarantined", "Retries", "Deduped", "Note"),
            rows,
        )
        lines = [
            "Collection-path fault injection: headline drift vs intensity",
            table,
            "",
            "Clean headline figures:",
        ]
        for key in HEADLINE_KEYS:
            lines.append(f"  {key:<28} {self.clean_figures[key]:.3f}")
        if self.resilience is not None:
            probe = self.resilience
            lines += [
                "",
                "Self-healing probe (faulty workers + corrupted shard commits):",
                f"  campaigns completed:   {probe.completed}/{len(probe.seeds)}",
                f"  recovered by retry:    {probe.recovered}",
                f"  commits corrupted:     {probe.commits_corrupted}",
                f"  shards resumed:        {probe.shards_resumed}",
                f"  rerun identical:       {'yes' if probe.identical else 'NO'}",
                f"  unrecovered failures:  {len(probe.failures)}",
            ]
        return "\n".join(lines)


def run_degradation_experiment(
    config: CampaignConfig,
    base_plan: Optional[FaultPlan] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
) -> RobustnessReport:
    """Sweep fault intensity and measure headline-figure drift.

    The clean (intensity 0) run anchors the curve; each intensity
    scales ``base_plan`` (default :meth:`FaultPlan.mild`) and re-runs
    the identical campaign through the faulty collection path.  Every
    point terminates with structured evidence — a pipeline wrecked
    beyond analysis shows up as a point with ``error`` set, never as an
    unhandled exception.
    """
    base_plan = base_plan if base_plan is not None else FaultPlan.mild()
    clean = run_faulty_campaign(config, plan=None)
    clean_figures = headline_figures(clean.summary.sections)
    report = RobustnessReport(
        config=config.to_dict(),
        base_plan=base_plan.to_dict(),
        clean_figures=clean_figures,
    )
    report.points.append(
        DegradationPoint(
            intensity=0.0,
            plan=base_plan.scaled(0.0).to_dict(),
            figures=dict(clean_figures),
            drift={key: 0.0 for key in HEADLINE_KEYS},
            transfer=clean.transfer,
            injected=clean.injected,
            ingest=clean.ingest,
        )
    )
    for intensity in intensities:
        if intensity <= 0:
            continue
        plan = base_plan.scaled(intensity)
        point = DegradationPoint(intensity=intensity, plan=plan.to_dict())
        try:
            outcome = run_faulty_campaign(config, plan=plan)
        except ReproError as exc:
            point.error = f"{type(exc).__name__}: {exc}"
        else:
            figures = headline_figures(outcome.summary.sections)
            point.figures = figures
            point.drift = {
                key: drift_percent(clean_figures[key], figures[key])
                for key in HEADLINE_KEYS
            }
            point.transfer = outcome.transfer
            point.injected = outcome.injected
            point.ingest = outcome.ingest
        report.points.append(point)
    return report


def run_resilience_probe(
    config: CampaignConfig,
    plan: FaultPlan,
    seeds: Sequence[int] = (101, 102, 103),
    workers: int = 2,
    retries: int = 2,
    cache_dir: Optional[str] = None,
) -> ResilienceProbe:
    """Exercise the worker- and commit-layer defenses in one sweep.

    Runs ``seeds`` campaigns through the sweep runner with a
    :class:`FaultyCampaignTask` (injected crashes/stalls, healed by
    retry and the watchdog), then corrupts committed shard files in
    the run directory (``cache_dir``, else a temp dir) and sweeps again
    on it — the ledger must refuse the garbage, recompute those ranges,
    adopt the rest, and return the same summaries as the first sweep.
    """
    from dataclasses import replace

    configs = [replace(config, seed=seed) for seed in seeds]
    task = FaultyCampaignTask(plan)
    timeout = plan.worker_hang_seconds * 4 if plan.worker_hang_rate else None
    with tempfile.TemporaryDirectory() as fallback_dir:
        run_dir = cache_dir if cache_dir else fallback_dir
        manifest = run_campaigns_resilient(
            configs,
            workers=workers,
            run_dir=run_dir,
            task=task,
            retries=retries,
            timeout=timeout,
        )
        # Corrupt the commits the sweep just wrote (one whole-fleet
        # shard per campaign), then sweep again on the same run dir:
        # a torn or garbled commit must be recomputed, not adopted.
        commits = CampaignCache(run_dir)
        stream = Stream(derive_seed(plan.seed, "cache-probe"))
        rate = plan.cache_corrupt_rate + plan.cache_truncate_rate
        corrupted = 0
        for index, cfg in enumerate(configs):
            if rate and stream.bernoulli(min(rate * 10, 1.0)):
                corrupted += corrupt_cache_entry(
                    commits,
                    slice_config(cfg, 0, cfg.fleet.phone_count),
                    stream,
                    truncate=bool(index % 2),
                )
        rerun = WorkQueueExecutor(1)
        second = run_campaigns_resilient(
            configs,
            run_dir=run_dir,
            task=task,
            retries=retries,
            executor=rerun,
        )
        return ResilienceProbe(
            seeds=list(seeds),
            completed=len(second.completed_summaries()),
            recovered=manifest.recovered + second.recovered,
            failures=[
                failure.to_dict()
                for failure in manifest.failures + second.failures
            ],
            commits_corrupted=corrupted,
            shards_resumed=rerun.stats.resumed_shards,
            identical=all(
                again is not None and again.to_dict() == first.to_dict()
                for first, again in zip(manifest.summaries, second.summaries)
                if first is not None
            ),
        )
