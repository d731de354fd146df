"""One-call campaign runner: fleet -> logs -> analysis."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.analysis.ingest import Dataset
from repro.analysis.report import ReproductionReport, build_report
from repro.experiments.config import CampaignConfig
from repro.observability.telemetry import Telemetry, current_telemetry
from repro.phone.fleet import Fleet

__all__ = ["CampaignResult", "run_campaign"]


@dataclass
class CampaignResult:
    """Everything a campaign produces."""

    config: CampaignConfig
    fleet: Fleet
    dataset: Dataset
    report: ReproductionReport
    #: JSON-native telemetry snapshot (``Telemetry.snapshot()``), empty
    #: when the campaign ran with telemetry off.
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def ground_truth(self) -> dict:
        """Simulator-side counters (never visible to the analysis)."""
        return self.fleet.ground_truth()


def _sample_ingest_metrics(registry, dataset: Dataset) -> None:
    """Ingest-side counters: parsed records and quarantined lines.

    Both are fixed by the dataset alone, so they are deterministic in
    the seed like every other campaign counter.
    """
    records = registry.counter(
        "ingest.records_total", help="parsed records entering the analysis"
    ).series()
    records.value += float(
        sum(log.record_count for log in dataset.logs.values())
    )
    report = dataset.ingest_report
    if report.quarantined:
        quarantined = registry.counter(
            "ingest.quarantined_total",
            help="lines the tolerant parser rejected, by corruption class",
        )
        for cls, count in report.by_class.items():
            quarantined.series(corruption=cls).value += float(count)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    collector: Optional[object] = None,
    telemetry: Optional[Telemetry] = None,
) -> CampaignResult:
    """Run a full campaign and analyse its collected logs.

    The analysis operates exclusively on what the collection server
    shipped; the fleet object is returned for ground-truth validation
    only.  ``collector`` substitutes the fleet's collection server (the
    robustness harness routes it through a faulty transfer link);
    ``None`` keeps the default perfect link.  ``telemetry`` (or the
    process-current instance) is installed for the duration: at ``metrics`` level the
    campaign's counters land in its registry and in
    ``CampaignResult.telemetry``; at ``trace`` level the run also
    produces the simulate/ingest/report stage spans.
    """
    config = config if config is not None else CampaignConfig.paper_scale()
    tel = telemetry if telemetry is not None else current_telemetry()
    with tel.installed():
        fleet = Fleet(config.fleet, seed=config.seed, collector=collector)
        # Suspend cyclic GC across the whole pipeline, not just the event
        # loop (Fleet.run nests its own suspension, which is a no-op here):
        # re-enabling between stages would trigger a generation-2 pass over
        # the full campaign graph right in the middle of ingest.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            with tel.span(
                "campaign",
                category="campaign",
                seed=config.seed,
                phones=config.fleet.phone_count,
            ):
                with tel.span("simulate", category="stage"):
                    fleet.run()
                with tel.span("ingest", category="stage"):
                    dataset = Dataset.from_collector(
                        fleet.collector, end_time=config.fleet.duration
                    )
                with tel.span("report", category="stage"):
                    report = build_report(dataset, window=config.coalescence_window)
        finally:
            if gc_was_enabled:
                gc.enable()
        snapshot: Dict[str, Any] = {}
        if tel.metrics:
            fleet.sample_metrics(tel.registry)
            _sample_ingest_metrics(tel.registry, dataset)
            snapshot = tel.snapshot()
    return CampaignResult(
        config=config,
        fleet=fleet,
        dataset=dataset,
        report=report,
        telemetry=snapshot,
    )
