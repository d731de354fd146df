"""One-call campaign runner: fleet -> logs -> analysis."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.ingest import Dataset
from repro.analysis.report import ReproductionReport, build_report
from repro.experiments.config import CampaignConfig
from repro.observability.telemetry import Telemetry, current_telemetry
from repro.phone.fleet import Fleet

__all__ = ["CampaignResult", "run_campaign", "simulate_and_ingest"]


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


def simulate_and_ingest(
    config: CampaignConfig,
    tel: Telemetry,
    collector: Optional[object],
    span: str,
    stage: str,
    analyse: Callable[[Dataset], Any],
    hold_gc: bool,
    **span_args: Any,
) -> Tuple[Fleet, Dataset, Any, Dict[str, Any]]:
    """The simulate+ingest core every campaign (or shard) runs.

    Builds ``config``'s fleet, then under one ``span`` (category
    ``campaign``) runs the ``simulate`` and ``ingest`` stages and a
    third stage named ``stage`` that applies ``analyse`` to the
    dataset.  ``hold_gc`` suspends cyclic GC across the three stages.
    With metrics on, fleet and ingest counters are sampled after the
    span.  Returns ``(fleet, dataset, analyse(dataset), snapshot)``,
    where ``snapshot`` is ``tel.snapshot()`` or ``{}``.
    """
    with tel.installed():
        fleet = Fleet(config.fleet, seed=config.seed, collector=collector)
        gc_held = hold_gc and gc.isenabled()
        if gc_held:
            gc.disable()
        try:
            with tel.span(
                span,
                category="campaign",
                seed=config.seed,
                phones=config.fleet.phone_count,
                **span_args,
            ):
                with tel.span("simulate", category="stage"):
                    fleet.run()
                with tel.span("ingest", category="stage"):
                    dataset = Dataset.from_collector(
                        fleet.collector, end_time=config.fleet.duration
                    )
                with tel.span(stage, category="stage"):
                    analysed = analyse(dataset)
        finally:
            if gc_held:
                gc.enable()
        snapshot: Dict[str, Any] = {}
        if tel.metrics:
            fleet.sample_metrics(tel.registry)
            _sample_ingest_metrics(tel.registry, dataset)
            snapshot = tel.snapshot()
    return fleet, dataset, analysed, snapshot


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
    # Cyclic GC stays suspended across the whole pipeline, not just the
    # event loop (Fleet.run nests its own suspension, which is a no-op
    # here): re-enabling between stages would trigger a generation-2
    # pass over the full campaign graph right in the middle of ingest.
    fleet, dataset, report, snapshot = simulate_and_ingest(
        config,
        tel,
        collector,
        span="campaign",
        stage="report",
        analyse=lambda data: build_report(data, window=config.coalescence_window),
        hold_gc=True,
    )
    return CampaignResult(
        config=config,
        fleet=fleet,
        dataset=dataset,
        report=report,
        telemetry=snapshot,
    )
