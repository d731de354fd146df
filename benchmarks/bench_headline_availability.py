"""S6a — the headline availability figures.

Regenerates: MTBFr = 313 h, MTBS = 250 h, "a failure every ~11 days".
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison


def test_headline_availability(benchmark, campaign):
    stats = benchmark(build_report, campaign.dataset).availability

    print()
    print(campaign.report.render_headline())

    comparison = Comparison("Availability headline: paper vs measured")
    comparison.add("freezes", paper.FREEZES, stats.freeze_count)
    comparison.add("self-shutdowns", paper.SELF_SHUTDOWNS, stats.self_shutdown_count)
    comparison.add(
        "MTBFr", paper.MTBF_FREEZE_HOURS, stats.mtbf_freeze_hours, unit="h"
    )
    comparison.add(
        "MTBS", paper.MTBS_HOURS, stats.mtbf_self_shutdown_hours, unit="h"
    )
    comparison.add(
        "freeze interval",
        paper.FREEZE_INTERVAL_DAYS,
        stats.freeze_interval_days,
        unit="d",
    )
    comparison.add(
        "self-shutdown interval",
        paper.SELF_SHUTDOWN_INTERVAL_DAYS,
        stats.self_shutdown_interval_days,
        unit="d",
    )
    comparison.add(
        "failure interval",
        paper.FAILURE_INTERVAL_DAYS,
        stats.failure_interval_days,
        unit="d",
    )
    emit(benchmark, comparison)

    # Who wins: self-shutdowns are more frequent than freezes.
    assert stats.mtbf_self_shutdown_hours < stats.mtbf_freeze_hours
    assert comparison.all_within_factor(1.6)
