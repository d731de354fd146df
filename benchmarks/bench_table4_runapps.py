"""T4 — Table 4: panic-running-applications relationship.

Regenerates: the cross-tabulation of panic category / HL outcome
against the applications running at panic time, with Messages the most
frequent co-running application.
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison


def test_table4_runapps(benchmark, campaign):
    stats = benchmark(build_report, campaign.dataset).runapps

    print()
    print(campaign.report.render_table4())

    comparison = Comparison("Table 4: paper vs measured")
    comparison.add(
        "top app share (Messages, % of panics)",
        paper.PAPER_TABLE4_TOP_APPS["Messages"],
        stats.app_totals.get("Messages", 0.0),
        unit="%",
    )
    top_apps = [app for app, _ in stats.top_apps(4)]
    emit(benchmark, comparison)

    # Messages (or the Telephone app it races with) heads the ranking.
    assert top_apps[0] in ("Messages", "Telephone")
    # The published table covers 53% of panics; ours must have
    # comparable coverage of panics with at least one app present.
    with_apps = 100.0 - stats.count_distribution.get(0, 0.0)
    assert with_apps > 45.0
    assert comparison.all_within_factor(2.5)
