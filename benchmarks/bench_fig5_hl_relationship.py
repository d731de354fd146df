"""F5 — Figure 5: panics and high-level events.

Regenerates: 51% of panics related to HL events (55% with all shutdown
events included); the per-category behaviour classes — application
panics (EIKON-LISTBOX, EIKCOCTL, MMFAudioClient) and KERN-SVR never
escalate, Phone.app / MSGS Client always self-shutdown, system panics
usually escalate with heap/USER/ViewSrv freeze-symptomatic.
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison
from repro.symbian import panics as P


def test_fig5_hl_relationship(benchmark, campaign):
    hl = benchmark(build_report, campaign.dataset).hl

    print()
    print(campaign.report.render_figure5())

    comparison = Comparison("Figure 5: paper vs measured")
    comparison.add(
        "% panics related to HL events",
        paper.HL_RELATED_PERCENT,
        hl.related_percent,
        unit="%",
    )
    comparison.add(
        "% related incl. all shutdowns",
        paper.HL_RELATED_ALL_SHUTDOWNS_PERCENT,
        hl.related_percent_all_shutdowns,
        unit="%",
    )
    emit(benchmark, comparison)

    # Behaviour classes ("never" up to a single chance coincidence on a
    # timeline carrying ~900 HL events).
    for category in paper.NEVER_HL_CATEGORIES:
        row = hl.row(category)
        if row is not None and row.total > 0:
            assert row.related <= 1, f"{category} should never escalate"
    msgs = hl.row(P.MSGS_CLIENT)
    assert msgs is not None and msgs.total > 0
    assert msgs.self_shutdown_related == msgs.total
    for category in paper.FREEZE_SYMPTOMATIC_CATEGORIES:
        row = hl.row(category)
        if row is not None and row.related > 0:
            assert row.freeze_related >= row.self_shutdown_related
    # Including user shutdowns adds only a few percent — the filtered
    # events really were user-triggered.
    assert hl.related_percent_all_shutdowns >= hl.related_percent
    assert hl.related_percent_all_shutdowns - hl.related_percent < 12.0
    assert comparison.all_within_factor(1.4)
