"""F2 — Figure 2: distribution of reboot durations.

Regenerates: the bimodal off-time histogram, the 360 s self-shutdown
filter outcome (471 events, 24.2% of the 1778 shutdown events), the
~80 s self-shutdown median, and the ~30000 s night-off mode.
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison


def test_fig2_reboot_durations(benchmark, campaign):
    study = benchmark(build_report, campaign.dataset).study

    print()
    print(campaign.report.render_figure2())

    comparison = Comparison("Figure 2: paper vs measured")
    comparison.add(
        "shutdown events", paper.SHUTDOWN_EVENTS_TOTAL, len(study.shutdowns)
    )
    comparison.add(
        "self-shutdowns (<360s)", paper.SELF_SHUTDOWNS, len(study.self_shutdowns())
    )
    comparison.add(
        "self-shutdown fraction",
        paper.SELF_SHUTDOWN_FRACTION,
        study.self_shutdown_fraction(),
    )
    comparison.add(
        "median self-shutdown off-time",
        paper.SELF_SHUTDOWN_MEDIAN_S,
        study.median_self_shutdown_duration(),
        unit="s",
    )
    comparison.add(
        "night-off mode",
        paper.NIGHT_SHUTDOWN_MODE_S,
        study.night_mode_duration(),
        unit="s",
    )
    emit(benchmark, comparison)

    # Shape: bimodal, with the valley between the lobes sparse.
    hist = {
        (lo, hi): count
        for lo, hi, count in study.duration_histogram([0, 360, 3600, 18000, 60000])
    }
    assert hist[(0, 360)] > hist[(360, 3600)]
    assert hist[(18000, 60000)] > hist[(360, 3600)]
    assert comparison.all_within_factor(2.0)
