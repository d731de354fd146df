"""F6 — Figure 6: number of running applications at panic time.

Regenerates: the distribution of the concurrent-application count at
panic time, with the paper's counter-intuitive mode at one.
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison


def test_fig6_running_apps(benchmark, campaign):
    stats = benchmark(build_report, campaign.dataset).runapps

    print()
    print(campaign.report.render_figure6())

    comparison = Comparison("Figure 6: paper vs measured")
    comparison.add(
        "modal number of running apps",
        paper.MODAL_RUNNING_APPS,
        stats.modal_app_count,
    )
    emit(benchmark, comparison)

    dist = stats.count_distribution
    assert stats.modal_app_count == 1
    # Decreasing tail beyond the mode — concurrency does not breed
    # panics, the paper's §6 observation.
    assert dist.get(1, 0.0) > dist.get(2, 0.0) > dist.get(3, 0.0)
    assert comparison.all_within_factor(1.01)
