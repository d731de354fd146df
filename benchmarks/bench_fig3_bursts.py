"""F3 — Figure 3: distribution of subsequent panics (cascades).

Regenerates: the cascade-size distribution and the paper's observation
that ~25% of panics arrive in cascades of more than one event.
"""

from benchmarks.conftest import emit

from repro.analysis.report import build_report
from repro.experiments import paper
from repro.experiments.compare import Comparison


def test_fig3_bursts(benchmark, campaign):
    stats = benchmark(build_report, campaign.dataset).bursts

    print()
    print(campaign.report.render_figure3())

    comparison = Comparison("Figure 3: paper vs measured")
    comparison.add(
        "% of panics in cascades (>1)",
        paper.CASCADE_PANIC_PERCENT,
        stats.cascade_panic_percent,
        unit="%",
    )
    emit(benchmark, comparison)

    # Shape: decreasing over the well-populated sizes (1..3); the tail
    # sizes are a handful of events each, where sampling noise rules.
    dist = stats.size_distribution()
    assert dist[1] > 55.0
    assert dist[1] > dist.get(2, 0.0) > dist.get(3, 0.0)
    for size, share in dist.items():
        if size >= 4:
            assert share <= dist.get(2, 0.0)
    assert comparison.all_within_factor(1.8)
