#!/usr/bin/env python3
"""Regenerate every number quoted in EXPERIMENTS.md.

Runs the default paper-scale campaign and the default forum corpus,
prints every measured quantity next to its paper value, and appends the
extension results — the source of truth for keeping EXPERIMENTS.md
honest after recalibration::

    python examples/generate_experiments_report.py
"""

from repro.analysis.coalescence import hl_events_from_study, window_sweep
from repro.analysis.reliability import compute_reliability
from repro.analysis.trends import compute_trends
from repro.analysis.variability import compute_variability
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.forum.study import run_forum_study


def main() -> None:
    print("== campaign (25 phones, 14 months, seed 2005) ==\n")
    result = run_campaign(CampaignConfig.paper_scale(seed=2005))
    report = result.report
    print(report.render())

    print("\n== Figure 4 window sweep ==")
    events = hl_events_from_study(report.study)
    for window, count in window_sweep(
        result.dataset, events, [30, 60, 120, 300, 600, 1800, 7200, 28800]
    ):
        print(f"  {window:>7.0f}s -> {count}")

    print("\n== A2 threshold sweep (ground truth "
          f"{result.ground_truth['self_shutdowns']:.0f} kernel shutdowns) ==")
    for threshold in (60, 120, 240, 360, 600, 1800, 28800):
        print(f"  {threshold:>6}s -> {len(report.study.self_shutdowns(threshold))}")

    print("\n== EXT reliability ==")
    for kind, stats in compute_reliability(report.study).items():
        print(
            f"  {kind}: n={stats.sample_size} mean={stats.mean_hours:.1f}h "
            f"shape={stats.weibull_shape:.3f} "
            f"ks_exp={stats.exponential.ks_pvalue:.2f} "
            f"ks_wb={stats.weibull.ks_pvalue:.2f}"
        )

    print("\n== EXT variability ==")
    variability = compute_variability(report.accumulator, report.study)
    print(
        f"  pooled={variability.pooled_rate_per_khr:.2f}/1000h "
        f"chi2={variability.chi_square:.1f} dof={variability.degrees_of_freedom} "
        f"p={variability.p_value:.4f} spread={variability.min_max_rate_ratio:.2f}x"
    )

    print("\n== EXT output failures ==")
    output = report.output_failures
    print(
        f"  reports={output.report_count} "
        f"(truth {result.ground_truth['misbehaviors_perceived']:.0f} visible) "
        f"interval={output.report_interval_days:.0f}d "
        f"corr={100 * output.panic_correlated_fraction:.1f}% "
        f"lift={output.correlation_lift:.0f}x"
    )

    print("\n== EXT trends ==")
    trends = compute_trends(report.accumulator, events)
    print(
        f"  waking share={trends.waking_share():.1f}% "
        f"peak hour={trends.peak_hour:02d}:00 "
        f"slope={trends.trend_slope_per_month():+.3f}/1000h/month"
    )

    print("\n== forum study (seed 2003) ==\n")
    forum = run_forum_study(seed=2003)
    print(forum.render_table1())
    print()
    print(forum.render_summary())


if __name__ == "__main__":
    main()
