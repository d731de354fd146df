#!/usr/bin/env python3
"""Dependability deep dive: everything the logs can tell you.

Runs one campaign and then every analysis in the library — the paper's
§6 pipeline plus the extensions (downtime, reliability modelling,
variability, temporal structure, output-failure reports) — as a single
dependability report::

    python examples/dependability_deep_dive.py [--phones N] [--months M]
"""

import argparse

from repro.analysis.coalescence import hl_events_from_study
from repro.analysis.downtime import compute_downtime
from repro.analysis.reliability import compute_reliability
from repro.analysis.tables import render_table
from repro.analysis.trends import compute_trends
from repro.analysis.variability import compute_variability
from repro.core.clock import MONTH
from repro.experiments import CampaignConfig, run_campaign
from repro.phone.fleet import FleetConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phones", type=int, default=25)
    parser.add_argument("--months", type=float, default=14.0)
    parser.add_argument("--seed", type=int, default=2005)
    args = parser.parse_args()

    print(
        f"Simulating {args.phones} phones for {args.months:g} months "
        f"(seed {args.seed})..."
    )
    fleet = FleetConfig(phone_count=args.phones, duration=args.months * MONTH)
    result = run_campaign(CampaignConfig(fleet=fleet, seed=args.seed))
    report = result.report
    print()
    print(report.render_headline())

    # -- downtime --------------------------------------------------------
    downtime = compute_downtime(
        report.study, report.availability.observed_hours_total
    )
    print()
    print("Downtime")
    print("--------")
    for outage in (downtime.freeze, downtime.self_shutdown):
        print(
            f"  {outage.kind:15s} n={outage.count:4d}  "
            f"MTTR {outage.mttr_seconds / 60:7.1f} min  "
            f"median {outage.median_seconds / 60:6.1f} min  "
            f"P90 {outage.p90_seconds / 60:7.1f} min"
        )
    print(
        f"  availability {100 * downtime.availability:.3f}%  "
        f"({downtime.downtime_minutes_per_month:.0f} minutes lost per month)"
    )

    # -- reliability modelling ---------------------------------------------
    print()
    print("Inter-failure time modelling")
    print("----------------------------")
    for kind, stats in compute_reliability(report.study).items():
        if stats.exponential is None:
            continue
        print(
            f"  {kind:15s} n={stats.sample_size:4d}  "
            f"mean {stats.mean_hours:6.1f} h  "
            f"Weibull shape {stats.weibull_shape:.2f}  "
            f"preferred: {stats.preferred_model}"
        )

    # -- variability -------------------------------------------------------
    variability = compute_variability(report.accumulator, report.study)
    print()
    print("Fleet variability")
    print("-----------------")
    print(
        f"  pooled {variability.pooled_rate_per_khr:.2f} failures/1000 h, "
        f"spread {variability.min_max_rate_ratio:.1f}x, "
        f"homogeneity p={variability.p_value:.3f}"
    )
    rows = [
        (g.label, g.phone_count, f"{g.rate_per_khr:.2f}")
        for g in variability.by_os_version
    ]
    print(render_table(("OS version", "Phones", "Rate/1000h"), rows))

    # -- temporal structure ---------------------------------------------------
    events = hl_events_from_study(report.study)
    trends = compute_trends(report.accumulator, events)
    print()
    print("Temporal structure")
    print("------------------")
    print(
        f"  waking-hours (08-23) share {trends.waking_share():.1f}% "
        f"(uniform 62.5%), peak hour {trends.peak_hour:02d}:00, "
        f"monthly drift {trends.trend_slope_per_month():+.2f}/1000h"
    )

    # -- output failures ----------------------------------------------------------
    output = report.output_failures
    print()
    print("Output-failure reports (user channel)")
    print("-------------------------------------")
    print(
        f"  {output.report_count} reports "
        f"(one per {output.report_interval_days:.0f} days, lower bound); "
        f"{100 * output.panic_correlated_fraction:.1f}% panic-correlated "
        f"({output.correlation_lift:.0f}x chance)"
    )


if __name__ == "__main__":
    main()
