"""EXT — downtime and user-perceived availability.

Quantifies what the paper's failure *frequencies* cost in *time*: MTTR
per failure class and the availability behind the "everyday
dependability" remark ([16], Shaw).
"""

from repro.analysis.downtime import compute_downtime
from repro.analysis.tables import render_table


def test_ext_downtime_availability(benchmark, campaign):
    report = campaign.report
    stats = benchmark(
        compute_downtime,
        report.study,
        report.availability.observed_hours_total,
    )

    rows = [
        (
            outage.kind,
            outage.count,
            f"{outage.mttr_seconds / 60:.1f}",
            f"{outage.median_seconds / 60:.1f}",
            f"{outage.p90_seconds / 60:.1f}",
        )
        for outage in (stats.freeze, stats.self_shutdown)
    ]
    print()
    print(
        "Outage cost by failure class\n"
        + render_table(
            ("Class", "Count", "MTTR (min)", "Median (min)", "P90 (min)"), rows
        )
    )
    print(
        f"\nfailure downtime:         {stats.total_downtime_hours:.0f} h over "
        f"{stats.observed_hours:,.0f} observed phone-hours"
    )
    print(f"user-perceived availability: {100 * stats.availability:.3f}%")
    print(
        f"downtime per user-month:     {stats.downtime_minutes_per_month:.0f} minutes"
    )
    benchmark.extra_info["availability"] = round(stats.availability, 5)
    benchmark.extra_info["mttr_freeze_min"] = round(
        stats.freeze.mttr_seconds / 60, 1
    )

    # Self-shutdowns auto-recover in ~80 s; freezes wait for a human.
    assert stats.self_shutdown.mttr_seconds < 300.0
    assert stats.freeze.mttr_seconds > 5 * stats.self_shutdown.mttr_seconds
    # Everyday-dependability band: two-to-four nines.
    assert 0.98 < stats.availability < 0.9999
