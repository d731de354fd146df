"""EXT — temporal structure: diurnal failure profile and campaign trend.

Rephrases the paper's real-time-activity finding temporally (failures
track usage across the day) and checks the campaign for reliability
drift (fixed firmware -> flat month-over-month rate).
"""

from repro.analysis.coalescence import hl_events_from_study
from repro.analysis.tables import render_table
from repro.analysis.trends import compute_trends


def test_ext_temporal_structure(benchmark, campaign):
    events = hl_events_from_study(campaign.report.study)
    trends = benchmark(
        compute_trends, campaign.report.accumulator, events
    )

    hours = sorted(trends.hourly_percent)
    rows = [
        (f"{hour:02d}:00", f"{trends.hourly_percent[hour]:.1f}")
        for hour in hours
    ]
    print()
    print(
        "Diurnal failure profile (% of HL events per hour of day)\n"
        + render_table(("Hour", "%"), rows)
    )
    waking = trends.waking_share(8, 23)
    uniform = 100.0 * 15 / 24
    print(
        f"\nwaking-hours share (08-23): {waking:.1f}% "
        f"(uniform would be {uniform:.1f}%); peak hour: {trends.peak_hour:02d}:00"
    )
    monthly_rows = [
        (m.month_index, f"{m.observed_hours:.0f}", m.failures, f"{m.rate_per_khr:.2f}")
        for m in trends.monthly
        if m.observed_hours > 100
    ]
    print()
    print(
        "Month-over-month failure rate\n"
        + render_table(("Month", "Phone-hours", "Failures", "Rate/1000h"), monthly_rows)
    )
    slope = trends.trend_slope_per_month()
    print(f"\ntrend slope: {slope:+.3f} per 1000 h per month (flat = healthy)")
    benchmark.extra_info["waking_share"] = round(waking, 1)
    benchmark.extra_info["slope"] = round(slope, 4)

    # Failures track usage across the day...
    assert waking > uniform
    assert 8 <= trends.peak_hour < 23
    # ...and the campaign shows no reliability drift.
    mid_rates = [
        m.rate_per_khr for m in trends.monthly if m.observed_hours > 2000
    ]
    mean_rate = sum(mid_rates) / len(mid_rates)
    assert abs(slope) < 0.1 * mean_rate
