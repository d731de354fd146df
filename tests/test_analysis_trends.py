"""Tests for the diurnal/trend analysis."""

import pytest

from repro.analysis.coalescence import HL_FREEZE, HlEvent, hl_events_from_study
from repro.analysis.streaming import CampaignAccumulator
from repro.analysis.trends import compute_trends
from repro.core.clock import DAY, HOUR, MONTH
from repro.core.records import BootRecord
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


def partials(records_by_phone, end_time):
    """The per-phone partials trends read (start time, end time)."""
    return CampaignAccumulator.from_dataset(
        dataset_from_records(records_by_phone, end_time=end_time)
    )


def make_partials(end_time=2 * MONTH):
    return partials({"p": [boot(0.0, "NONE", 0.0)]}, end_time)


class TestHourly:
    def test_hours_binned_correctly(self):
        accumulator = make_partials()
        events = [
            HlEvent("p", 10 * HOUR + 30 * 60, HL_FREEZE),  # 10:30
            HlEvent("p", DAY + 10 * HOUR, HL_FREEZE),  # 10:00 next day
            HlEvent("p", 2 * DAY + 23 * HOUR, HL_FREEZE),  # 23:00
        ]
        trends = compute_trends(accumulator, events)
        assert trends.hourly_percent[10] == pytest.approx(200.0 / 3.0)
        assert trends.hourly_percent[23] == pytest.approx(100.0 / 3.0)
        assert trends.total_events == 3

    def test_peak_hour(self):
        accumulator = make_partials()
        events = [HlEvent("p", 14 * HOUR + i * DAY, HL_FREEZE) for i in range(5)]
        events.append(HlEvent("p", 3 * HOUR, HL_FREEZE))
        assert compute_trends(accumulator, events).peak_hour == 14

    def test_waking_share(self):
        accumulator = make_partials()
        events = [
            HlEvent("p", 12 * HOUR, HL_FREEZE),  # waking
            HlEvent("p", DAY + 3 * HOUR, HL_FREEZE),  # night
        ]
        trends = compute_trends(accumulator, events)
        assert trends.waking_share(8, 23) == pytest.approx(50.0)

    def test_empty_events(self):
        trends = compute_trends(make_partials(), [])
        assert trends.hourly_percent == {}
        assert trends.total_events == 0
        assert trends.peak_hour == 0


class TestMonthly:
    def test_exposure_respects_enrollment(self):
        # Phone enrolls mid-campaign: month 0 has no exposure.
        records = [boot(1.5 * MONTH, "NONE", 0.0)]
        accumulator = partials({"p": records}, 3 * MONTH)
        trends = compute_trends(accumulator, [])
        assert trends.monthly[0].observed_hours == 0.0
        assert trends.monthly[1].observed_hours == pytest.approx(
            0.5 * MONTH / HOUR, rel=0.01
        )
        assert trends.monthly[2].observed_hours == pytest.approx(
            MONTH / HOUR, rel=0.01
        )

    def test_failures_assigned_to_month(self):
        accumulator = make_partials(end_time=3 * MONTH)
        events = [
            HlEvent("p", 0.5 * MONTH, HL_FREEZE),
            HlEvent("p", 1.5 * MONTH, HL_FREEZE),
            HlEvent("p", 1.6 * MONTH, HL_FREEZE),
        ]
        trends = compute_trends(accumulator, events)
        assert trends.monthly[0].failures == 1
        assert trends.monthly[1].failures == 2

    def test_rate_per_khr(self):
        accumulator = make_partials(end_time=MONTH)
        events = [HlEvent("p", 0.5 * MONTH, HL_FREEZE)]
        trends = compute_trends(accumulator, events)
        expected = 1000.0 / (MONTH / HOUR)
        assert trends.monthly[0].rate_per_khr == pytest.approx(expected, rel=0.01)

    def test_flat_trend_zero_slope(self):
        accumulator = make_partials(end_time=4 * MONTH)
        # One failure per month: perfectly flat.
        events = [
            HlEvent("p", (i + 0.5) * MONTH, HL_FREEZE) for i in range(4)
        ]
        trends = compute_trends(accumulator, events)
        assert trends.trend_slope_per_month() == pytest.approx(0.0, abs=1e-9)

    def test_increasing_trend_positive_slope(self):
        accumulator = make_partials(end_time=4 * MONTH)
        events = []
        for month in range(4):
            events.extend(
                HlEvent("p", month * MONTH + (k + 1) * DAY, HL_FREEZE)
                for k in range(month + 1)
            )
        trends = compute_trends(accumulator, events)
        assert trends.trend_slope_per_month() > 0


class TestOnRealCampaign:
    def test_failures_concentrate_in_waking_hours(self, paper_campaign):
        """The §6 real-time-activity finding, rephrased temporally:
        failure density during waking hours exceeds the uniform share."""
        events = hl_events_from_study(paper_campaign.report.study)
        trends = compute_trends(paper_campaign.report.accumulator, events)
        share = trends.waking_share(8, 23)
        uniform = 100.0 * 15 / 24
        assert share > uniform
        assert 8 <= trends.peak_hour < 23

    def test_campaign_rate_is_flat(self, paper_campaign):
        """Fixed firmware, stationary fault process: no drift."""
        events = hl_events_from_study(paper_campaign.report.study)
        trends = compute_trends(paper_campaign.report.accumulator, events)
        slope = trends.trend_slope_per_month()
        mid_rates = [
            m.rate_per_khr for m in trends.monthly if m.observed_hours > 2000
        ]
        mean_rate = sum(mid_rates) / len(mid_rates)
        # Drift below 10% of the mean rate per month.
        assert abs(slope) < 0.1 * mean_rate
