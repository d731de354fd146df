"""Temporal structure of failures: diurnal pattern and campaign trend.

Two questions the paper's aggregate figures leave open, answerable from
the same logs:

* **When in the day do phones fail?**  Failures track usage: the §6
  finding that panics concentrate during real-time activity predicts a
  diurnal failure profile peaking in waking hours.  The hour-of-day
  histogram of HL events tests that prediction directly.
* **Does the failure rate drift over the campaign?**  Month-by-month
  rates (failures per observed phone-hour, exposure-corrected for
  staggered enrollment) expose reliability growth or decay — the
  paper's fleet ran fixed firmware, so the honest expectation is a
  flat trend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.coalescence import HlEvent
from repro.analysis.streaming import CampaignAccumulator
from repro.core.clock import DAY, HOUR, MONTH


@dataclass(frozen=True)
class MonthlyRate:
    """Failure rate in one 30.44-day bucket of the campaign."""

    month_index: int
    observed_hours: float
    failures: int

    @property
    def rate_per_khr(self) -> float:
        if self.observed_hours <= 0:
            return 0.0
        return 1000.0 * self.failures / self.observed_hours


@dataclass
class TrendStats:
    """Diurnal and month-over-month failure structure."""

    #: hour of day (0-23) -> percent of HL events.
    hourly_percent: Dict[int, float]
    monthly: List[MonthlyRate]
    total_events: int

    @property
    def peak_hour(self) -> int:
        if not self.hourly_percent:
            return 0
        return max(self.hourly_percent.items(), key=lambda kv: kv[1])[0]

    def waking_share(self, wake_hour: int = 8, sleep_hour: int = 23) -> float:
        """Percent of HL events inside the nominal waking window."""
        return sum(
            pct
            for hour, pct in self.hourly_percent.items()
            if wake_hour <= hour < sleep_hour
        )

    def trend_slope_per_month(self) -> float:
        """Least-squares slope of the monthly rate (per 1000 h, per
        month).  Near zero = no reliability drift."""
        points = [
            (m.month_index, m.rate_per_khr)
            for m in self.monthly
            if m.observed_hours > 100.0  # skip nearly-empty edge buckets
        ]
        if len(points) < 2:
            return 0.0
        n = len(points)
        mean_x = sum(x for x, _ in points) / n
        mean_y = sum(y for _, y in points) / n
        num = sum((x - mean_x) * (y - mean_y) for x, y in points)
        den = sum((x - mean_x) ** 2 for x, _ in points)
        return num / den if den else 0.0


def compute_trends(
    accumulator: CampaignAccumulator, hl_events: Sequence[HlEvent]
) -> TrendStats:
    """Hour-of-day histogram and month-by-month exposure-corrected rates
    (exposure from the phones' partials, in phone-id order)."""
    hour_counts: Dict[int, int] = {}
    for event in hl_events:
        hour = int((event.time % DAY) // HOUR)
        hour_counts[hour] = hour_counts.get(hour, 0) + 1
    total = sum(hour_counts.values())
    hourly_percent = {
        hour: 100.0 * count / total for hour, count in sorted(hour_counts.items())
    } if total else {}

    month_count = int(accumulator.end_time // MONTH) + 1
    exposure = [0.0] * month_count
    failures = [0] * month_count
    for _phone_id, partial in accumulator.ordered():
        start = partial["start_time"]
        for index in range(month_count):
            lo = index * MONTH
            hi = min((index + 1) * MONTH, accumulator.end_time)
            overlap = max(0.0, hi - max(lo, start))
            exposure[index] += overlap / HOUR
    for event in hl_events:
        index = int(event.time // MONTH)
        if 0 <= index < month_count:
            failures[index] += 1

    monthly = [
        MonthlyRate(index, exposure[index], failures[index])
        for index in range(month_count)
    ]
    return TrendStats(
        hourly_percent=hourly_percent,
        monthly=monthly,
        total_events=total,
    )
