"""Downtime and user-perceived availability.

The paper measures how often phones fail; the logs also say how long
each failure *costs*.  Both outage classes are fully reconstructable
from boot records:

* a **freeze** outage runs from the last ALIVE beat (the latest instant
  the phone was known healthy) to the recovery boot — it includes the
  frozen-but-dark period, the user's impatience delay, and the
  off-time after the battery pull;
* a **self-shutdown** outage is the reboot duration itself.

From these we compute MTTR per failure class and the user-perceived
availability (uptime / (uptime + failure downtime)), the quantity
behind the paper's "everyday dependability" remark [16].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.shutdowns import SELF_SHUTDOWN_THRESHOLD, ShutdownStudy


@dataclass(frozen=True)
class OutageClass:
    """Downtime statistics for one failure class."""

    kind: str
    count: int
    total_seconds: float
    median_seconds: float
    p90_seconds: float

    @property
    def mttr_seconds(self) -> float:
        """Mean time to recovery."""
        if self.count == 0:
            return 0.0
        return self.total_seconds / self.count


@dataclass
class DowntimeStats:
    """Fleet-level downtime accounting."""

    freeze: OutageClass
    self_shutdown: OutageClass
    observed_hours: float

    @property
    def total_downtime_hours(self) -> float:
        return (self.freeze.total_seconds + self.self_shutdown.total_seconds) / 3600.0

    @property
    def availability(self) -> float:
        """Fraction of observed time not spent in failure outages.

        Deliberate off-time (night shutdowns, logger-off windows) does
        not count against availability — the user chose it.
        """
        if self.observed_hours <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_downtime_hours / self.observed_hours)

    @property
    def downtime_minutes_per_month(self) -> float:
        """Failure downtime a user accrues per 30.44-day month."""
        if self.observed_hours <= 0:
            return 0.0
        months = self.observed_hours / (30.44 * 24.0)
        return self.total_downtime_hours * 60.0 / months


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    index = min(int(fraction * len(ordered)), len(ordered) - 1)
    return ordered[index]


def _outage_class(kind: str, durations: List[float]) -> OutageClass:
    ordered = sorted(durations)
    return OutageClass(
        kind=kind,
        count=len(ordered),
        total_seconds=sum(ordered),
        median_seconds=_percentile(ordered, 0.5),
        p90_seconds=_percentile(ordered, 0.9),
    )


def compute_downtime(
    study: ShutdownStudy,
    observed_hours: float,
    threshold: float = SELF_SHUTDOWN_THRESHOLD,
) -> DowntimeStats:
    """Reconstruct per-outage durations and aggregate them over the
    fleet's summed ``observed_hours``."""
    freeze_durations = [
        freeze.detected_at - freeze.last_alive for freeze in study.freezes
    ]
    shutdown_durations = [
        event.duration
        for event in study.shutdowns
        if event.is_self_shutdown(threshold)
    ]
    return DowntimeStats(
        freeze=_outage_class("freeze", freeze_durations),
        self_shutdown=_outage_class("self_shutdown", shutdown_durations),
        observed_hours=observed_hours,
    )
