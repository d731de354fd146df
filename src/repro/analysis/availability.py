"""Headline availability figures (§6 "Freezes and Self-shutdowns").

The paper reports, in wall-clock hours averaged per phone:

* Mean Time Between Freezes (MTBFr) = 313 h  (~13 days)
* Mean Time Between Self-shutdowns (MTBS) = 250 h (~10 days)
* "on average, a user experiences a failure (freeze or self shutdown)
  every 11 days" — the 11 is the average of the two intervals above.

We compute both the *pooled* estimator (total observed hours / total
events — statistically stable, reported as the headline) and the mean
of per-phone intervals over phones that experienced at least one event
(closer to the paper's wording; noisier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.shutdowns import SELF_SHUTDOWN_THRESHOLD, ShutdownStudy


@dataclass(frozen=True)
class AvailabilityStats:
    """MTBF figures recovered from one campaign's logs."""

    phone_count: int
    observed_hours_total: float
    freeze_count: int
    self_shutdown_count: int
    mtbf_freeze_hours: float
    mtbf_self_shutdown_hours: float
    per_phone_mtbf_freeze_hours: float
    per_phone_mtbf_self_shutdown_hours: float

    @property
    def freeze_interval_days(self) -> float:
        """A freeze roughly every this many days (paper: ~13)."""
        return self.mtbf_freeze_hours / 24.0

    @property
    def self_shutdown_interval_days(self) -> float:
        """A self-shutdown roughly every this many days (paper: ~10)."""
        return self.mtbf_self_shutdown_hours / 24.0

    @property
    def failure_interval_days(self) -> float:
        """"A failure every N days" as the paper states it: the average
        of the freeze and self-shutdown intervals (13 and 10 -> ~11)."""
        return (self.freeze_interval_days + self.self_shutdown_interval_days) / 2.0

    @property
    def combined_failure_rate_per_hour(self) -> float:
        """Combined failure rate (freezes + self-shutdowns per hour)."""
        if self.observed_hours_total <= 0:
            return 0.0
        return (
            self.freeze_count + self.self_shutdown_count
        ) / self.observed_hours_total

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot, including the derived intervals."""
        return {
            "phone_count": self.phone_count,
            "observed_hours_total": self.observed_hours_total,
            "freeze_count": self.freeze_count,
            "self_shutdown_count": self.self_shutdown_count,
            "mtbf_freeze_hours": self.mtbf_freeze_hours,
            "mtbf_self_shutdown_hours": self.mtbf_self_shutdown_hours,
            "per_phone_mtbf_freeze_hours": self.per_phone_mtbf_freeze_hours,
            "per_phone_mtbf_self_shutdown_hours": (
                self.per_phone_mtbf_self_shutdown_hours
            ),
            "freeze_interval_days": self.freeze_interval_days,
            "self_shutdown_interval_days": self.self_shutdown_interval_days,
            "failure_interval_days": self.failure_interval_days,
        }


def availability_from_observations(
    observed: Dict[str, float],
    study: ShutdownStudy,
    threshold: float = SELF_SHUTDOWN_THRESHOLD,
) -> AvailabilityStats:
    """Availability figures from per-phone observed hours plus a study.

    ``observed`` must map *every* phone in the dataset, in the
    dataset's (lexicographic) phone order: the total and the per-phone
    MTBF means are float folds whose order follows the mapping's
    insertion order.
    """
    total_hours = sum(observed.values())
    freeze_counts: Dict[str, int] = {}
    for freeze in study.freezes:
        freeze_counts[freeze.phone_id] = freeze_counts.get(freeze.phone_id, 0) + 1
    self_counts: Dict[str, int] = {}
    for event in study.self_shutdowns(threshold):
        self_counts[event.phone_id] = self_counts.get(event.phone_id, 0) + 1

    freeze_total = sum(freeze_counts.values())
    self_total = sum(self_counts.values())

    return AvailabilityStats(
        phone_count=len(observed),
        observed_hours_total=total_hours,
        freeze_count=freeze_total,
        self_shutdown_count=self_total,
        mtbf_freeze_hours=_pooled_mtbf(total_hours, freeze_total),
        mtbf_self_shutdown_hours=_pooled_mtbf(total_hours, self_total),
        per_phone_mtbf_freeze_hours=_per_phone_mtbf(observed, freeze_counts),
        per_phone_mtbf_self_shutdown_hours=_per_phone_mtbf(observed, self_counts),
    )


def _pooled_mtbf(total_hours: float, events: int) -> float:
    if events == 0:
        return float("inf")
    return total_hours / events


def _per_phone_mtbf(observed: Dict[str, float], counts: Dict[str, int]) -> float:
    """Mean of per-phone (hours / events), over phones with >= 1 event."""
    intervals = [
        observed[phone_id] / count
        for phone_id, count in counts.items()
        if count > 0 and observed.get(phone_id, 0.0) > 0
    ]
    if not intervals:
        return float("inf")
    return sum(intervals) / len(intervals)
