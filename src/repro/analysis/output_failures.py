"""Output-failure analysis — the §7 future-work extension, analysed.

The logger's interactive report channel captures the failures the
heartbeat cannot: output failures, input failures, erratic behaviour.
This module answers the questions the extension raises:

* How often do users report them?  (A **lower bound** on the true rate
  — users forget; the paper's Bluetooth-study experience.)
* Does footnote 5 of the paper hold — are the *isolated* panics (those
  never coalescing with a freeze/self-shutdown) the ones behind the
  user-visible output failures?  We check by coalescing user reports
  with panics and comparing against a chance baseline.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple



@dataclass
class OutputFailureStats:
    """User-report statistics plus the panic-correlation evidence."""

    report_count: int
    reports_by_kind: Dict[str, int]
    observed_hours: float
    #: Fraction of user reports with a panic within the window before
    #: or at the report.
    panic_correlated_fraction: float
    #: Chance level: fraction of uniformly random instants that would
    #: land within the window of some panic (per-phone, averaged with
    #: observation-time weights).
    chance_fraction: float
    window: float

    @property
    def reports_per_phone_hour(self) -> float:
        if self.observed_hours <= 0:
            return 0.0
        return self.report_count / self.observed_hours

    @property
    def report_interval_days(self) -> float:
        """A reported output failure every this many days of observation
        (per phone).  A lower bound on the true failure interval."""
        rate = self.reports_per_phone_hour
        if rate <= 0:
            return float("inf")
        return 1.0 / rate / 24.0

    @property
    def correlation_lift(self) -> float:
        """How many times above chance the panic correlation sits."""
        if self.chance_fraction <= 0:
            return float("inf") if self.panic_correlated_fraction > 0 else 1.0
        return self.panic_correlated_fraction / self.chance_fraction

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of the user-report statistics."""
        return {
            "report_count": self.report_count,
            "reports_by_kind": dict(sorted(self.reports_by_kind.items())),
            "observed_hours": self.observed_hours,
            "panic_correlated_fraction": self.panic_correlated_fraction,
            "chance_fraction": self.chance_fraction,
            "window": self.window,
            "report_interval_days": self.report_interval_days,
        }


@dataclass(frozen=True)
class PhoneReportPart:
    """One phone's contribution to the output-failure section — the
    per-phone unit the report's finalize folds."""

    #: Report kinds, in log order.
    kinds: Tuple[str, ...]
    #: Reports with a panic within the window.
    correlated: int
    #: Observed hours (enrollment to campaign end).
    hours: float
    #: Union length of the +-window intervals around the phone's panics.
    covered_seconds: float


def phone_report_part(
    log, end_time: float, window: float
) -> PhoneReportPart:
    """Extract one phone's :class:`PhoneReportPart` from its log."""
    panic_times = [p.time for p in log.panics]
    correlated = 0
    for report in log.user_reports:
        if has_time_within(panic_times, report.time, window):
            correlated += 1
    return PhoneReportPart(
        kinds=tuple(report.kind for report in log.user_reports),
        correlated=correlated,
        hours=log.observed_hours(end_time),
        covered_seconds=covered_seconds(sorted(panic_times), window),
    )


def stats_from_phone_parts(
    parts: Sequence[PhoneReportPart], window: float
) -> OutputFailureStats:
    """Fold per-phone parts into :class:`OutputFailureStats`.

    Pass parts in the dataset's (lexicographic) phone order: the
    observed-hours total and the chance baseline are float folds in
    that order.
    """
    by_kind: Dict[str, int] = {}
    report_count = 0
    correlated = 0
    for part in parts:
        for kind in part.kinds:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        report_count += len(part.kinds)
        correlated += part.correlated
    total_hours = sum(part.hours for part in parts)
    if total_hours <= 0:
        chance = 0.0
    else:
        weighted = 0.0
        for part in parts:
            if part.hours <= 0:
                continue
            fraction = min(part.covered_seconds / (part.hours * 3600.0), 1.0)
            weighted += fraction * part.hours
        chance = weighted / total_hours
    return OutputFailureStats(
        report_count=report_count,
        reports_by_kind=dict(sorted(by_kind.items())),
        observed_hours=total_hours,
        panic_correlated_fraction=(
            (correlated / report_count) if report_count else 0.0
        ),
        chance_fraction=chance,
        window=window,
    )


def has_time_within(sorted_times: List[float], t: float, window: float) -> bool:
    """Whether any of ``sorted_times`` lies within ``window`` of ``t``."""
    index = bisect.bisect_left(sorted_times, t)
    for candidate in (index - 1, index):
        if 0 <= candidate < len(sorted_times):
            if abs(sorted_times[candidate] - t) <= window:
                return True
    return False


def covered_seconds(sorted_times: List[float], window: float) -> float:
    """Total length of the union of +-window intervals around panics."""
    covered = 0.0
    interval_start: Optional[float] = None
    interval_end: Optional[float] = None
    for t in sorted_times:
        lo, hi = t - window, t + window
        if interval_end is None or lo > interval_end:
            if interval_end is not None:
                covered += interval_end - interval_start
            interval_start, interval_end = lo, hi
        else:
            interval_end = max(interval_end, hi)
    if interval_end is not None:
        covered += interval_end - interval_start
    return covered
