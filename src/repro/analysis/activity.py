"""Panic-activity relationship — Table 3.

"Table 3 reports the user activity at the time of the panic, in terms
of voice calls and text messages (the only ones registered on the
Symbian's Database Log Server).  Only panics which lead to an HL event
are considered."

The activity at panic time is reconstructed from the Log Engine's
start/end records: a panic falls inside a voice call / message
transaction if it lies between a start and its matching end (a
transaction cut short by the failure itself — start with no end —
stays open for a bounded grace interval).
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ingest import PhoneLog
from repro.core.records import (
    ACTIVITY_KINDS,
    ACTIVITY_MESSAGE,
    ACTIVITY_VOICE_CALL,
    PHASE_END,
    PHASE_START,
    ActivityRecord,
)

ACTIVITY_UNSPECIFIED = "unspecified"
ACTIVITY_COLUMNS = (ACTIVITY_VOICE_CALL, ACTIVITY_MESSAGE, ACTIVITY_UNSPECIFIED)

#: An activity whose end record never made it (the phone died mid-call)
#: is considered open this long past its start.
OPEN_TRANSACTION_GRACE = 600.0


@dataclass(frozen=True)
class Interval:
    start: float
    end: float

    def contains(self, t: float) -> bool:
        return self.start <= t <= self.end


def activity_intervals(log: PhoneLog) -> Dict[str, List[Interval]]:
    """Reconstruct call/message intervals from start/end records."""
    out: Dict[str, List[Interval]] = {kind: [] for kind in ACTIVITY_KINDS}
    open_start: Dict[str, Optional[float]] = {kind: None for kind in ACTIVITY_KINDS}
    for record in sorted(log.activities, key=lambda r: r.time):
        if record.phase == PHASE_START:
            pending = open_start[record.kind]
            if pending is not None:
                # The previous transaction never closed (failure);
                # close it with the grace interval.
                out[record.kind].append(
                    Interval(pending, pending + OPEN_TRANSACTION_GRACE)
                )
            open_start[record.kind] = record.time
        else:
            pending = open_start[record.kind]
            if pending is not None:
                out[record.kind].append(Interval(pending, record.time))
                open_start[record.kind] = None
            # An end with no start: the start line was lost (battery
            # pull truncation); nothing to reconstruct.
    for kind, pending in open_start.items():
        if pending is not None:
            out[kind].append(Interval(pending, pending + OPEN_TRANSACTION_GRACE))
    return out


def activity_at(intervals: Dict[str, List[Interval]], time: float) -> str:
    """The registered activity at ``time`` (voice wins over message,
    matching the phone's one-foreground-activity reality)."""
    for kind in (ACTIVITY_VOICE_CALL, ACTIVITY_MESSAGE):
        candidates = intervals.get(kind, [])
        index = bisect.bisect_right([iv.start for iv in candidates], time) - 1
        if index >= 0 and candidates[index].contains(time):
            return kind
    return ACTIVITY_UNSPECIFIED


class ActivityTimeline:
    """One phone's activity records in time order, for point queries.

    :meth:`at` answers ``activity_at(activity_intervals(log), time)``
    without reconstructing every interval: it bisects the sorted record
    times, and ``activity_at`` only ever reads the interval opened by
    the last start of a kind at or before ``time``.  That interval
    closes at the next record of its kind: at that record's time if it
    is an end, after the grace otherwise (another start, or none).
    """

    __slots__ = ("_records", "_times")

    def __init__(self, activities: Sequence[ActivityRecord]) -> None:
        records = list(activities)
        times = [record.time for record in records]
        if any(map(operator.gt, times, islice(times, 1, None))):
            # Out of order (a skewed or reordered log): the same stable
            # sort activity_intervals applies.
            records.sort(key=operator.attrgetter("time"))
            times.sort()
        self._records = records
        self._times = times

    def at(self, time: float) -> str:
        """The registered activity at ``time`` (voice wins over message)."""
        records = self._records
        cut = bisect.bisect_right(self._times, time)
        for kind in (ACTIVITY_VOICE_CALL, ACTIVITY_MESSAGE):
            index = cut - 1
            while index >= 0:
                record = records[index]
                if record.kind == kind and record.phase == PHASE_START:
                    break
                index -= 1
            else:
                continue
            end = record.time + OPEN_TRANSACTION_GRACE
            for later in islice(records, index + 1, None):
                if later.kind == kind:
                    if later.phase == PHASE_END:
                        end = later.time
                    break
            if time <= end:
                return kind
        return ACTIVITY_UNSPECIFIED


@dataclass
class ActivityTable:
    """Table 3: % of HL-related panics by (activity, category)."""

    #: (activity, category) -> percent of all HL-related panics.
    cells: Dict[Tuple[str, str], float]
    #: activity -> row total percent.
    row_totals: Dict[str, float]
    total_panics: int

    @property
    def realtime_percent(self) -> float:
        """Share of HL panics during real-time activity (paper: ~45%)."""
        return self.row_totals.get(ACTIVITY_VOICE_CALL, 0.0) + self.row_totals.get(
            ACTIVITY_MESSAGE, 0.0
        )

    def categories(self) -> Tuple[str, ...]:
        cats = sorted({category for (_a, category) in self.cells})
        return tuple(cats)

    def voice_only_categories(self) -> Tuple[str, ...]:
        """Categories observed only during voice calls (paper: USER, ViewSrv)."""
        return self._exclusive_to(ACTIVITY_VOICE_CALL)

    def message_only_categories(self) -> Tuple[str, ...]:
        """Categories observed only during messaging (paper: Phone.app)."""
        return self._exclusive_to(ACTIVITY_MESSAGE)

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of Table 3 (cells as sorted triples)."""
        return {
            "total_panics": self.total_panics,
            "realtime_percent": self.realtime_percent,
            "cells": [
                [activity, category, percent]
                for (activity, category), percent in sorted(self.cells.items())
            ],
            "row_totals": dict(sorted(self.row_totals.items())),
        }

    def _exclusive_to(self, activity: str) -> Tuple[str, ...]:
        out = []
        for category in self.categories():
            share = {
                a: self.cells.get((a, category), 0.0) for a in ACTIVITY_COLUMNS
            }
            if share[activity] > 0 and all(
                v == 0 for a, v in share.items() if a != activity
            ):
                out.append(category)
        return tuple(out)


def activity_table_from_pairs(
    pairs: Sequence[Tuple[str, str]],
) -> ActivityTable:
    """Table 3 from (activity at panic time, panic category) pairs.

    Pass pairs in global panic-time order: the row-total float folds
    follow the cells' first-appearance order, so the sequence order is
    part of the bit-identity contract.
    """
    counts: Dict[Tuple[str, str], int] = {}
    total = 0
    for key in pairs:
        counts[key] = counts.get(key, 0) + 1
        total += 1
    cells = {
        key: (100.0 * count / total if total else 0.0)
        for key, count in counts.items()
    }
    row_totals: Dict[str, float] = {}
    for (activity, _category), percent in cells.items():
        row_totals[activity] = row_totals.get(activity, 0.0) + percent
    return ActivityTable(cells=cells, row_totals=row_totals, total_panics=total)
