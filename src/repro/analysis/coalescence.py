"""Panic / high-level-event coalescence — Figure 4's scheme.

"When a panic is found in the Log File, we search for freeze and
self-shutdown events, within a predefined temporal window."  The paper
fixes the window at five minutes after observing that the number of
coalesced events grows with window size up to ~5 minutes, then only
grows again for windows of the order of hours — i.e. random
collisions.  :func:`window_sweep` reproduces exactly that sensitivity
curve.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ingest import Dataset
from repro.analysis.shutdowns import (
    SELF_SHUTDOWN_THRESHOLD,
    ShutdownStudy,
)
from repro.core.records import PanicRecord

#: The paper's coalescence window: five minutes.
DEFAULT_WINDOW = 300.0

HL_FREEZE = "freeze"
HL_SELF_SHUTDOWN = "self_shutdown"
HL_USER_SHUTDOWN = "user_shutdown"


@dataclass(frozen=True)
class HlEvent:
    """A high-level failure event as the analysis sees it."""

    phone_id: str
    time: float
    kind: str


@dataclass(frozen=True)
class Match:
    """One panic coalesced with one high-level event."""

    phone_id: str
    panic: PanicRecord
    hl_event: HlEvent

    @property
    def distance(self) -> float:
        return abs(self.panic.time - self.hl_event.time)


@dataclass
class CoalescenceResult:
    """Outcome of the Figure 4 procedure at one window size."""

    window: float
    matches: List[Match]
    isolated_panics: List[Tuple[str, PanicRecord]]
    isolated_hl: List[HlEvent]

    @property
    def total_panics(self) -> int:
        return len(self.matches) + len(self.isolated_panics)

    @property
    def related_percent(self) -> float:
        """Percent of panics related to an HL event (paper: 51%)."""
        total = self.total_panics
        if total == 0:
            return 0.0
        return 100.0 * len(self.matches) / total

    def matches_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for match in self.matches:
            out[match.hl_event.kind] = out.get(match.hl_event.kind, 0) + 1
        return out


def hl_events_from_study(
    study: ShutdownStudy,
    threshold: float = SELF_SHUTDOWN_THRESHOLD,
    include_user_shutdowns: bool = False,
) -> List[HlEvent]:
    """Build the HL event list: freezes + self-shutdowns.

    ``include_user_shutdowns=True`` reproduces the paper's robustness
    check: adding all 1778 shutdown events only raises the related
    fraction from 51% to 55%, confirming the filtered events were
    user-triggered.
    """
    events = [
        HlEvent(freeze.phone_id, freeze.est_time, HL_FREEZE)
        for freeze in study.freezes
    ]
    for shutdown in study.shutdowns:
        if shutdown.is_self_shutdown(threshold):
            events.append(HlEvent(shutdown.phone_id, shutdown.at, HL_SELF_SHUTDOWN))
        elif include_user_shutdowns:
            events.append(HlEvent(shutdown.phone_id, shutdown.at, HL_USER_SHUTDOWN))
    events.sort(key=lambda e: (e.phone_id, e.time))
    return events


def phone_hl_events(
    phone_id: str,
    freezes: Sequence,
    shutdowns: Sequence,
    threshold: float = SELF_SHUTDOWN_THRESHOLD,
    include_user_shutdowns: bool = False,
) -> List[HlEvent]:
    """One phone's HL events, time-sorted — the per-phone core of
    :func:`hl_events_from_study`.

    ``freezes``/``shutdowns`` are the phone's own
    :class:`~repro.analysis.shutdowns.FreezeEvent` /
    :class:`~repro.analysis.shutdowns.ShutdownEvent` lists in time
    order.  Freezes are listed before shutdowns at equal times, exactly
    like the global builder's stable sort, so the report fold's
    per-phone matching picks the same event :func:`coalesce` picks.
    """
    events = [
        HlEvent(phone_id, freeze.est_time, HL_FREEZE) for freeze in freezes
    ]
    for shutdown in shutdowns:
        if shutdown.is_self_shutdown(threshold):
            events.append(HlEvent(phone_id, shutdown.at, HL_SELF_SHUTDOWN))
        elif include_user_shutdowns:
            events.append(HlEvent(phone_id, shutdown.at, HL_USER_SHUTDOWN))
    events.sort(key=lambda e: e.time)
    return events


def matched_event(
    events: List[HlEvent], time: float, window: float
) -> Optional[HlEvent]:
    """The HL event ``time`` coalesces with, or ``None``.

    ``events`` is one phone's time-sorted HL event list.  Shared by
    :func:`coalesce` and the streaming extraction so the two paths can
    never disagree on a match.
    """
    nearest = nearest_event(events, time)
    if nearest is not None and abs(nearest.time - time) <= window:
        return nearest
    return None


def coalesce(
    dataset: Dataset,
    hl_events: Sequence[HlEvent],
    window: float = DEFAULT_WINDOW,
) -> CoalescenceResult:
    """Match each panic to the nearest HL event within ``window``.

    Matching is per phone and symmetric (the estimated freeze time can
    precede the panic by up to one heartbeat period because of beat
    quantization, so a one-sided window would lose real correlations).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    by_phone: Dict[str, List[HlEvent]] = {}
    for event in hl_events:
        by_phone.setdefault(event.phone_id, []).append(event)
    for events in by_phone.values():
        events.sort(key=lambda e: e.time)

    matches: List[Match] = []
    isolated_panics: List[Tuple[str, PanicRecord]] = []
    matched_hl = set()

    for phone_id, panic in dataset.all_panics():
        events = by_phone.get(phone_id, [])
        nearest = matched_event(events, panic.time, window)
        if nearest is not None:
            matches.append(Match(phone_id, panic, nearest))
            matched_hl.add(id(nearest))
        else:
            isolated_panics.append((phone_id, panic))

    isolated_hl = [e for e in hl_events if id(e) not in matched_hl]
    return CoalescenceResult(
        window=window,
        matches=matches,
        isolated_panics=isolated_panics,
        isolated_hl=isolated_hl,
    )


def window_sweep(
    dataset: Dataset,
    hl_events: Sequence[HlEvent],
    windows: Sequence[float],
) -> List[Tuple[float, int]]:
    """Coalesced-panic count as a function of window size (Figure 4).

    The knee of this curve is how the paper justified the five-minute
    window: growth up to ~5 min captures real correlation; renewed
    growth at hour-scale windows is coincidence.
    """
    return [
        (window, len(coalesce(dataset, hl_events, window).matches))
        for window in windows
    ]


def nearest_event(events: List[HlEvent], time: float) -> Optional[HlEvent]:
    """Nearest event to ``time`` in a time-sorted list (ties: earlier wins)."""
    if not events:
        return None
    times = [e.time for e in events]
    index = bisect.bisect_left(times, time)
    best: Optional[HlEvent] = None
    for candidate in (index - 1, index):
        if 0 <= candidate < len(events):
            event = events[candidate]
            if best is None or abs(event.time - time) < abs(best.time - time):
                best = event
    return best
