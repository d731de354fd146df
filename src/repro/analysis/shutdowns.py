"""Shutdown and freeze identification (§6 "Self-shutdowns
Identification", Figure 2).

From the boot records alone:

* a boot whose previous heartbeat event is **ALIVE** means the power
  was cut without a graceful shutdown — a battery pull, hence a
  **freeze** of the previous cycle;
* a boot after a **REBOOT** beat is a shutdown event whose *reboot
  duration* (off time) is the boot time minus the beat time; the
  duration histogram is bimodal (self-shutdowns near 80 s, night-time
  power-offs near 30 000 s), and the paper cuts at 360 s to isolate
  **self-shutdowns**;
* **LOWBT** and **MAOFF** boots are excluded from failure statistics
  (flat battery / logger deliberately stopped).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.records import (
    BEAT_ALIVE,
    BEAT_LOWBT,
    BEAT_MAOFF,
    BEAT_NONE,
    BEAT_REBOOT,
)

#: The paper's self-shutdown threshold: reboot durations under 360 s
#: are assumed to be self-shutdowns.
SELF_SHUTDOWN_THRESHOLD = 360.0


@dataclass(frozen=True, slots=True)
class FreezeEvent:
    """A freeze, convicted by an ALIVE-last boot."""

    phone_id: str
    #: When the phone came back (the boot that detected the freeze).
    detected_at: float
    #: Last ALIVE beat: the latest instant the phone was known healthy.
    last_alive: float

    @property
    def est_time(self) -> float:
        """Best available estimate of when the freeze happened."""
        return self.last_alive


@dataclass(frozen=True, slots=True)
class ShutdownEvent:
    """A graceful shutdown (REBOOT beat) and its off-time."""

    phone_id: str
    #: When the shutdown happened (the final REBOOT beat).
    at: float
    #: When the phone booted again.
    boot_time: float

    @property
    def duration(self) -> float:
        """The reboot duration (phone off-time), Figure 2's variable."""
        return self.boot_time - self.at

    def is_self_shutdown(self, threshold: float = SELF_SHUTDOWN_THRESHOLD) -> bool:
        return self.duration < threshold


@dataclass
class ShutdownStudy:
    """All freeze/shutdown events extracted from a dataset."""

    freezes: List[FreezeEvent]
    shutdowns: List[ShutdownEvent]
    lowbt_count: int
    maoff_count: int
    first_boot_count: int

    def self_shutdowns(
        self, threshold: float = SELF_SHUTDOWN_THRESHOLD
    ) -> List[ShutdownEvent]:
        """Shutdowns classified as self-shutdowns by the duration filter."""
        return [s for s in self.shutdowns if s.is_self_shutdown(threshold)]

    def user_shutdowns(
        self, threshold: float = SELF_SHUTDOWN_THRESHOLD
    ) -> List[ShutdownEvent]:
        return [s for s in self.shutdowns if not s.is_self_shutdown(threshold)]

    def self_shutdown_fraction(
        self, threshold: float = SELF_SHUTDOWN_THRESHOLD
    ) -> float:
        """Fraction of all shutdown events classified self (paper: 24.2%)."""
        if not self.shutdowns:
            return 0.0
        return len(self.self_shutdowns(threshold)) / len(self.shutdowns)

    # -- Figure 2 ------------------------------------------------------------------

    def duration_histogram(
        self, bin_edges: Sequence[float]
    ) -> List[Tuple[float, float, int]]:
        """Histogram of reboot durations: (lo, hi, count) per bin.

        ``bin_edges`` must be strictly increasing.  Every bin is
        half-open on the right — ``[lo, hi)`` — so a duration equal to
        an interior edge lands in the *upper* bin, and a duration equal
        to the **last** edge falls off the histogram entirely, exactly
        like durations below the first edge (callers pick the range
        they plot).  Binning is O(log bins) per event via bisect.
        """
        edges = list(bin_edges)
        if len(edges) < 2 or any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise ValueError("bin_edges must be strictly increasing, length >= 2")
        counts = [0] * (len(edges) - 1)
        for event in self.shutdowns:
            index = bisect.bisect_right(edges, event.duration) - 1
            if 0 <= index < len(counts):
                counts[index] += 1
        return [(edges[i], edges[i + 1], counts[i]) for i in range(len(counts))]

    def median_self_shutdown_duration(
        self, threshold: float = SELF_SHUTDOWN_THRESHOLD
    ) -> float:
        """Median off-time of self-shutdowns (paper: ~80 s)."""
        durations = sorted(s.duration for s in self.self_shutdowns(threshold))
        if not durations:
            return 0.0
        mid = len(durations) // 2
        if len(durations) % 2:
            return durations[mid]
        return (durations[mid - 1] + durations[mid]) / 2.0

    def night_mode_duration(self) -> float:
        """Mode of the long-duration lobe (paper: ~30000 s).

        Computed as the median of user-shutdown durations between one
        and sixteen hours, which is robust to the tail.
        """
        durations = sorted(
            s.duration
            for s in self.shutdowns
            if 3600.0 <= s.duration <= 16 * 3600.0
        )
        if not durations:
            return 0.0
        return durations[len(durations) // 2]

    def freezes_by_phone(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for freeze in self.freezes:
            out[freeze.phone_id] = out.get(freeze.phone_id, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of the study's aggregate findings."""
        return {
            "freeze_count": len(self.freezes),
            "shutdown_count": len(self.shutdowns),
            "self_shutdown_count": len(self.self_shutdowns()),
            "self_shutdown_fraction": self.self_shutdown_fraction(),
            "median_self_shutdown_duration_s": self.median_self_shutdown_duration(),
            "night_mode_duration_s": self.night_mode_duration(),
            "lowbt_count": self.lowbt_count,
            "maoff_count": self.maoff_count,
            "first_boot_count": self.first_boot_count,
        }


@dataclass(frozen=True)
class PhoneBootClassification:
    """One phone's boot records classified — the per-phone core of the
    streaming accumulator's partial (:func:`assemble_study` joins
    them into the study)."""

    phone_id: str
    freezes: Tuple[FreezeEvent, ...]
    shutdowns: Tuple[ShutdownEvent, ...]
    lowbt_count: int
    maoff_count: int
    first_boot_count: int


def classify_boots(phone_id: str, boots: Sequence) -> PhoneBootClassification:
    """Classify one phone's boot records (in log order)."""
    freezes: List[FreezeEvent] = []
    shutdowns: List[ShutdownEvent] = []
    lowbt = 0
    maoff = 0
    first_boots = 0
    for boot in boots:
        kind = boot.last_beat_kind
        if kind == BEAT_NONE:
            first_boots += 1
        elif kind == BEAT_ALIVE:
            freezes.append(
                FreezeEvent(
                    phone_id=phone_id,
                    detected_at=boot.time,
                    last_alive=boot.last_beat_time,
                )
            )
        elif kind == BEAT_REBOOT:
            shutdowns.append(
                ShutdownEvent(
                    phone_id=phone_id,
                    at=boot.last_beat_time,
                    boot_time=boot.time,
                )
            )
        elif kind == BEAT_LOWBT:
            lowbt += 1
        elif kind == BEAT_MAOFF:
            maoff += 1
    return PhoneBootClassification(
        phone_id=phone_id,
        freezes=tuple(freezes),
        shutdowns=tuple(shutdowns),
        lowbt_count=lowbt,
        maoff_count=maoff,
        first_boot_count=first_boots,
    )


def assemble_study(
    classifications: Sequence[PhoneBootClassification],
) -> ShutdownStudy:
    """Fold per-phone classifications into one :class:`ShutdownStudy`.

    The event lists are concatenated in the given phone order and then
    time-sorted with a stable sort, so passing classifications in the
    dataset's (lexicographic) phone order reproduces the monolithic
    study's tie-breaking exactly — which is what makes shard-merged
    results bit-identical.
    """
    freezes: List[FreezeEvent] = []
    shutdowns: List[ShutdownEvent] = []
    lowbt = 0
    maoff = 0
    first_boots = 0
    for cls in classifications:
        freezes.extend(cls.freezes)
        shutdowns.extend(cls.shutdowns)
        lowbt += cls.lowbt_count
        maoff += cls.maoff_count
        first_boots += cls.first_boot_count
    freezes.sort(key=lambda e: e.detected_at)
    shutdowns.sort(key=lambda e: e.at)
    return ShutdownStudy(
        freezes=freezes,
        shutdowns=shutdowns,
        lowbt_count=lowbt,
        maoff_count=maoff,
        first_boot_count=first_boots,
    )
