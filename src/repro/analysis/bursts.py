"""Panic bursts — Figure 3.

"In many cases (25%), a cascade of more than one panic event is
recorded in the logs ... multiple panic events in a short succession
indicate error propagation within the operating system."

A burst is a maximal run of same-phone panics whose consecutive gaps
do not exceed ``gap``.  Figure 3 plots the percentage of panics that
belong to bursts of each size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.records import PanicRecord

#: Default maximal intra-burst gap (seconds).  Cascades in the field
#: arrive within seconds of each other; anything minutes apart is a
#: separate activation.
DEFAULT_BURST_GAP = 120.0


@dataclass(frozen=True)
class Burst:
    """One cascade of panics on one phone."""

    phone_id: str
    panics: Tuple[PanicRecord, ...]

    @property
    def size(self) -> int:
        return len(self.panics)

    @property
    def start(self) -> float:
        return self.panics[0].time

    @property
    def end(self) -> float:
        return self.panics[-1].time

    @property
    def first_category(self) -> str:
        return self.panics[0].category


@dataclass
class BurstStats:
    """Figure 3: the distribution of cascade sizes.

    Every figure in the section is a function of the multiset of burst
    sizes (counts and integer-ratio percentages, output sorted by
    size), so the per-phone fold carries just the sizes, in any order.
    """

    sizes: List[int]
    gap: float

    @property
    def total_panics(self) -> int:
        return sum(self.sizes)

    def size_distribution(self) -> Dict[int, float]:
        """Burst size -> percentage of *panics* in bursts of that size."""
        total = self.total_panics
        counts: Dict[int, int] = {}
        for size in self.sizes:
            counts[size] = counts.get(size, 0) + size
        return {size: 100.0 * n / total for size, n in sorted(counts.items())}

    @property
    def cascade_panic_percent(self) -> float:
        """Percent of panics arriving in cascades of >1 (paper: ~25%)."""
        total = self.total_panics
        if total == 0:
            return 0.0
        in_cascades = sum(size for size in self.sizes if size > 1)
        return 100.0 * in_cascades / total

    @property
    def max_burst_size(self) -> int:
        return max(self.sizes, default=0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of Figure 3."""
        return {
            "gap": self.gap,
            "burst_count": len(self.sizes),
            "total_panics": self.total_panics,
            "cascade_panic_percent": self.cascade_panic_percent,
            "max_burst_size": self.max_burst_size,
            "size_distribution": [
                [size, percent]
                for size, percent in self.size_distribution().items()
            ],
        }


def phone_bursts(
    phone_id: str, ordered_panics: Sequence[PanicRecord], gap: float
) -> List[Burst]:
    """Group one phone's time-ordered panics into cascades."""
    bursts: List[Burst] = []
    current: List[PanicRecord] = []
    for panic in ordered_panics:
        if current and panic.time - current[-1].time > gap:
            bursts.append(Burst(phone_id, tuple(current)))
            current = []
        current.append(panic)
    if current:
        bursts.append(Burst(phone_id, tuple(current)))
    return bursts

