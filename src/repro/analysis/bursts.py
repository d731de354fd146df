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

from repro.analysis.ingest import Dataset
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
    """Figure 3: the distribution of cascade sizes."""

    bursts: List[Burst]
    gap: float

    @property
    def total_panics(self) -> int:
        return sum(b.size for b in self.bursts)

    def size_distribution(self) -> Dict[int, float]:
        """Burst size -> percentage of *panics* in bursts of that size."""
        total = self.total_panics
        if total == 0:
            return {}
        counts: Dict[int, int] = {}
        for burst in self.bursts:
            counts[burst.size] = counts.get(burst.size, 0) + burst.size
        return {size: 100.0 * n / total for size, n in sorted(counts.items())}

    @property
    def cascade_panic_percent(self) -> float:
        """Percent of panics arriving in cascades of >1 (paper: ~25%)."""
        total = self.total_panics
        if total == 0:
            return 0.0
        in_cascades = sum(b.size for b in self.bursts if b.size > 1)
        return 100.0 * in_cascades / total

    @property
    def max_burst_size(self) -> int:
        return max((b.size for b in self.bursts), default=0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of Figure 3."""
        return burst_sizes_summary([b.size for b in self.bursts], self.gap)


def burst_sizes_summary(sizes: List[int], gap: float) -> Dict[str, object]:
    """The Figure 3 snapshot from cascade sizes alone.

    Every figure in the section is a function of the multiset of burst
    sizes (counts and integer-ratio percentages, output sorted by
    size), so the streaming accumulator can carry just the sizes and
    fold them in any order.
    """
    total = sum(sizes)
    counts: Dict[int, int] = {}
    for size in sizes:
        counts[size] = counts.get(size, 0) + size
    in_cascades = sum(size for size in sizes if size > 1)
    return {
        "gap": gap,
        "burst_count": len(sizes),
        "total_panics": total,
        "cascade_panic_percent": (100.0 * in_cascades / total) if total else 0.0,
        "max_burst_size": max(sizes, default=0),
        "size_distribution": [
            [size, 100.0 * n / total] for size, n in sorted(counts.items())
        ],
    }


def phone_bursts(
    phone_id: str, ordered_panics: Sequence[PanicRecord], gap: float
) -> List[Burst]:
    """Group one phone's time-ordered panics into cascades — the
    per-phone core shared by the batch path and streaming extraction."""
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


def compute_bursts(dataset: Dataset, gap: float = DEFAULT_BURST_GAP) -> BurstStats:
    """Group each phone's panics into cascades."""
    if gap <= 0:
        raise ValueError(f"burst gap must be positive, got {gap}")
    bursts: List[Burst] = []
    for phone_id, log in sorted(dataset.logs.items()):
        ordered = sorted(log.panics, key=lambda p: p.time)
        bursts.extend(phone_bursts(phone_id, ordered, gap))
    bursts.sort(key=lambda b: b.start)
    return BurstStats(bursts=bursts, gap=gap)
