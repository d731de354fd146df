"""Panic classification — Table 2.

Counts every captured panic by (category, type), attaches the Symbian
documentation text from the registry, and reports relative frequencies,
plus the two aggregates the paper headlines: memory access violations
(KERN-EXEC 3, 56%) and heap management problems (the E32USER-CBase
category, ~18%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.symbian.panics import (
    E32USER_CBASE,
    KERN_EXEC,
    PanicId,
    describe_panic,
)


@dataclass(frozen=True)
class PanicRow:
    """One Table 2 row."""

    panic_id: PanicId
    count: int
    percent: float
    meaning: str


@dataclass
class PanicTable:
    """Table 2: panic frequencies by category and type."""

    rows: List[PanicRow]
    total: int

    def percent_of(self, category: str, ptype: int = None) -> float:
        """Summed percentage of a category (or one exact panic type)."""
        total = 0.0
        for row in self.rows:
            if row.panic_id.category != category:
                continue
            if ptype is not None and row.panic_id.ptype != ptype:
                continue
            total += row.percent
        return total

    @property
    def access_violation_percent(self) -> float:
        """KERN-EXEC 3 share — the paper's 56% headline."""
        return self.percent_of(KERN_EXEC, 3)

    @property
    def heap_management_percent(self) -> float:
        """E32USER-CBase share — the paper's 18% headline."""
        return self.percent_of(E32USER_CBASE)

    def category_totals(self) -> Dict[str, float]:
        """Category -> summed percent, descending."""
        totals: Dict[str, float] = {}
        for row in self.rows:
            key = row.panic_id.category
            totals[key] = totals.get(key, 0.0) + row.percent
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of Table 2 (rows keep their order)."""
        return {
            "total": self.total,
            "access_violation_percent": self.access_violation_percent,
            "heap_management_percent": self.heap_management_percent,
            "rows": [
                {
                    "category": row.panic_id.category,
                    "ptype": row.panic_id.ptype,
                    "count": row.count,
                    "percent": row.percent,
                }
                for row in self.rows
            ],
        }


def panic_table_from_counts(counts: Dict[PanicId, int]) -> PanicTable:
    """Assemble Table 2 from (category, type) counts.

    The row sort key is a total order over (category total, category,
    count, type), so any insertion order of ``counts`` produces the
    same table.
    """
    total = sum(counts.values())
    rows = [
        PanicRow(
            panic_id=pid,
            count=count,
            percent=(100.0 * count / total) if total else 0.0,
            meaning=describe_panic(pid),
        )
        for pid, count in counts.items()
    ]
    # Category blocks ordered by total frequency, types within by
    # frequency — the shape of the paper's table.
    category_totals: Dict[str, int] = {}
    for pid, count in counts.items():
        category_totals[pid.category] = category_totals.get(pid.category, 0) + count
    rows.sort(
        key=lambda row: (
            -category_totals[row.panic_id.category],
            row.panic_id.category,
            -row.count,
            row.panic_id.ptype,
        )
    )
    return PanicTable(rows=rows, total=total)
