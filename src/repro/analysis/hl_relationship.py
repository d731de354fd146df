"""Panics vs high-level events — Figure 5.

5a: for every panic category, the split between panics that coalesce
with a freeze, with a self-shutdown, and isolated panics.  The paper's
observations this module recovers:

* more than half (51%) of panics relate to an HL event;
* application panics (EIKON-LISTBOX, EIKCOCTL, MMFAudioClient) and
  KERN-SVR never manifest as HL events — good OS resilience;
* Phone.app and MSGS Client panics *always* cause a self-shutdown (the
  kernel reboots when a core application dies);
* system panics (KERN-EXEC, E32USER-CBase, USER, ViewSrv) usually lead
  to an HL event, with heap/USER/ViewSrv symptomatic of freezes and
  KERN-EXEC 3 triggering both.

5b details the same split per (category, HL kind).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.coalescence import HL_FREEZE


@dataclass
class CategoryHlRow:
    """Figure 5 data for one panic category."""

    category: str
    total: int
    freeze_related: int
    self_shutdown_related: int
    isolated: int

    @property
    def related(self) -> int:
        return self.freeze_related + self.self_shutdown_related

    @property
    def related_percent(self) -> float:
        return 100.0 * self.related / self.total if self.total else 0.0

    @property
    def freeze_percent(self) -> float:
        return 100.0 * self.freeze_related / self.total if self.total else 0.0

    @property
    def self_shutdown_percent(self) -> float:
        return (
            100.0 * self.self_shutdown_related / self.total if self.total else 0.0
        )


@dataclass
class HlRelationship:
    """The full Figure 5 result."""

    window: float
    rows: List[CategoryHlRow]
    related_percent: float
    #: Robustness check: related percent when *all* shutdown events
    #: (including user shutdowns) count as HL events (paper: 55%).
    related_percent_all_shutdowns: float

    def row(self, category: str) -> Optional[CategoryHlRow]:
        for row in self.rows:
            if row.category == category:
                return row
        return None

    def never_hl_categories(self) -> Tuple[str, ...]:
        """Categories whose panics never coalesced with an HL event."""
        return tuple(
            row.category for row in self.rows if row.total > 0 and row.related == 0
        )

    def always_self_shutdown_categories(self) -> Tuple[str, ...]:
        """Categories that always led to a self-shutdown."""
        return tuple(
            row.category
            for row in self.rows
            if row.total > 0 and row.self_shutdown_related == row.total
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of Figure 5."""
        return {
            "window": self.window,
            "related_percent": self.related_percent,
            "related_percent_all_shutdowns": self.related_percent_all_shutdowns,
            "rows": [
                {
                    "category": row.category,
                    "total": row.total,
                    "freeze_related": row.freeze_related,
                    "self_shutdown_related": row.self_shutdown_related,
                    "isolated": row.isolated,
                }
                for row in self.rows
            ],
            "never_hl_categories": list(self.never_hl_categories()),
            "always_self_shutdown_categories": list(
                self.always_self_shutdown_categories()
            ),
        }


def rows_from_outcomes(
    outcomes: Sequence[Tuple[str, Optional[str]]],
) -> List[CategoryHlRow]:
    """Figure 5 rows from (category, matched HL kind or ``None``) pairs.

    Pass all matched panics first (in global panic-time order) and then
    the isolated ones: the sort on total is stable, so row order for
    tied totals follows first appearance in exactly that sequence.
    """
    per_category: Dict[str, CategoryHlRow] = {}

    def row_for(category: str) -> CategoryHlRow:
        if category not in per_category:
            per_category[category] = CategoryHlRow(category, 0, 0, 0, 0)
        return per_category[category]

    for category, kind in outcomes:
        row = row_for(category)
        row.total += 1
        if kind is None:
            row.isolated += 1
        elif kind == HL_FREEZE:
            row.freeze_related += 1
        else:
            # HL_SELF_SHUTDOWN, and user-shutdown matches from the
            # robustness variant; count the latter as
            # self-shutdown-side for the split.
            row.self_shutdown_related += 1
    return sorted(per_category.values(), key=lambda r: -r.total)
