"""Paper-vs-measured comparison tables.

Used by every benchmark to print the paper's value next to the
reproduction's, with the deviation.  Absolute agreement is not the
goal (our substrate is a simulator, not the authors' fleet); the
comparisons document that the *shape* holds — who dominates, by what
rough factor, where thresholds fall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.analysis.tables import render_table

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.experiments.summary import CampaignSummary


@dataclass(frozen=True)
class ComparisonRow:
    """One compared quantity."""

    name: str
    paper: float
    measured: float
    unit: str = ""

    @property
    def ratio(self) -> float:
        """measured / paper (inf when the paper value is 0)."""
        if self.paper == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.paper

    def within_factor(self, factor: float) -> bool:
        """Whether measured is within ``factor``x of the paper value."""
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        if self.paper == 0:
            return self.measured == 0
        return 1.0 / factor <= self.ratio <= factor


@dataclass
class Comparison:
    """A named collection of comparison rows."""

    title: str
    rows: List[ComparisonRow] = field(default_factory=list)

    def add(self, name: str, paper: float, measured: float, unit: str = "") -> None:
        self.rows.append(ComparisonRow(name, paper, measured, unit))

    def render(self) -> str:
        table_rows = [
            (
                row.name,
                f"{row.paper:g}{row.unit}",
                f"{row.measured:.2f}{row.unit}",
                f"{row.ratio:.2f}x",
            )
            for row in self.rows
        ]
        return f"{self.title}\n" + render_table(
            ("Quantity", "Paper", "Measured", "Ratio"), table_rows
        )

    def max_deviation_factor(self) -> float:
        """Largest |log-ratio| deviation, as a factor >= 1."""
        worst = 1.0
        for row in self.rows:
            ratio = row.ratio
            if ratio <= 0 or ratio == float("inf"):
                return float("inf")
            worst = max(worst, ratio, 1.0 / ratio)
        return worst

    def all_within_factor(self, factor: float) -> bool:
        return all(row.within_factor(factor) for row in self.rows)


def headline_comparison(summary: "CampaignSummary") -> Comparison:
    """Paper-vs-measured table for one campaign summary's headlines.

    Works from the serialized summary alone — no fleet, dataset, or
    report object needed — so sweep results (including resumed ones)
    can be compared long after the simulator is gone.
    """
    from repro.experiments import paper

    comparison = Comparison(f"Headline findings vs paper (seed {summary.seed})")
    availability = summary.availability
    comparison.add("MTBFr", paper.MTBF_FREEZE_HOURS,
                   availability["mtbf_freeze_hours"], unit="h")
    comparison.add("MTBS", paper.MTBS_HOURS,
                   availability["mtbf_self_shutdown_hours"], unit="h")
    comparison.add("failure interval", paper.FAILURE_INTERVAL_DAYS,
                   availability["failure_interval_days"], unit="d")
    comparison.add("KERN-EXEC 3 share", paper.ACCESS_VIOLATION_PERCENT,
                   summary.panics["access_violation_percent"], unit="%")
    comparison.add("heap (E32USER-CBase)", paper.HEAP_MANAGEMENT_PERCENT,
                   summary.panics["heap_management_percent"], unit="%")
    comparison.add("panics related to HL", paper.HL_RELATED_PERCENT,
                   summary.hl["related_percent"], unit="%")
    comparison.add("panics in cascades", paper.CASCADE_PANIC_PERCENT,
                   summary.bursts["cascade_panic_percent"], unit="%")
    comparison.add(
        "self-shutdown fraction",
        100.0 * paper.SELF_SHUTDOWN_FRACTION,
        100.0 * summary.shutdowns["self_shutdown_fraction"],
        unit="%",
    )
    return comparison
