"""The full reproduction report: every §6 artifact in one place."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.activity import ACTIVITY_COLUMNS, ActivityTable
from repro.analysis.availability import AvailabilityStats
from repro.analysis.bursts import BurstStats
from repro.analysis.coalescence import DEFAULT_WINDOW, hl_events_from_study
from repro.analysis.hl_relationship import HlRelationship
from repro.analysis.ingest import Dataset
from repro.analysis.output_failures import OutputFailureStats
from repro.analysis.panics import PanicTable
from repro.analysis.runapps import RunningAppsStats
from repro.analysis.shutdowns import SELF_SHUTDOWN_THRESHOLD, ShutdownStudy
from repro.analysis.streaming import CampaignAccumulator
from repro.analysis.tables import render_table


@dataclass
class ReproductionReport:
    """Every analysis result for one campaign's per-phone partials."""

    #: The partials the sections came from (render_extended reads them).
    accumulator: CampaignAccumulator
    study: ShutdownStudy
    availability: AvailabilityStats
    panic_table: PanicTable
    bursts: BurstStats
    hl: HlRelationship
    activity: ActivityTable
    runapps: RunningAppsStats
    output_failures: OutputFailureStats

    @classmethod
    def from_accumulator(
        cls, accumulator: CampaignAccumulator
    ) -> "ReproductionReport":
        """The report of a campaign's merged partials (one finalize)."""
        sections = accumulator.finalize()
        return cls(
            accumulator=accumulator,
            study=sections["shutdowns"],
            availability=sections["availability"],
            panic_table=sections["panics"],
            bursts=sections["bursts"],
            hl=sections["hl"],
            activity=sections["activity"],
            runapps=sections["runapps"],
            output_failures=sections["output_failures"],
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data (JSON-native) snapshot of every section.

        This is the report's serialization layer: everything a
        downstream consumer (sweep runner, cache, benchmarks) needs,
        with no reference back to the dataset or the simulator.
        """
        return {
            "shutdowns": self.study.to_dict(),
            "availability": self.availability.to_dict(),
            "panics": self.panic_table.to_dict(),
            "bursts": self.bursts.to_dict(),
            "hl": self.hl.to_dict(),
            "activity": self.activity.to_dict(),
            "runapps": self.runapps.to_dict(),
            "output_failures": self.output_failures.to_dict(),
        }

    # -- rendering -------------------------------------------------------------

    def render_headline(self) -> str:
        a = self.availability
        s = self.study
        lines = [
            "Headline findings",
            "-----------------",
            f"phones observed:        {a.phone_count}",
            f"observed phone-hours:   {a.observed_hours_total:,.0f}",
            f"freezes:                {a.freeze_count}",
            f"self-shutdowns:         {a.self_shutdown_count} "
            f"({100 * s.self_shutdown_fraction():.1f}% of "
            f"{len(s.shutdowns)} shutdown events)",
            f"MTBFr:                  {a.mtbf_freeze_hours:.0f} h "
            f"(~{a.freeze_interval_days:.1f} days; paper: 313 h / ~13 days)",
            f"MTBS:                   {a.mtbf_self_shutdown_hours:.0f} h "
            f"(~{a.self_shutdown_interval_days:.1f} days; paper: 250 h / ~10 days)",
            f"a failure every:        {a.failure_interval_days:.1f} days "
            f"(paper: ~11 days)",
            f"KERN-EXEC 3 share:      {self.panic_table.access_violation_percent:.1f}% "
            f"(paper: 56%)",
            f"heap (E32USER-CBase):   {self.panic_table.heap_management_percent:.1f}% "
            f"(paper: 18%)",
            f"panics related to HL:   {self.hl.related_percent:.0f}% "
            f"(paper: 51%); with all shutdowns: "
            f"{self.hl.related_percent_all_shutdowns:.0f}% (paper: 55%)",
            f"panics in cascades:     {self.bursts.cascade_panic_percent:.0f}% "
            f"(paper: 25%)",
            f"real-time activity at panic: {self.activity.realtime_percent:.0f}% "
            f"(paper: ~45%)",
            f"modal apps at panic:    {self.runapps.modal_app_count} (paper: 1)",
        ]
        return "\n".join(lines)

    def render_table2(self) -> str:
        rows = [
            (
                row.panic_id.category,
                row.panic_id.ptype,
                row.count,
                f"{row.percent:.2f}",
            )
            for row in self.panic_table.rows
        ]
        return "Table 2: collected panic events\n" + render_table(
            ("Panic", "Type", "Count", "%"), rows
        )

    def render_figure2(self) -> str:
        edges = [0, 60, 120, 180, 240, 300, 360, 600, 3600, 18000, 30000, 45000, 90000]
        hist = self.study.duration_histogram(edges)
        rows = [(f"{lo:.0f}-{hi:.0f}s", count) for lo, hi, count in hist]
        extra = (
            f"\nself-shutdowns (<{SELF_SHUTDOWN_THRESHOLD:.0f}s): "
            f"{len(self.study.self_shutdowns())} "
            f"(median {self.study.median_self_shutdown_duration():.0f}s; "
            f"paper: 471, ~80s)\n"
            f"night-off mode: {self.study.night_mode_duration():.0f}s "
            f"(paper: ~30000s)"
        )
        return (
            "Figure 2: distribution of reboot durations\n"
            + render_table(("Duration bin", "Events"), rows)
            + extra
        )

    def render_figure3(self) -> str:
        rows = [
            (size, f"{pct:.1f}")
            for size, pct in self.bursts.size_distribution().items()
        ]
        return (
            "Figure 3: distribution of subsequent panics (cascade size)\n"
            + render_table(("Burst size", "% of panics"), rows)
        )

    def render_figure5(self) -> str:
        rows = [
            (
                row.category,
                row.total,
                f"{row.freeze_percent:.1f}",
                f"{row.self_shutdown_percent:.1f}",
                f"{100 - row.related_percent:.1f}",
            )
            for row in self.hl.rows
        ]
        return (
            "Figure 5: panics and high-level events, per category\n"
            + render_table(
                ("Category", "Panics", "% freeze", "% self-shutdown", "% isolated"),
                rows,
            )
        )

    def render_table3(self) -> str:
        categories = self.activity.categories()
        rows = []
        for activity in ACTIVITY_COLUMNS:
            row: List[object] = [activity]
            for category in categories:
                value = self.activity.cells.get((activity, category), 0.0)
                row.append(f"{value:.2f}" if value else ".")
            row.append(f"{self.activity.row_totals.get(activity, 0.0):.2f}")
            rows.append(tuple(row))
        headers = ("Activity", *categories, "All categ.")
        return "Table 3: panic-activity relationship (% of HL-related panics)\n" + render_table(
            headers, rows
        )

    def render_table4(self) -> str:
        apps = [app for app, _pct in self.runapps.top_apps(12)]
        rows = []
        for (category, outcome), cell in sorted(self.runapps.table.items()):
            row: List[object] = [f"{category} / {outcome}"]
            for app in apps:
                value = cell.get(app, 0.0)
                row.append(f"{value:.2f}" if value else ".")
            rows.append(tuple(row))
        totals_row: List[object] = ["Total"]
        for app in apps:
            totals_row.append(f"{self.runapps.app_totals.get(app, 0.0):.2f}")
        rows.append(tuple(totals_row))
        headers = ("Category / HL event", *apps)
        return (
            "Table 4: panic-running applications relationship (% of all panics)\n"
            + render_table(headers, rows)
        )

    def render_output_failures(self) -> str:
        stats = self.output_failures
        lines = [
            "Output-failure reports (Section 7 extension)",
            f"user reports collected:   {stats.report_count}",
            f"reported-failure interval: {stats.report_interval_days:.0f} days "
            "(lower bound; users under-report)",
            f"reports with a panic within +-{stats.window:.0f}s: "
            f"{100 * stats.panic_correlated_fraction:.1f}% "
            f"(chance {100 * stats.chance_fraction:.3f}%)",
        ]
        return "\n".join(lines)

    def render_figure6(self) -> str:
        rows = [
            (count, f"{pct:.1f}")
            for count, pct in self.runapps.count_distribution.items()
        ]
        return (
            "Figure 6: number of running applications at panic time\n"
            + render_table(("Apps running", "% of panics"), rows)
        )

    def render_extended(self) -> str:
        """The paper report plus the extension analyses (downtime,
        reliability modelling, fleet variability, temporal structure)."""
        from repro.analysis.downtime import compute_downtime
        from repro.analysis.reliability import compute_reliability
        from repro.analysis.trends import compute_trends
        from repro.analysis.variability import compute_variability

        sections = [self.render()]

        downtime = compute_downtime(
            self.study, self.availability.observed_hours_total
        )
        sections.append(
            "Downtime (extension)\n"
            + render_table(
                ("Class", "Count", "MTTR (min)", "Median (min)", "P90 (min)"),
                [
                    (
                        outage.kind,
                        outage.count,
                        f"{outage.mttr_seconds / 60:.1f}",
                        f"{outage.median_seconds / 60:.1f}",
                        f"{outage.p90_seconds / 60:.1f}",
                    )
                    for outage in (downtime.freeze, downtime.self_shutdown)
                ],
            )
            + f"\navailability: {100 * downtime.availability:.3f}% "
            f"({downtime.downtime_minutes_per_month:.0f} min down per month)"
        )

        reliability = compute_reliability(self.study)
        rel_rows = [
            (
                kind,
                stats.sample_size,
                f"{stats.mean_hours:.1f}",
                f"{stats.weibull_shape:.3f}" if stats.weibull else "n/a",
                stats.preferred_model,
            )
            for kind, stats in reliability.items()
        ]
        sections.append(
            "Inter-failure time modelling (extension)\n"
            + render_table(
                ("Kind", "n", "Mean (h)", "Weibull shape", "Preferred"), rel_rows
            )
        )

        variability = compute_variability(self.accumulator, self.study)
        sections.append(
            "Fleet variability (extension)\n"
            f"pooled rate: {variability.pooled_rate_per_khr:.2f}/1000h; "
            f"spread {variability.min_max_rate_ratio:.1f}x; "
            f"homogeneity chi2={variability.chi_square:.1f} "
            f"(dof {variability.degrees_of_freedom}, p={variability.p_value:.3f})"
        )

        events = hl_events_from_study(self.study)
        trends = compute_trends(self.accumulator, events)
        sections.append(
            "Temporal structure (extension)\n"
            f"waking-hours share: {trends.waking_share():.1f}% "
            f"(uniform 62.5%); peak hour {trends.peak_hour:02d}:00; "
            f"monthly drift {trends.trend_slope_per_month():+.2f}/1000h"
        )
        return "\n\n".join(sections)

    def render(self) -> str:
        """The complete text report."""
        sections = [
            self.render_headline(),
            self.render_figure2(),
            self.render_table2(),
            self.render_figure3(),
            self.render_figure5(),
            self.render_table3(),
            self.render_table4(),
            self.render_figure6(),
            self.render_output_failures(),
        ]
        return "\n\n".join(sections)


def build_report(
    dataset: Dataset, window: float = DEFAULT_WINDOW
) -> ReproductionReport:
    """Run the whole §6 pipeline on a dataset: the per-phone fold of
    :mod:`repro.analysis.streaming` plus its one finalize."""
    return ReproductionReport.from_accumulator(
        CampaignAccumulator.from_dataset(dataset, window=window)
    )
