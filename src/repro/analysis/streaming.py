"""Mergeable streaming accumulator — constant-memory shard analysis.

The batch pipeline (:func:`repro.analysis.report.build_report`)
materialises every phone's parsed log in one :class:`Dataset` before
aggregating, so a single process pays O(fleet records) memory.  The
paper's analysis is a per-phone fold, so this module keeps **one
JSON-native partial per phone**: a shard worker reduces each phone's
log to its partial (classified boots, observation start, record
count, burst sizes, user-report part and one row per panic — never
raw records), partials from any number of shards merge as a disjoint
union in any order, and one finalize pass (:meth:`sections`)
reproduces the monolithic report section by section,
**bit-identically**.

Each panic is one row ``[time, category, type, matched HL kind or
None, matched under all-shutdowns, activity, running apps]``: the
window matching, the activity lookup and the running-apps join all
ran in the worker against the phone's own records, so every section
that reads panics (Table 2, Figure 5, Table 3, Figure 6/Table 4)
reads the same row.

Bit-identity holds by construction, not by luck: finalize goes
through the same aggregation cores the batch path uses
(:func:`~repro.analysis.shutdowns.assemble_study`,
:func:`~repro.analysis.availability.availability_from_observations`,
:func:`~repro.analysis.panics.panic_table_from_counts`,
:func:`~repro.analysis.bursts.burst_sizes_summary`,
:func:`~repro.analysis.hl_relationship.rows_from_outcomes`,
:func:`~repro.analysis.activity.activity_table_from_pairs`,
:func:`~repro.analysis.runapps.runapps_stats_from_joins`,
:func:`~repro.analysis.output_failures.stats_from_phone_parts`) and
replays the batch path's float-fold orders exactly: phones in
lexicographic id order, panics in the global stable time sort of
``Dataset.all_panics``.  A phone appearing in two partials is a
double-count and raises :class:`~repro.core.errors.AnalysisError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.activity import (
    activity_at,
    activity_intervals,
    activity_table_from_pairs,
)
from repro.analysis.availability import (
    AvailabilityStats,
    availability_from_observations,
)
from repro.analysis.bursts import (
    DEFAULT_BURST_GAP,
    burst_sizes_summary,
    phone_bursts,
)
from repro.analysis.coalescence import (
    DEFAULT_WINDOW,
    HL_FREEZE,
    HL_SELF_SHUTDOWN,
    matched_event,
    phone_hl_events,
)
from repro.analysis.hl_relationship import HlRelationship, rows_from_outcomes
from repro.analysis.ingest import Dataset, PhoneLog, observation_hours
from repro.analysis.output_failures import (
    PhoneReportPart,
    phone_report_part,
    stats_from_phone_parts,
)
from repro.analysis.panics import panic_table_from_counts
from repro.analysis.runapps import (
    OUTCOME_FREEZE,
    OUTCOME_NONE,
    OUTCOME_SELF_SHUTDOWN,
    running_apps_at,
    runapps_stats_from_joins,
)
from repro.analysis.shutdowns import (
    SELF_SHUTDOWN_THRESHOLD,
    FreezeEvent,
    PhoneBootClassification,
    ShutdownEvent,
    ShutdownStudy,
    assemble_study,
    classify_boots,
)
from repro.core.errors import AnalysisError
from repro.symbian.panics import PanicId

#: Version stamp of the accumulator wire format (shard cache entries).
STREAMING_FORMAT_VERSION = 2

#: Figure 6 outcome of a panic, by the HL kind it coalesced with.
_OUTCOMES = {HL_FREEZE: OUTCOME_FREEZE, HL_SELF_SHUTDOWN: OUTCOME_SELF_SHUTDOWN}


class CampaignAccumulator:
    """Per-phone partials plus the analysis knobs.

    The shard-campaign unit of work: workers build one from their slice
    of the fleet (:meth:`from_dataset`), results merge pairwise in any
    order (:meth:`merge`), and :meth:`sections` finalizes into the
    exact dict :meth:`ReproductionReport.to_dict` produces for the
    monolithic dataset.  The empty accumulator is the merge identity.
    """

    def __init__(
        self,
        end_time: float,
        window: float = DEFAULT_WINDOW,
        gap: float = DEFAULT_BURST_GAP,
        threshold: float = SELF_SHUTDOWN_THRESHOLD,
        phones: Optional[Dict[str, dict]] = None,
    ) -> None:
        if end_time <= 0:
            raise AnalysisError(f"end_time must be positive, got {end_time}")
        if window <= 0:
            raise AnalysisError(f"window must be positive, got {window}")
        if gap <= 0:
            raise AnalysisError(f"burst gap must be positive, got {gap}")
        self.end_time = end_time
        self.window = window
        self.gap = gap
        self.threshold = threshold
        self.phones: Dict[str, dict] = dict(phones) if phones else {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_dataset(
        cls,
        dataset: Dataset,
        window: float = DEFAULT_WINDOW,
        gap: float = DEFAULT_BURST_GAP,
        threshold: float = SELF_SHUTDOWN_THRESHOLD,
    ) -> "CampaignAccumulator":
        """Reduce a (shard) dataset to its streaming partials."""
        acc = cls(
            end_time=dataset.end_time,
            window=window,
            gap=gap,
            threshold=threshold,
        )
        for phone_id, log in dataset.logs.items():
            acc.add_phone(phone_id, log)
        return acc

    def add_phone(self, phone_id: str, log: PhoneLog) -> None:
        """Fold one phone's parsed log into its partial.

        This is the constant-memory step: everything the merge needs —
        classified boots, per-panic joins, report parts — is derived
        here and the raw records can be dropped afterwards.
        """
        if phone_id in self.phones:
            raise AnalysisError(
                f"phone {phone_id!r} already accumulated (double-count)"
            )
        boots = classify_boots(phone_id, log.boots)
        events = phone_hl_events(
            phone_id, boots.freezes, boots.shutdowns, self.threshold
        )
        events_all = phone_hl_events(
            phone_id,
            boots.freezes,
            boots.shutdowns,
            self.threshold,
            include_user_shutdowns=True,
        )
        intervals = activity_intervals(log)
        runapp_times = [snap.time for snap in log.runapps]
        panics: List[list] = []
        for panic in log.panics:
            nearest = matched_event(events, panic.time, self.window)
            panics.append(
                [
                    panic.time,
                    panic.category,
                    panic.ptype,
                    nearest.kind if nearest is not None else None,
                    matched_event(events_all, panic.time, self.window)
                    is not None,
                    activity_at(intervals, panic.time),
                    list(running_apps_at(log, panic.time, _times=runapp_times)),
                ]
            )
        ordered_panics = sorted(log.panics, key=lambda p: p.time)
        part = phone_report_part(log, self.end_time, self.window)
        self.phones[phone_id] = {
            "start_time": log.start_time,
            "records": log.record_count,
            "freezes": [
                [freeze.detected_at, freeze.last_alive]
                for freeze in boots.freezes
            ],
            "shutdowns": [
                [shutdown.at, shutdown.boot_time] for shutdown in boots.shutdowns
            ],
            "lowbt": boots.lowbt_count,
            "maoff": boots.maoff_count,
            "first_boots": boots.first_boot_count,
            "bursts": [
                burst.size
                for burst in phone_bursts(phone_id, ordered_panics, self.gap)
            ],
            "report_kinds": list(part.kinds),
            "correlated": part.correlated,
            "covered_seconds": part.covered_seconds,
            "panics": panics,
        }

    # -- merge -------------------------------------------------------------------

    def merge(self, other: "CampaignAccumulator") -> "CampaignAccumulator":
        """Disjoint union of two partials (any order, any grouping)."""
        for knob in ("end_time", "window", "gap", "threshold"):
            mine, theirs = getattr(self, knob), getattr(other, knob)
            if mine != theirs:
                raise AnalysisError(
                    f"cannot merge accumulators with different {knob}: "
                    f"{mine!r} != {theirs!r}"
                )
        overlap = self.phones.keys() & other.phones.keys()
        if overlap:
            raise AnalysisError(
                f"merge would double-count phones {sorted(overlap)[:5]!r}"
            )
        return CampaignAccumulator(
            end_time=self.end_time,
            window=self.window,
            gap=self.gap,
            threshold=self.threshold,
            phones={**self.phones, **other.phones},
        )

    # -- finalize ----------------------------------------------------------------

    def _ordered(self) -> List[tuple]:
        """``(phone_id, partial)`` in lexicographic phone-id order — the
        dataset's iteration order, which every finalize fold follows."""
        return sorted(self.phones.items())

    @property
    def phone_count(self) -> int:
        return len(self.phones)

    @property
    def record_count(self) -> int:
        """Parsed records across all phones (telemetry parity)."""
        return sum(partial["records"] for partial in self.phones.values())

    def study(self) -> ShutdownStudy:
        """Rebuild the :class:`ShutdownStudy` the batch path computes."""
        return assemble_study(
            [
                PhoneBootClassification(
                    phone_id=phone_id,
                    freezes=tuple(
                        FreezeEvent(phone_id, detected_at, last_alive)
                        for detected_at, last_alive in partial["freezes"]
                    ),
                    shutdowns=tuple(
                        ShutdownEvent(phone_id, at, boot_time)
                        for at, boot_time in partial["shutdowns"]
                    ),
                    lowbt_count=partial["lowbt"],
                    maoff_count=partial["maoff"],
                    first_boot_count=partial["first_boots"],
                )
                for phone_id, partial in self._ordered()
            ]
        )

    def availability(self, study: Optional[ShutdownStudy] = None) -> AvailabilityStats:
        if study is None:
            study = self.study()
        observed = {
            phone_id: observation_hours(partial["start_time"], self.end_time)
            for phone_id, partial in self._ordered()
        }
        return availability_from_observations(observed, study, self.threshold)

    def sections(self) -> Dict[str, Dict[str, object]]:
        """Finalize into the batch report's ``to_dict`` sections."""
        ordered = self._ordered()
        study = self.study()
        # The global stable time sort ``Dataset.all_panics`` uses:
        # phones lexicographically, then a stable sort on time.
        rows = [row for _pid, partial in ordered for row in partial["panics"]]
        rows.sort(key=lambda row: row[0])

        counts: Dict[PanicId, int] = {}
        for row in rows:
            pid = PanicId(row[1], row[2])
            counts[pid] = counts.get(pid, 0) + 1
        matched = [(row[1], row[3]) for row in rows if row[3] is not None]
        isolated = [(row[1], None) for row in rows if row[3] is None]
        matched_all = sum(1 for row in rows if row[4])
        total = len(rows)
        hl = HlRelationship(
            window=self.window,
            rows=rows_from_outcomes(matched + isolated),
            related_percent=(100.0 * len(matched) / total) if total else 0.0,
            related_percent_all_shutdowns=(
                (100.0 * matched_all / total) if total else 0.0
            ),
        )
        parts = [
            PhoneReportPart(
                kinds=tuple(partial["report_kinds"]),
                correlated=partial["correlated"],
                hours=observation_hours(partial["start_time"], self.end_time),
                covered_seconds=partial["covered_seconds"],
            )
            for _pid, partial in ordered
        ]
        return {
            "shutdowns": study.to_dict(),
            "availability": self.availability(study).to_dict(),
            "panics": panic_table_from_counts(counts).to_dict(),
            "bursts": burst_sizes_summary(
                [size for _pid, partial in ordered for size in partial["bursts"]],
                self.gap,
            ),
            "hl": hl.to_dict(),
            "activity": activity_table_from_pairs(
                [(row[5], row[1]) for row in rows if row[3] is not None]
            ).to_dict(),
            "runapps": runapps_stats_from_joins(
                [
                    (row[1], _OUTCOMES.get(row[3], OUTCOME_NONE), tuple(row[6]))
                    for row in rows
                ]
            ).to_dict(),
            "output_failures": stats_from_phone_parts(parts, self.window).to_dict(),
        }

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-native snapshot (the shard wire format)."""
        return {
            "format_version": STREAMING_FORMAT_VERSION,
            "end_time": self.end_time,
            "window": self.window,
            "gap": self.gap,
            "threshold": self.threshold,
            "phones": dict(self._ordered()),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignAccumulator":
        """Inverse of :meth:`to_dict`."""
        version = payload.get("format_version")
        if version != STREAMING_FORMAT_VERSION:
            raise AnalysisError(
                f"unsupported streaming format version {version!r} "
                f"(expected {STREAMING_FORMAT_VERSION})"
            )
        return cls(
            end_time=payload["end_time"],
            window=payload["window"],
            gap=payload["gap"],
            threshold=payload["threshold"],
            phones=payload["phones"],
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.end_time == other.end_time
            and self.window == other.window
            and self.gap == other.gap
            and self.threshold == other.threshold
            and self.phones == other.phones
        )

    def __repr__(self) -> str:
        return (
            f"CampaignAccumulator(phones={self.phone_count}, "
            f"end_time={self.end_time:.0f}s, window={self.window:.0f}s)"
        )
