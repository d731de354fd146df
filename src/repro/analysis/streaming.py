"""The report fold: one JSON-native partial per phone, merged, finalized.

Every §6 artifact is a sum over phones — panics coalesce with HL
events on their own phone, MTBF divides events by summed phone-hours,
bursts never cross phones — so the report is a fold.
:meth:`CampaignAccumulator.add_phone` reduces each phone's log to its
partial (classified boots, observation start, enrolment, record count,
burst sizes, user-report part and one row per panic — never raw
records), partials from any number of shards merge as a disjoint union
in any order, and one finalize pass (:meth:`CampaignAccumulator.finalize`)
builds the eight typed report sections; the extension analyses
(downtime, reliability, variability, trends) read the same partials.
:func:`~repro.analysis.report.build_report` is this fold over one
:class:`Dataset`; a sharded campaign folds each shard in its worker
and merges the partials, so both produce the same report,
**bit-identically**.

Each panic is one row ``[time, category, type, matched HL kind or
None, matched under all-shutdowns, activity, running apps]``: the
window matching, the activity lookup and the running-apps join all
ran against the phone's own records, so every section that reads
panics (Table 2, Figure 5, Table 3, Figure 6/Table 4) reads the same
row.  The activity is looked up only for a matched panic (Table 3
reads no other row; an unmatched row carries ``None``).

Merge order cannot change a bit, because finalize replays fixed
float-fold orders: phones in lexicographic id order, panics in the
global stable time sort of ``Dataset.all_panics``.  A phone appearing
in two partials is a double-count and raises
:class:`~repro.core.errors.AnalysisError`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.analysis.activity import ActivityTimeline, activity_table_from_pairs
from repro.analysis.availability import availability_from_observations
from repro.analysis.bursts import DEFAULT_BURST_GAP, BurstStats, phone_bursts
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
    assemble_study,
    classify_boots,
)
from repro.core.errors import AnalysisError
from repro.symbian.panics import PanicId

#: Version stamp of the accumulator wire format (committed shard files).
#: v3 added each phone's enrolment (``enroll``).
STREAMING_FORMAT_VERSION = 3

#: Figure 6 outcome of a panic, by the HL kind it coalesced with.
_OUTCOMES = {HL_FREEZE: OUTCOME_FREEZE, HL_SELF_SHUTDOWN: OUTCOME_SELF_SHUTDOWN}

#: The keys of one phone's partial (:meth:`CampaignAccumulator.add_phone`).
_PARTIAL_KEYS = frozenset(
    (
        "start_time", "enroll", "records", "freezes", "shutdowns", "lowbt",
        "maoff", "first_boots", "bursts", "report_kinds", "correlated",
        "covered_seconds", "panics",
    )
)


class CampaignAccumulator:
    """Per-phone partials plus the analysis knobs.

    The report's unit of work: ``build_report`` and each shard worker
    build one from their dataset (:meth:`from_dataset`), results merge
    pairwise in any order (:meth:`merge`), and :meth:`finalize` builds
    the report's typed sections (:meth:`sections` is their
    ``to_dict``).  The empty accumulator is the merge identity.
    """

    def __init__(
        self,
        end_time: float,
        window: float = DEFAULT_WINDOW,
        gap: float = DEFAULT_BURST_GAP,
        threshold: float = SELF_SHUTDOWN_THRESHOLD,
        phones: Optional[Dict[str, dict]] = None,
    ) -> None:
        for name, value in (
            ("end_time", end_time),
            ("window", window),
            ("burst gap", gap),
            ("threshold", threshold),
        ):
            if not (math.isfinite(value) and value > 0):
                raise AnalysisError(
                    f"{name} must be positive and finite, got {value}"
                )
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
        panics: List[list] = []
        if log.panics:
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
            # The joins are built only where a row reads them: the
            # activity timeline for a matched panic, the RUNAPP times
            # for a phone with panics.
            timeline = None
            runapp_times = [snap.time for snap in log.runapps]
            for panic in log.panics:
                nearest = matched_event(events, panic.time, self.window)
                activity = None
                if nearest is not None:
                    if timeline is None:
                        timeline = ActivityTimeline(log.activities)
                    activity = timeline.at(panic.time)
                panics.append(
                    [
                        panic.time,
                        panic.category,
                        panic.ptype,
                        nearest.kind if nearest is not None else None,
                        matched_event(events_all, panic.time, self.window)
                        is not None,
                        activity,
                        list(
                            running_apps_at(
                                log, panic.time, _times=runapp_times
                            )
                        ),
                    ]
                )
        ordered_panics = sorted(log.panics, key=lambda p: p.time)
        part = phone_report_part(log, self.end_time, self.window)
        enroll = log.enroll
        self.phones[phone_id] = {
            "start_time": log.start_time,
            "enroll": [enroll.os_version, enroll.region] if enroll else None,
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

    def ordered(self) -> List[tuple]:
        """``(phone_id, partial)`` in lexicographic phone-id order, which
        every finalize fold and extension analysis follows."""
        return sorted(self.phones.items())

    @property
    def phone_count(self) -> int:
        return len(self.phones)

    @property
    def record_count(self) -> int:
        """Parsed records across all phones (telemetry parity)."""
        return sum(partial["records"] for partial in self.phones.values())

    def finalize(self) -> Dict[str, object]:
        """The eight typed report sections, keyed like
        :meth:`~repro.analysis.report.ReproductionReport.to_dict`."""
        ordered = self.ordered()
        study = assemble_study(
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
                for phone_id, partial in ordered
            ]
        )
        observed = {
            phone_id: observation_hours(partial["start_time"], self.end_time)
            for phone_id, partial in ordered
        }
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
        parts = [
            PhoneReportPart(
                kinds=tuple(partial["report_kinds"]),
                correlated=partial["correlated"],
                hours=observed[phone_id],
                covered_seconds=partial["covered_seconds"],
            )
            for phone_id, partial in ordered
        ]
        return {
            "shutdowns": study,
            "availability": availability_from_observations(
                observed, study, self.threshold
            ),
            "panics": panic_table_from_counts(counts),
            "bursts": BurstStats(
                [size for _pid, partial in ordered for size in partial["bursts"]],
                self.gap,
            ),
            "hl": HlRelationship(
                window=self.window,
                rows=rows_from_outcomes(matched + isolated),
                related_percent=(
                    (100.0 * len(matched) / total) if total else 0.0
                ),
                related_percent_all_shutdowns=(
                    (100.0 * matched_all / total) if total else 0.0
                ),
            ),
            "activity": activity_table_from_pairs(
                [(row[5], row[1]) for row in rows if row[3] is not None]
            ),
            "runapps": runapps_stats_from_joins(
                [
                    (row[1], _OUTCOMES.get(row[3], OUTCOME_NONE), tuple(row[6]))
                    for row in rows
                ]
            ),
            "output_failures": stats_from_phone_parts(parts, self.window),
        }

    def sections(self) -> Dict[str, Dict[str, object]]:
        """The report's ``to_dict`` sections (:meth:`finalize`, as data)."""
        return {
            name: section.to_dict() for name, section in self.finalize().items()
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
            "phones": dict(self.ordered()),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignAccumulator":
        """Inverse of :meth:`to_dict`.

        Refuses a partial without exactly the keys :meth:`add_phone`
        writes, so a garbled key fails here, not later in the merge.
        """
        version = payload.get("format_version")
        if version != STREAMING_FORMAT_VERSION:
            raise AnalysisError(
                f"unsupported streaming format version {version!r} "
                f"(expected {STREAMING_FORMAT_VERSION})"
            )
        enrolments: Dict[tuple, list] = {}
        for phone_id, partial in payload["phones"].items():
            if not isinstance(partial, dict) or partial.keys() != _PARTIAL_KEYS:
                raise AnalysisError(f"malformed partial for phone {phone_id!r}")
            enroll = partial["enroll"]
            if enroll is not None:  # one list per distinct enrolment
                partial["enroll"] = enrolments.setdefault(tuple(enroll), enroll)
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
