"""Ingestion: collected log lines -> per-phone record streams.

The only way into the analysis.  A campaign hands over the collection
server's record streams (:meth:`Dataset.from_collector`); ``repro
analyze`` parses exported log files, the on-disk text contract
(:meth:`Dataset.from_lines`).  Text parsing is tolerant of the truncated
lines a battery pull can leave behind; both produce identical datasets
because writers quantize floats to wire precision at record
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import AnalysisError
from repro.core.records import (
    RECORD_TAGS,
    ActivityRecord,
    BootRecord,
    EnrollRecord,
    PanicRecord,
    PowerRecord,
    RunningAppsRecord,
    UserReportRecord,
)
from repro.logger.logfile import FIELD_SEPARATOR, parse_lines

#: Corruption classes an unparseable line is filed under.
CORRUPTION_UNKNOWN_TAG = "unknown-tag"
CORRUPTION_FIELD_COUNT = "field-count"
CORRUPTION_BAD_VALUE = "bad-value"

#: Quarantined example lines kept verbatim per report.
MAX_QUARANTINE_SAMPLES = 10


def classify_malformed(line: str, error: Exception) -> str:
    """File one unparseable line under a corruption class.

    ``unknown-tag`` — the tag itself is gone (garbled, or the line was
    cut before the first separator); ``field-count`` — a known tag with
    the wrong number of fields (the truncated-tail signature);
    ``bad-value`` — the right shape but an uninterpretable field (a
    garbled byte inside a value).
    """
    tag = line.strip().partition(FIELD_SEPARATOR)[0]
    if tag not in RECORD_TAGS:
        return CORRUPTION_UNKNOWN_TAG
    if "expects" in str(error):
        return CORRUPTION_FIELD_COUNT
    return CORRUPTION_BAD_VALUE


@dataclass
class IngestReport:
    """Structured account of every line the tolerant parser rejected.

    The parser has always *skipped* malformed lines (a battery pull
    truncates real logs); this report makes the skips visible — counts
    by corruption class and by phone, plus a few verbatim samples — so
    tolerance is never silent data loss.
    """

    quarantined: int = 0
    by_class: Dict[str, int] = field(default_factory=dict)
    by_phone: Dict[str, int] = field(default_factory=dict)
    samples: List[str] = field(default_factory=list)

    def quarantine(self, phone_id: str, line: str, error: Exception) -> None:
        """Record one rejected line."""
        self.quarantined += 1
        cls = classify_malformed(line, error)
        self.by_class[cls] = self.by_class.get(cls, 0) + 1
        self.by_phone[phone_id] = self.by_phone.get(phone_id, 0) + 1
        if len(self.samples) < MAX_QUARANTINE_SAMPLES:
            self.samples.append(line)

    @property
    def clean(self) -> bool:
        return self.quarantined == 0

    def merge(self, other: "IngestReport") -> "IngestReport":
        """Combine two quarantine accounts (e.g. from two shards).

        Counts add exactly — no line is ever dropped from the
        accounting — and samples keep the first
        :data:`MAX_QUARANTINE_SAMPLES` in merge order.
        """
        by_class = dict(self.by_class)
        for cls, count in other.by_class.items():
            by_class[cls] = by_class.get(cls, 0) + count
        by_phone = dict(self.by_phone)
        for phone_id, count in other.by_phone.items():
            by_phone[phone_id] = by_phone.get(phone_id, 0) + count
        return IngestReport(
            quarantined=self.quarantined + other.quarantined,
            by_class=by_class,
            by_phone=by_phone,
            samples=(self.samples + other.samples)[:MAX_QUARANTINE_SAMPLES],
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "quarantined": self.quarantined,
            "by_class": dict(sorted(self.by_class.items())),
            "by_phone": dict(sorted(self.by_phone.items())),
            "samples": list(self.samples),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "IngestReport":
        """Inverse of :meth:`to_dict` (shard results ride through JSON)."""
        return cls(
            quarantined=int(payload["quarantined"]),
            by_class=dict(payload["by_class"]),
            by_phone=dict(payload["by_phone"]),
            samples=list(payload["samples"]),
        )


def observation_hours(start_time: float, end_time: float) -> float:
    """Wall-clock observation hours between enrollment and campaign end.

    Shared by :meth:`PhoneLog.observed_hours` and the streaming
    accumulators (which carry only ``start_time`` per phone), so the
    two paths compute the identical float.
    """
    return max(end_time - start_time, 0.0) / 3600.0


@dataclass
class PhoneLog:
    """Parsed record streams of one phone, in log order."""

    phone_id: str
    enroll: Optional[EnrollRecord] = None
    boots: List[BootRecord] = field(default_factory=list)
    panics: List[PanicRecord] = field(default_factory=list)
    activities: List[ActivityRecord] = field(default_factory=list)
    runapps: List[RunningAppsRecord] = field(default_factory=list)
    power: List[PowerRecord] = field(default_factory=list)
    user_reports: List[UserReportRecord] = field(default_factory=list)

    @property
    def record_count(self) -> int:
        return (
            (1 if self.enroll else 0)
            + len(self.boots)
            + len(self.panics)
            + len(self.activities)
            + len(self.runapps)
            + len(self.power)
            + len(self.user_reports)
        )

    @property
    def start_time(self) -> float:
        """Best available enrollment time.

        The enroll record when it survived, else the first boot, else —
        corruption can eat both — the earliest timestamp anywhere in
        the log (a lower bound on observation).
        """
        if self.enroll is not None:
            return self.enroll.time
        if self.boots:
            return self.boots[0].time
        times = [
            record.time
            for stream in (
                self.panics,
                self.activities,
                self.runapps,
                self.power,
                self.user_reports,
            )
            for record in stream
        ]
        if times:
            return min(times)
        raise AnalysisError(f"phone {self.phone_id!r} has no timestamped records")

    def observed_hours(self, end_time: float) -> float:
        """Wall-clock observation hours, enrollment to campaign end."""
        return observation_hours(self.start_time, end_time)


class Dataset:
    """All phones' parsed logs plus the campaign observation window."""

    def __init__(
        self,
        logs: Dict[str, PhoneLog],
        end_time: float,
        ingest_report: Optional[IngestReport] = None,
    ) -> None:
        if end_time <= 0:
            raise AnalysisError(f"end_time must be positive, got {end_time}")
        self.logs = logs
        self.end_time = end_time
        #: Quarantine accounting from ingestion (empty when the input
        #: parsed cleanly or records arrived pre-parsed).
        self.ingest_report = (
            ingest_report if ingest_report is not None else IngestReport()
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_lines(
        cls,
        lines_by_phone: Mapping[str, Iterable[str]],
        end_time: Optional[float] = None,
    ) -> "Dataset":
        """Parse raw collected lines.

        ``end_time`` defaults to the latest record timestamp seen
        anywhere (a lower bound on the campaign end).  Lines the
        tolerant parser rejects are quarantined into the dataset's
        :class:`IngestReport`, never silently dropped.
        """
        report = IngestReport()

        def hook(phone_id: str):
            return lambda line, exc: report.quarantine(phone_id, line, exc)

        return cls.from_records(
            {
                phone_id: parse_lines(lines, on_error=hook(phone_id))
                for phone_id, lines in lines_by_phone.items()
            },
            end_time=end_time,
            ingest_report=report,
        )

    @classmethod
    def from_records(
        cls,
        records_by_phone: Mapping[str, Iterable],
        end_time: Optional[float] = None,
        ingest_report: Optional[IngestReport] = None,
    ) -> "Dataset":
        """Ingest already-parsed record streams."""
        logs: Dict[str, PhoneLog] = {}
        # When end_time is known up front, skip tracking the latest
        # timestamp — at paper scale that is millions of comparisons.
        track_latest = end_time is None
        latest = 0.0
        for phone_id in sorted(records_by_phone):
            log = PhoneLog(phone_id)

            def set_enroll(record, log=log):
                log.enroll = record

            sinks = {
                BootRecord: log.boots.append,
                PanicRecord: log.panics.append,
                ActivityRecord: log.activities.append,
                RunningAppsRecord: log.runapps.append,
                PowerRecord: log.power.append,
                UserReportRecord: log.user_reports.append,
                EnrollRecord: set_enroll,
            }

            def resolve_sink(record_type, sinks=sinks, phone_id=phone_id):
                # Exact-type dispatch missed: the record is a subclass
                # of one of the stream types.  Resolve it explicitly by
                # walking the MRO to the nearest registered base and
                # cache the resolution so each subclass pays once.
                for base in record_type.__mro__[1:]:
                    sink = sinks.get(base)
                    if sink is not None:
                        sinks[record_type] = sink
                        return sink
                raise AnalysisError(
                    f"phone {phone_id!r}: unknown record type "
                    f"{record_type.__name__!r} (not a subclass of any "
                    "ingestible record)"
                )

            get_sink = sinks.get
            for record in records_by_phone[phone_id]:
                if track_latest and record.time > latest:
                    latest = record.time
                sink = get_sink(type(record))
                if sink is None:
                    sink = resolve_sink(type(record))
                sink(record)
            if log.record_count:
                logs[phone_id] = log
        if not logs:
            raise AnalysisError("dataset contains no parseable records")
        return cls(
            logs,
            end_time if end_time is not None else latest,
            ingest_report=ingest_report,
        )

    @classmethod
    def from_collector(
        cls,
        collector,
        end_time: Optional[float] = None,
    ) -> "Dataset":
        """Ingest straight from a :class:`CollectionServer`'s records.

        Equal to :meth:`from_lines` over the collector's serialized
        lines, quarantine accounting for corrupted entries included
        (``tests/test_pipeline_equivalence.py`` pins this), without the
        serialize→reparse round trip.
        """
        report = IngestReport()
        return cls.from_records(
            collector.record_dataset(on_error=report.quarantine),
            end_time=end_time,
            ingest_report=report,
        )

    # -- convenience views ----------------------------------------------------------

    @property
    def phone_count(self) -> int:
        return len(self.logs)

    def phone_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self.logs))

    def all_panics(self) -> List[Tuple[str, PanicRecord]]:
        """Every panic with its phone id, ordered by time."""
        out = [
            (phone_id, panic)
            for phone_id, log in self.logs.items()
            for panic in log.panics
        ]
        out.sort(key=lambda item: item[1].time)
        return out

    @property
    def total_panics(self) -> int:
        return sum(len(log.panics) for log in self.logs.values())

    def total_observed_hours(self) -> float:
        return sum(log.observed_hours(self.end_time) for log in self.logs.values())

    def __repr__(self) -> str:
        return (
            f"Dataset(phones={self.phone_count}, panics={self.total_panics}, "
            f"end={self.end_time:.0f}s)"
        )
