"""Log file format: serialization and tolerant parsing.

One record per line: ``TAG|field|field|...``.  The format is the
contract between the on-phone logger and the offline analysis; the
parser is corruption-tolerant because a battery pull can truncate the
final line of a real log file.

:class:`LogStorage` keeps what the logger wrote as *entries*: record
objects for the common append path, raw strings for injected or
truncated lines.  Text is materialized on demand (``lines()``), so the
structured analysis fast path can consume the record objects directly
— skipping the serialize→reparse round trip entirely — while the text
format remains the on-disk contract for exports and corruption
modelling.  Writers quantize float fields to wire precision at record
construction (:func:`repro.core.records.wire_time`), which makes a
stored record equal to its own text round trip.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.errors import LogFormatError
from repro.core.records import (
    FROM_FIELDS,
    RunningAppsRecord,
    record_from_fields,
    unknown_tag_error,
)

FIELD_SEPARATOR = "|"

#: A stored log entry: a record object, or a raw line (corruption).
LogEntry = Union[object, str]


def serialize_record(record) -> str:
    """Render a record as one log line.

    Raises:
        LogFormatError: if any field contains the separator or a
            newline (the writer refuses to produce unparseable output).
    """
    fields = record.to_fields()
    for field in fields:
        if FIELD_SEPARATOR in field or "\n" in field or "\r" in field:
            raise LogFormatError(
                f"field {field!r} of {record.TAG} contains a reserved character"
            )
    return FIELD_SEPARATOR.join([record.TAG, *fields])


def serialize_entry(entry: LogEntry) -> str:
    """Render one stored entry as its log line (raw lines pass through)."""
    if isinstance(entry, str):
        return entry
    return serialize_record(entry)


def _check_decodable(line: str) -> None:
    """Reject a line holding bytes that did not decode as UTF-8.

    :func:`repro.logger.transfer.load_lines_from_dir` keeps such bytes
    as lone surrogates (``surrogateescape``), which no valid text
    contains.  Callers skip ASCII lines (``str.isascii`` is O(1)).
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise LogFormatError("undecodable bytes in log line") from exc


def parse_line(line: str):
    """Parse one log line back into its record.

    The per-line reference for :func:`parse_lines`, and the decoder of
    the raw entries in :func:`entries_to_records`.

    Raises:
        LogFormatError: on empty lines, undecodable bytes, unknown
            tags, or bad fields.
    """
    line = line.strip()
    if not line:
        raise LogFormatError("empty log line")
    if not line.isascii():
        _check_decodable(line)
    tag, _, rest = line.partition(FIELD_SEPARATOR)
    fields = rest.split(FIELD_SEPARATOR) if rest else []
    return record_from_fields(tag, fields)


#: Observer for lines the tolerant parser cannot interpret.
MalformedLineHook = Callable[[str, LogFormatError], None]


def parse_lines(
    lines: Iterable[str],
    strict: bool = False,
    on_error: Optional[MalformedLineHook] = None,
) -> Iterator:
    """Parse many lines, yielding records.

    In tolerant mode (default) malformed lines are skipped — a real log
    can end in a line truncated by power loss.  In strict mode the
    first malformed line raises :class:`LogFormatError`.  ``on_error``
    observes every skipped line (quarantine accounting) so tolerance
    never means silent data loss.

    This is :func:`parse_line` unrolled into one loop (``repro
    analyze`` spends most of its time here): one strip, partition and
    split per line, then the tag's ``from_fields`` from the shared
    table, so records and error messages are the same.  RUNAPP apps
    fields are decoded through a memo that lives for this call only.
    """
    from_fields_of = FROM_FIELDS.get
    runapp = FROM_FIELDS[RunningAppsRecord.TAG]
    apps_memo: Dict[str, Tuple[str, ...]] = {}
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        tag, _, rest = line.partition(FIELD_SEPARATOR)
        fields = rest.split(FIELD_SEPARATOR) if rest else []
        from_fields = from_fields_of(tag)
        try:
            if not line.isascii():
                _check_decodable(line)
            if from_fields is runapp:
                record = runapp(fields, apps_memo)
            elif from_fields is None:
                raise unknown_tag_error(tag)
            else:
                record = from_fields(fields)
        except LogFormatError as exc:
            if strict:
                raise
            if on_error is not None:
                on_error(raw, exc)
            continue
        yield record


def entries_to_records(
    entries: Iterable[LogEntry],
    strict: bool = False,
    on_error: Optional[MalformedLineHook] = None,
) -> Iterator:
    """Yield records from stored entries.

    Record entries pass through untouched (the structured fast path);
    raw string entries go through the tolerant/strict parser exactly
    like lines read back from disk, with the same ``on_error``
    quarantine hook as :func:`parse_lines`.
    """
    for entry in entries:
        if isinstance(entry, str):
            if not entry.strip():
                continue
            try:
                yield parse_line(entry)
            except LogFormatError as exc:
                if strict:
                    raise
                if on_error is not None:
                    on_error(entry, exc)
        else:
            yield entry


class LogStorage:
    """The phone's persistent log file (in-memory model of flash).

    Survives reboots; the transfer service reads entries past a cursor
    so repeated syncs ship only new data.
    """

    __slots__ = ("phone_id", "_entries", "last_runapps", "record_sink")

    def __init__(self, phone_id: str = "") -> None:
        self.phone_id = phone_id
        self._entries: List[LogEntry] = []
        #: Last RUNAPP snapshot on flash, maintained by the Running
        #: Applications Detector so the dedupe check survives reboots
        #: (the detector is recreated every power cycle, flash is not).
        self.last_runapps: Optional[Tuple[str, ...]] = None
        #: Frame-free append for the per-event logger hot paths: the
        #: bound builtin is ``append_record`` minus the method frame.
        #: Valid for the storage's whole life (``_entries`` is mutated,
        #: never rebound).
        self.record_sink = self._entries.append

    def append_record(self, record) -> None:
        """Append one record (serialized lazily, on first text access)."""
        self._entries.append(record)

    def append_raw(self, line: str) -> None:
        """Append a raw line (corruption-injection in tests)."""
        self._entries.append(line)

    def truncate_tail(self, keep_chars: int = 10) -> None:
        """Model power loss mid-write: chop the final line short."""
        if self._entries:
            self._entries[-1] = serialize_entry(self._entries[-1])[:keep_chars]

    @property
    def line_count(self) -> int:
        return len(self._entries)

    def lines(self, start: int = 0) -> List[str]:
        """Serialized lines from index ``start`` onward."""
        return [serialize_entry(entry) for entry in self._entries[start:]]

    def entries(self, start: int = 0) -> List[LogEntry]:
        """Stored entries from index ``start`` onward (fast path)."""
        return self._entries[start:]

    def records(self, strict: bool = False) -> List:
        """All parseable records, in write order."""
        return list(entries_to_records(self._entries, strict=strict))

    def last_record(self) -> Optional[object]:
        """The final parseable record, or ``None``."""
        for entry in reversed(self._entries):
            if not isinstance(entry, str):
                return entry
            try:
                return parse_line(entry)
            except LogFormatError:
                continue
        return None

    def __repr__(self) -> str:
        return f"LogStorage({self.phone_id!r}, lines={self.line_count})"
