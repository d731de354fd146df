"""Log record types — the wire format between the logger and the analysis.

The failure data logger (``repro.logger``) writes these records; the
analysis pipeline (``repro.analysis``) reads them back from serialized
log files.  Nothing else crosses that boundary: the analysis never
touches simulator internals, mirroring the paper's methodology where the
offline analysis sees only the files shipped from the phones.

Record inventory (mirrors the paper's logger files):

* :class:`EnrollRecord`   — written once when the logger is installed.
* :class:`BootRecord`     — written by the Panic Detector at daemon start;
  carries the *last heartbeat event* found in the beats file, which is
  the basis for freeze / self-shutdown / user-shutdown discrimination.
* :class:`PanicRecord`    — a panic notification from RDebug.
* :class:`ActivityRecord` — a phone-activity transition from the Database
  Log Server (voice calls and text messages only, as on real Symbian).
* :class:`RunningAppsRecord` — the running-application set (Application
  Architecture Server), logged on change.
* :class:`PowerRecord`    — battery state transition (System Agent).

Records are value objects: equality and hashing are field-based, and
nothing may mutate one after construction.  (They are ``slots``
dataclasses without ``frozen`` — per-field ``object.__setattr__``
enforcement roughly tripled construction cost on a path that builds
hundreds of thousands of records per campaign.)
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern as _intern_str
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import LogFormatError

# Heartbeat event kinds (the beats file alphabet from the paper).
BEAT_ALIVE = "ALIVE"
BEAT_REBOOT = "REBOOT"
BEAT_MAOFF = "MAOFF"
BEAT_LOWBT = "LOWBT"
#: Pseudo-kind reported on the very first boot, when no beats file exists.
BEAT_NONE = "NONE"

BEAT_KINDS = (BEAT_ALIVE, BEAT_REBOOT, BEAT_MAOFF, BEAT_LOWBT, BEAT_NONE)

# Activity kinds registered on the Symbian Database Log Server.  The
# paper notes voice calls and text messages are the only activities the
# Log Engine can observe there.
ACTIVITY_VOICE_CALL = "voice_call"
ACTIVITY_MESSAGE = "message"
ACTIVITY_KINDS = (ACTIVITY_VOICE_CALL, ACTIVITY_MESSAGE)

PHASE_START = "start"
PHASE_END = "end"

# Battery states published by the System Agent.
POWER_DISCHARGING = "discharging"
POWER_CHARGING = "charging"
POWER_LOW = "low"
POWER_STATES = (POWER_DISCHARGING, POWER_CHARGING, POWER_LOW)


def _wire_interner() -> Dict[str, str]:
    """Canonical instances of every enumerated wire string.

    Built after the constants below are defined; used by the
    ``from_fields`` parsers so a parsed record's payload strings are
    the module-level constants themselves rather than fresh per-record
    allocations (hundreds of thousands of ``"voice_call"``/``"ALIVE"``
    copies per campaign otherwise).  Identity-sharing also makes every
    downstream equality check on these fields an identity hit.  The
    parsers look values up inline (``_WIRE_STRINGS.get(value, value)``):
    unknown strings pass through and the record constructors reject
    them.
    """
    return {
        value: value
        for value in (
            BEAT_KINDS
            + ACTIVITY_KINDS
            + (PHASE_START, PHASE_END)
            + POWER_STATES
            + REPORT_KINDS
        )
    }


def _bad_float(value: str, tag: str) -> LogFormatError:
    # Built on the error path only: the ``from_fields`` parsers call
    # ``float`` inline, so a well-formed field costs no extra frame.
    return LogFormatError(f"bad float {value!r} in {tag}")


def wire_time(time: float) -> float:
    """Quantize a timestamp to the wire precision (3 decimals).

    The text format writes times as ``%.3f``, so a serialize→parse
    round trip quantizes them.  Writers quantize at record-construction
    time instead, which makes the stored record *equal* to its text
    round trip — the invariant that lets the structured fast path hand
    record objects straight to the analysis.  ``round(t, 3)`` and
    ``float(f"{t:.3f}")`` agree for every finite campaign-range float
    (both correctly round to the same 3-decimal value).
    """
    return round(time, 3)


def wire_level(level: float) -> float:
    """Quantize a battery level to the wire precision (4 decimals)."""
    return round(level, 4)


@dataclass(slots=True, unsafe_hash=True)
class EnrollRecord:
    """Campaign-enrollment metadata, one per phone."""

    time: float
    phone_id: str
    os_version: str
    region: str

    TAG = "ENROLL"

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", self.phone_id, self.os_version, self.region]

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "EnrollRecord":
        if len(fields) != 4:
            raise LogFormatError(f"ENROLL expects 4 fields, got {len(fields)}")
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "ENROLL") from exc
        return cls(time, fields[1], fields[2], fields[3])


@dataclass(slots=True, unsafe_hash=True)
class BootRecord:
    """Logger start-up entry: what the Panic Detector found at boot.

    ``last_beat_kind``/``last_beat_time`` echo the final event in the
    beats file from the previous power cycle:

    * ``ALIVE``  — the device lost power without a graceful shutdown,
      i.e. the battery was pulled.  Per the paper this implies a freeze.
    * ``REBOOT`` — a graceful shutdown (user- or kernel-initiated; the
      two are indistinguishable at the event level and are separated
      offline by the reboot-duration analysis).
    * ``LOWBT``  — shutdown caused by a depleted battery.
    * ``MAOFF``  — the user manually stopped the logger.
    * ``NONE``   — first boot ever; no previous beats file.
    """

    time: float
    last_beat_kind: str
    last_beat_time: float

    TAG = "BOOT"

    def __post_init__(self) -> None:
        if self.last_beat_kind not in BEAT_KINDS:
            raise LogFormatError(f"unknown beat kind {self.last_beat_kind!r}")

    @property
    def off_duration(self) -> float:
        """Seconds between the last beat and this boot."""
        return self.time - self.last_beat_time

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", self.last_beat_kind, f"{self.last_beat_time:.3f}"]

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "BootRecord":
        if len(fields) != 3:
            raise LogFormatError(f"BOOT expects 3 fields, got {len(fields)}")
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "BOOT") from exc
        try:
            last_beat_time = float(fields[2])
        except ValueError as exc:
            raise _bad_float(fields[2], "BOOT") from exc
        return cls(time, _WIRE_STRINGS.get(fields[1], fields[1]), last_beat_time)


@dataclass(slots=True, unsafe_hash=True)
class PanicRecord:
    """A panic notification captured through the RDebug hook."""

    time: float
    category: str
    ptype: int
    process: str

    TAG = "PANIC"

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", self.category, str(self.ptype), self.process]

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "PanicRecord":
        if len(fields) != 4:
            raise LogFormatError(f"PANIC expects 4 fields, got {len(fields)}")
        try:
            ptype = int(fields[2])
        except ValueError as exc:
            raise LogFormatError(f"bad panic type {fields[2]!r}") from exc
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "PANIC") from exc
        return cls(time, fields[1], ptype, fields[3])


@dataclass(slots=True, unsafe_hash=True)
class ActivityRecord:
    """Start or end of a voice call / text message transaction."""

    time: float
    kind: str
    phase: str

    TAG = "ACT"

    def __post_init__(self) -> None:
        if self.kind not in ACTIVITY_KINDS:
            raise LogFormatError(f"unknown activity kind {self.kind!r}")
        if self.phase not in (PHASE_START, PHASE_END):
            raise LogFormatError(f"unknown activity phase {self.phase!r}")

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", self.kind, self.phase]

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "ActivityRecord":
        if len(fields) != 3:
            raise LogFormatError(f"ACT expects 3 fields, got {len(fields)}")
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "ACT") from exc
        wire = _WIRE_STRINGS.get
        return cls(time, wire(fields[1], fields[1]), wire(fields[2], fields[2]))


def _decode_apps(raw: str) -> Tuple[str, ...]:
    """A RUNAPP apps field (comma-separated app ids) as a tuple.

    App ids repeat across hundreds of thousands of snapshots;
    ``sys.intern`` collapses the duplicates the split allocates.
    """
    return tuple(_intern_str(part) for part in raw.split(",") if part) if raw else ()


@dataclass(slots=True, unsafe_hash=True)
class RunningAppsRecord:
    """The set of user applications running at ``time``."""

    time: float
    apps: Tuple[str, ...]

    TAG = "RUNAPP"

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", ",".join(self.apps)]

    @classmethod
    def from_fields(
        cls,
        fields: Sequence[str],
        apps_memo: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> "RunningAppsRecord":
        """``apps_memo`` (raw apps field -> decoded tuple) lets one
        parse call decode each distinct app set once; RUNAPP is the
        bulk of every log and the sets repeat across snapshots."""
        if len(fields) != 2:
            raise LogFormatError(f"RUNAPP expects 2 fields, got {len(fields)}")
        raw = fields[1]
        if apps_memo is None:
            apps = _decode_apps(raw)
        else:
            apps = apps_memo.get(raw)
            if apps is None:
                apps = apps_memo[raw] = _decode_apps(raw)
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "RUNAPP") from exc
        return cls(time, apps)


@dataclass(slots=True, unsafe_hash=True)
class PowerRecord:
    """Battery state transition published by the System Agent."""

    time: float
    level: float
    state: str

    TAG = "POWER"

    def __post_init__(self) -> None:
        if self.state not in POWER_STATES:
            raise LogFormatError(f"unknown power state {self.state!r}")

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", f"{self.level:.4f}", self.state]

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "PowerRecord":
        if len(fields) != 3:
            raise LogFormatError(f"POWER expects 3 fields, got {len(fields)}")
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "POWER") from exc
        try:
            level = float(fields[1])
        except ValueError as exc:
            raise _bad_float(fields[1], "POWER") from exc
        return cls(time, level, _WIRE_STRINGS.get(fields[2], fields[2]))


# User-reportable failure kinds (§4's value/erratic failure classes the
# automated logger cannot detect; §7's future-work extension).
REPORT_OUTPUT_FAILURE = "output_failure"
REPORT_INPUT_FAILURE = "input_failure"
REPORT_UNSTABLE = "unstable_behavior"
REPORT_KINDS = (REPORT_OUTPUT_FAILURE, REPORT_INPUT_FAILURE, REPORT_UNSTABLE)

_WIRE_STRINGS = _wire_interner()


@dataclass(slots=True, unsafe_hash=True)
class UserReportRecord:
    """A failure reported interactively by the user.

    Implements the paper's §7 future-work item: freezes and
    self-shutdowns are detectable automatically, but output failures,
    input failures, and unstable behaviour need a human observer.  The
    logger exposes a report action; this record is what it writes.
    """

    time: float
    kind: str

    TAG = "UREPORT"

    def __post_init__(self) -> None:
        if self.kind not in REPORT_KINDS:
            raise LogFormatError(f"unknown user-report kind {self.kind!r}")

    def to_fields(self) -> List[str]:
        return [f"{self.time:.3f}", self.kind]

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "UserReportRecord":
        if len(fields) != 2:
            raise LogFormatError(f"UREPORT expects 2 fields, got {len(fields)}")
        try:
            time = float(fields[0])
        except ValueError as exc:
            raise _bad_float(fields[0], "UREPORT") from exc
        return cls(time, _WIRE_STRINGS.get(fields[1], fields[1]))


#: Tag -> ``from_fields`` parser, built once: the one dispatch table
#: every text decoder looks a line's tag up in.
FROM_FIELDS: Dict[str, Callable[..., object]] = {
    cls.TAG: cls.from_fields
    for cls in (
        EnrollRecord,
        BootRecord,
        PanicRecord,
        ActivityRecord,
        RunningAppsRecord,
        PowerRecord,
        UserReportRecord,
    )
}

RECORD_TAGS = tuple(sorted(FROM_FIELDS))


def unknown_tag_error(tag: str) -> LogFormatError:
    return LogFormatError(f"unknown record tag {tag!r}")


def record_from_fields(tag: str, fields: Sequence[str]):
    """Reconstruct a record from its tag and field list.

    Raises:
        LogFormatError: for unknown tags or malformed fields.
    """
    from_fields = FROM_FIELDS.get(tag)
    if from_fields is None:
        raise unknown_tag_error(tag)
    return from_fields(fields)
