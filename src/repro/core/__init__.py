"""Core substrate: discrete-event simulation kernel and shared log records.

This subpackage is domain-agnostic: it knows nothing about phones or
Symbian.  It provides the virtual clock, the deterministic event engine,
seeded random streams, and the record types that the failure logger writes
and the analysis pipeline reads.
"""

from repro.core.clock import (
    DAY,
    HOUR,
    MINUTE,
    MONTH,
    SECOND,
    WEEK,
    SimClock,
    format_instant,
)
from repro.core.engine import ScheduledEvent, Simulator
from repro.core.errors import (
    AnalysisError,
    ConfigError,
    LogFormatError,
    ReproError,
    SimulationError,
)
from repro.core.events import EventBus
from repro.core.rand import RandomStreams, Stream
from repro.core.records import (
    ActivityRecord,
    BootRecord,
    EnrollRecord,
    PanicRecord,
    PowerRecord,
    RunningAppsRecord,
    UserReportRecord,
    record_from_fields,
)

__all__ = [
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "MONTH",
    "SimClock",
    "format_instant",
    "Simulator",
    "ScheduledEvent",
    "EventBus",
    "RandomStreams",
    "Stream",
    "ReproError",
    "SimulationError",
    "LogFormatError",
    "AnalysisError",
    "ConfigError",
    "ActivityRecord",
    "BootRecord",
    "EnrollRecord",
    "PanicRecord",
    "PowerRecord",
    "RunningAppsRecord",
    "UserReportRecord",
    "record_from_fields",
]
