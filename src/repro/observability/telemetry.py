"""The telemetry facade: one object tying a registry to a tracer.

Instrumented components never import each other's internals; they ask
for the *current* telemetry at construction time and pre-resolve the
handles they need:

    tel = current_telemetry()
    self._dispatch = (
        tel.registry.counter("logger.ao_dispatch_total").series()
        if tel.metrics else None
    )

With telemetry disabled (the default) that leaves exactly one ``is not
None`` branch on the hot path and zero allocations.  Three levels:

* ``off``     — nothing is recorded; the disabled singleton.
* ``metrics`` — counters/gauges/deterministic histograms only.  This is
  the level sweeps run at; overhead target is <3% on ``repro perf``.
* ``trace``   — metrics plus hierarchical spans and instant events
  (and wall-clock histograms), for ``repro trace`` timelines.

Installation is process-global (the simulation is single-threaded per
process; pooled sweep workers each install their own instance and ship
the registry back through the summary channel):

    tel = Telemetry(TELEMETRY_TRACE)
    with tel.installed():
        result = run_campaign(config)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import SpanTracer

__all__ = [
    "TELEMETRY_OFF",
    "TELEMETRY_METRICS",
    "TELEMETRY_TRACE",
    "TELEMETRY_LEVELS",
    "Telemetry",
    "current_telemetry",
]

TELEMETRY_OFF = "off"
TELEMETRY_METRICS = "metrics"
TELEMETRY_TRACE = "trace"
TELEMETRY_LEVELS = (TELEMETRY_OFF, TELEMETRY_METRICS, TELEMETRY_TRACE)


class Telemetry:
    """A metrics registry plus a span tracer at one capture level."""

    __slots__ = ("level", "metrics", "tracing", "registry", "tracer")

    def __init__(self, level: str = TELEMETRY_METRICS) -> None:
        if level not in TELEMETRY_LEVELS:
            raise ValueError(
                f"unknown telemetry level {level!r}; expected one of "
                f"{TELEMETRY_LEVELS}"
            )
        self.level = level
        #: Pre-computed level flags — the single branch hot code tests.
        self.metrics = level != TELEMETRY_OFF
        self.tracing = level == TELEMETRY_TRACE
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()

    # -- recording shortcuts --------------------------------------------------

    def span(self, name: str, category: str = "", track: str = "main", **args: Any):
        """Context manager; a no-op below trace level."""
        if self.tracing:
            return self.tracer.span(name, category, track, **args)
        return _NULL_SPAN_CM

    def instant(
        self, name: str, category: str = "", track: str = "main", **args: Any
    ) -> None:
        if self.tracing:
            self.tracer.instant(name, category, track, **args)

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Telemetry"]:
        """Install as the process-current telemetry for the block."""
        global _current
        previous = _current
        _current = self
        try:
            yield self
        finally:
            _current = previous

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-native dump of everything captured so far."""
        return {
            "level": self.level,
            "metrics": self.registry.to_dict(),
            "spans": self.tracer.sim_forest() if self.tracing else [],
        }

    def __repr__(self) -> str:
        return (
            f"Telemetry(level={self.level!r}, metrics={len(self.registry)}, "
            f"spans={len(self.tracer)})"
        )


class _NullSpanContext:
    """The disabled ``span()`` context: enters to ``None``, records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN_CM = _NullSpanContext()

#: The disabled singleton every component sees until something installs
#: a live instance.  Its flags are False, so instrumented constructors
#: resolve every handle to ``None``.
DISABLED = Telemetry(TELEMETRY_OFF)

_current: Telemetry = DISABLED


def current_telemetry() -> Telemetry:
    """The process-current telemetry (the disabled singleton by default)."""
    return _current

