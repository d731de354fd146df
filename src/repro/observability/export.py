"""Exporters: Chrome ``trace_event`` JSON and the hotspot summary.

The Chrome trace format (loadable in ``chrome://tracing`` and Perfetto)
is a JSON object with a ``traceEvents`` array of phase-coded events; we
emit complete (``"X"``), instant (``"i"``), and metadata (``"M"``)
events.  Every span carries both clocks, so the export renders **two
process groups** from the same span forest:

* pid 1, *wall time* — where the real seconds went (the perf story);
* pid 2, *sim time*  — where in the campaign's 14 virtual months each
  span and fault landed (the campaign story).

Executor-level events (category ``"executor"``: the coordinator's run
span plus steal/requeue/respawn/watchdog instants) get their own
process group, pid 3 — the coordinator has no sim clock, so they are
rendered on the wall timeline only.  The pid-3 group (and its
metadata) appears only when such events exist, so monolithic traces
keep exactly the two classic process groups.

Timestamps are microseconds, as the format requires: wall spans are
rebased to the earliest wall stamp, sim spans use the virtual clock
directly.  :func:`validate_chrome_trace` is the schema check CI runs
against ``repro trace`` output.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Span, SpanTracer

__all__ = [
    "chrome_trace",
    "validate_chrome_trace",
    "hotspot_summary",
    "render_hotspots",
]

PID_WALL = 1
PID_SIM = 2
PID_EXEC = 3

#: Span/instant category routed to the executor process group.
EXECUTOR_CATEGORY = "executor"

#: Phases emitted (and accepted by the validator).
_KNOWN_PHASES = ("X", "i", "M")


class _TrackTable:
    """Track name -> tid, assigned in first-seen order."""

    def __init__(self) -> None:
        self._tids: Dict[str, int] = {}

    def tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
        return tid

    def metadata(self, pid: int) -> List[Dict[str, Any]]:
        return [
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
            for track, tid in self._tids.items()
        ]


def _span_args(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = dict(span.args) if span.args else {}
    args["sim_start_s"] = round(span.sim_start, 6)
    args["sim_end_s"] = round(span.sim_end, 6)
    args["wall_ms"] = round(span.wall_duration * 1000.0, 6)
    return args


def chrome_trace(
    tracer: SpanTracer,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Render a tracer's span forest as a Chrome-trace JSON object.

    ``registry``, when given, lands its counter totals in ``otherData``
    so a trace file is self-describing about the run that produced it.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": PID_WALL,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "wall time (perf_counter)"},
        },
        {
            "ph": "M",
            "pid": PID_SIM,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "sim time (virtual campaign clock)"},
        },
    ]
    spans = tracer.finished
    wall_zero = min((span.wall_start for span in spans), default=0.0)
    tracks = _TrackTable()
    exec_tracks = _TrackTable()
    for span in spans:
        args = _span_args(span)
        if span.category == EXECUTOR_CATEGORY:
            # Coordinator-side event: no sim clock, wall timeline only.
            tid = exec_tracks.tid(span.track)
            if span.instant:
                events.append(
                    {
                        "ph": "i",
                        "pid": PID_EXEC,
                        "tid": tid,
                        "ts": (span.wall_start - wall_zero) * 1e6,
                        "name": span.name,
                        "cat": span.category,
                        "s": "t",
                        "args": args,
                    }
                )
            else:
                events.append(
                    {
                        "ph": "X",
                        "pid": PID_EXEC,
                        "tid": tid,
                        "ts": (span.wall_start - wall_zero) * 1e6,
                        "dur": max(span.wall_duration, 0.0) * 1e6,
                        "name": span.name,
                        "cat": span.category,
                        "args": args,
                    }
                )
            continue
        tid = tracks.tid(span.track)
        if span.instant:
            events.append(
                {
                    "ph": "i",
                    "pid": PID_SIM,
                    "tid": tid,
                    "ts": span.sim_start * 1e6,
                    "name": span.name,
                    "cat": span.category or "event",
                    "s": "t",
                    "args": args,
                }
            )
            continue
        common = {"name": span.name, "cat": span.category or "span", "args": args}
        events.append(
            {
                "ph": "X",
                "pid": PID_WALL,
                "tid": tid,
                "ts": (span.wall_start - wall_zero) * 1e6,
                "dur": max(span.wall_duration, 0.0) * 1e6,
                **common,
            }
        )
        events.append(
            {
                "ph": "X",
                "pid": PID_SIM,
                "tid": tid,
                "ts": span.sim_start * 1e6,
                "dur": max(span.sim_duration, 0.0) * 1e6,
                **common,
            }
        )
    events.extend(tracks.metadata(PID_WALL))
    events.extend(tracks.metadata(PID_SIM))
    if exec_tracks._tids:
        events.append(
            {
                "ph": "M",
                "pid": PID_EXEC,
                "tid": 0,
                "name": "process_name",
                "args": {"name": "executor (workqueue coordinator)"},
            }
        )
        events.extend(exec_tracks.metadata(PID_EXEC))
    other: Dict[str, Any] = {"spans": len(spans)}
    if tracer.dropped_spans:
        other["dropped_spans"] = tracer.dropped_spans
    if registry is not None:
        other["counter_totals"] = registry.counter_totals()
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def validate_chrome_trace(trace: Any) -> List[str]:
    """Schema-check a Chrome trace object; returns problem strings.

    An empty list means the trace is loadable: a JSON object with a
    ``traceEvents`` array whose members carry the fields
    ``chrome://tracing``/Perfetto require for their phase.
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace.traceEvents must be an array"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if phase in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: missing non-negative ts")
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: missing integer tid")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: missing non-negative dur")
        if phase == "M" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: metadata event missing args")
    return problems


# -- hotspot summary ----------------------------------------------------------


def hotspot_summary(tracer: SpanTracer, top: int = 15) -> List[Dict[str, Any]]:
    """Aggregate spans by name into a top-N self-wall-time table.

    *Self* time is a span's wall duration minus its children's — the
    flame-graph quantity — so a parent that merely contains hot
    children does not crowd them out of the table.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for span in tracer.finished:
        if span.instant:
            continue
        child_wall = sum(child.wall_duration for child in span.children)
        row = rows.get(span.name)
        if row is None:
            row = rows[span.name] = {
                "name": span.name,
                "category": span.category,
                "count": 0,
                "wall_seconds": 0.0,
                "self_seconds": 0.0,
                "sim_seconds": 0.0,
            }
        row["count"] += 1
        row["wall_seconds"] += span.wall_duration
        row["self_seconds"] += max(span.wall_duration - child_wall, 0.0)
        row["sim_seconds"] += span.sim_duration
    ordered = sorted(
        rows.values(), key=lambda row: (-row["self_seconds"], row["name"])
    )
    for row in ordered:
        row["wall_seconds"] = round(row["wall_seconds"], 6)
        row["self_seconds"] = round(row["self_seconds"], 6)
        row["sim_seconds"] = round(row["sim_seconds"], 3)
    return ordered[:top]


def render_hotspots(tracer: SpanTracer, top: int = 15) -> str:
    """Plain-text top-N hotspot table (the ``repro trace`` footer)."""
    rows = hotspot_summary(tracer, top=top)
    if not rows:
        return "no spans recorded (telemetry level below 'trace'?)"
    lines = [
        f"top {len(rows)} hotspots by self wall time "
        f"({len(tracer)} spans total):",
        f"  {'self (s)':>9s}  {'total (s)':>9s}  {'count':>7s}  span",
    ]
    for row in rows:
        lines.append(
            f"  {row['self_seconds']:9.4f}  {row['wall_seconds']:9.4f}  "
            f"{row['count']:7d}  {row['name']}"
        )
    return "\n".join(lines)
