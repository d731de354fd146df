"""Telemetry for the reproduction's own pipeline.

The paper's contribution is instrumentation of a running phone fleet;
this package instruments the *reproduction* the same way — a metrics
registry (labeled counters, gauges, histograms — mergeable across
pooled sweep workers), a hierarchical span tracer stamping both sim
time and wall time, and exporters: a JSON snapshot embedded in
:class:`~repro.experiments.summary.CampaignSummary`, Chrome
``trace_event`` JSON for ``chrome://tracing``/Perfetto (the ``repro
trace`` subcommand), and a plain-text hotspot table.

The *live* plane (:mod:`repro.observability.live`) extends this to
running campaigns: workers stream heartbeats and delta telemetry
snapshots into a durable op-log, a fold turns them into rolling fleet
KPIs, and :mod:`repro.observability.prom` renders Prometheus
text-format snapshots for scraping.

Capture is off by default and costs one branch per instrumented site
when disabled; see :mod:`repro.observability.telemetry` for the levels
and the installation protocol.
"""

from repro.observability.export import (
    chrome_trace,
    hotspot_summary,
    render_hotspots,
    validate_chrome_trace,
)
from repro.observability.live import (
    LiveCoordinator,
    LiveFolder,
    LiveSnapshot,
    OpLogReader,
    OpLogWriter,
    live_dir_for,
    render_dashboard,
    write_prom_snapshot,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.observability.telemetry import (
    TELEMETRY_LEVELS,
    TELEMETRY_METRICS,
    TELEMETRY_OFF,
    TELEMETRY_TRACE,
    Telemetry,
    current_telemetry,
)
from repro.observability.prom import prometheus_text, write_prometheus
from repro.observability.tracer import Span, SpanTracer

__all__ = [
    "LiveCoordinator",
    "LiveFolder",
    "LiveSnapshot",
    "OpLogReader",
    "OpLogWriter",
    "live_dir_for",
    "render_dashboard",
    "write_prom_snapshot",
    "prometheus_text",
    "write_prometheus",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_registries",
    "Span",
    "SpanTracer",
    "Telemetry",
    "TELEMETRY_LEVELS",
    "TELEMETRY_METRICS",
    "TELEMETRY_OFF",
    "TELEMETRY_TRACE",
    "current_telemetry",
    "chrome_trace",
    "validate_chrome_trace",
    "hotspot_summary",
    "render_hotspots",
]
