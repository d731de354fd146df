"""The traced run: one unit per workload, timed layer by layer.

The traced unit calls the same code as the untimed one: ``run_campaign``
on ``paper``/``wide``, one ``ShardTask`` per executed range and the
streaming merge on ``sharded``, and ``repro analyze`` on ``analyze``.
:func:`spans_around` wraps the layers' public functions while the unit
runs, so a :class:`SpanTracer` records every call into them as a span;
nothing inside ``repro`` is changed.  Counts come from a
``metrics``-level :class:`Telemetry` (``Fleet.sample_metrics``), and
``Fleet.run`` is split further by the :class:`LayerSampler`.  The
traced unit must produce the same digest as the untraced ones.
"""

from __future__ import annotations

import os
import resource
import tempfile
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from time import process_time
from typing import Dict, List, Tuple
from unittest.mock import patch

from benchmarks.suite.sampler import LayerSampler
from benchmarks.suite.workloads import (
    WORKERS,
    Analyze,
    Workload,
    summary_digest,
    text_digest,
)
import repro.cli as repro_cli
import repro.experiments.campaign as campaign_module
import repro.experiments.shard as shard_module
from repro.analysis.ingest import Dataset
from repro.analysis.streaming import CampaignAccumulator
from repro.experiments.cache import CampaignCache
from repro.experiments.shard import (
    CommittedShard,
    ShardResult,
    ShardTask,
    merge_shard_files,
)
from repro.logger.transfer import LOG_EXTENSION
from repro.observability.export import hotspot_summary
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry
from repro.observability.tracer import SpanTracer
from repro.phone.fleet import Fleet


@dataclass
class Traced:
    """One traced unit: per-layer values plus what the checks need."""

    values: Dict[str, float]
    digest: str
    #: Wall seconds of the whole traced unit.
    wall: float
    #: What ``trace.overhead`` compares with the untraced units: wall
    #: seconds, or CPU seconds where those units ran on worker processes.
    cost: float
    #: The unit's telemetry counters (written into the Chrome trace).
    registry: MetricsRegistry
    problems: List[str] = field(default_factory=list)
    cost_is_cpu: bool = False


def span_seconds(tracer: SpanTracer) -> Dict[str, Tuple[float, float]]:
    """Span name -> (wall seconds, self seconds), summed over its spans.
    Self time is a span's wall time minus its children's."""
    rows = hotspot_summary(tracer, top=max(len(tracer), 1))
    return {row["name"]: (row["wall_seconds"], row["self_seconds"]) for row in rows}


@contextmanager
def spans_around(tracer: SpanTracer, *targets: tuple):
    """While the block runs, wrap each ``(owner, attribute, span name,
    category[, context])`` target so that every call is recorded as a
    span, with the optional context manager entered inside it; yields a
    dict holding the last result under each span name."""
    seen: Dict[str, object] = {}

    def spanned(function, name: str, category: str, inside):
        def call(*args, **kwargs):
            with tracer.span(name, category=category), inside:
                seen[name] = function(*args, **kwargs)
            return seen[name]

        return call

    with ExitStack() as stack:
        for owner, attribute, name, category, *inside in targets:
            wrapper = spanned(
                getattr(owner, attribute), name, category, inside[0] if inside else nullcontext()
            )
            if isinstance(vars(owner).get(attribute), classmethod):
                wrapper = staticmethod(wrapper)
            stack.enter_context(patch.object(owner, attribute, wrapper))
        yield seen


def simulate_targets(sampler: LayerSampler) -> Tuple[tuple, ...]:
    """The fleet's build, run (sampled) and log transfer, and ingest.
    ``Fleet.run`` builds the fleet itself and ends with a transfer, so
    those spans nest inside ``simulate``."""
    return (
        (Fleet, "build", "phone.fleet.build", "phone"),
        (Fleet, "run", "simulate", "core.engine", sampler),
        (Fleet, "sync_all", "logger.transfer.sync_all", "logger.transfer"),
        (Dataset, "from_collector", "analysis.ingest", "analysis"),
    )


def simulate_values(
    tracer: SpanTracer, totals: Dict[str, float], sampler: LayerSampler, phones: int
) -> Dict[str, float]:
    """Per-layer values of simulate and ingest (fleet build, engine,
    bus, logger, transfer, parser) from spans, counters and samples."""
    seconds = span_seconds(tracer)
    build_s = seconds["phone.fleet.build"][0]
    simulate_s, engine_s = seconds["simulate"]
    sync_s = seconds.get("logger.transfer.sync_all", (0.0, 0.0))[0]
    ingest_s = seconds["analysis.ingest"][0]
    events = totals.get("sim.events_fired_total", 0.0)
    entries = totals.get("transfer.entries_collected_total", 0.0)
    values = {
        "phone.fleet.build_s": build_s,
        "phone.fleet.build_us_per_phone": build_s / phones * 1e6,
        "core.engine.run_s": engine_s,
        "core.engine.us_per_event": engine_s / events * 1e6,
        "core.engine.events_fired": events,
        "core.engine.events_scheduled": totals.get("sim.events_scheduled_total", 0.0),
        "core.engine.events_cancelled": totals.get("sim.events_cancelled_total", 0.0),
        "core.events.publishes": totals.get("bus.publish_total", 0.0),
        "core.events.deliveries": totals.get("bus.delivery_total", 0.0),
        "logger.ao_dispatches": totals.get("logger.ao_dispatch_total", 0.0),
        "logger.heartbeats_written": totals.get("logger.heartbeats_written_total", 0.0),
        "logger.panics_recorded": totals.get("logger.panics_recorded_total", 0.0),
        "logger.transfer.sync_s": sync_s,
        "logger.transfer.syncs": totals.get("transfer.syncs_total", 0.0),
        "logger.transfer.entries": entries,
        "logger.transfer.us_per_entry": sync_s / entries * 1e6 if entries else 0.0,
        "simulate.samples": float(sampler.samples),
    }
    for layer, share in sampler.shares().items():
        values[f"simulate.share.{layer}"] = share
        values[f"simulate.us_per_event.{layer}"] = share * simulate_s / events * 1e6
    values.update(
        ingest_values(
            ingest_s,
            int(totals.get("ingest.records_total", 0.0)),
            int(totals.get("ingest.quarantined_total", 0.0)),
        )
    )
    return values


def ingest_values(ingest_s: float, records: int, quarantined: int) -> Dict[str, float]:
    return {
        "analysis.ingest.s": ingest_s,
        "analysis.ingest.records": float(records),
        "analysis.ingest.quarantined": float(quarantined),
        "analysis.ingest.us_per_record": ingest_s / records * 1e6,
        "analysis.ingest.clean_ratio": records / (records + quarantined),
    }


def conservation_problems(totals: Dict[str, float]) -> List[str]:
    """The cross-layer identities of a clean collection link."""
    problems = []
    injected = totals.get("phone.panics_injected_total", 0.0)
    kernel = totals.get("kernel.panics_total", 0.0)
    recorded = totals.get("logger.panics_recorded_total", 0.0)
    if not injected == kernel == recorded:
        problems.append(
            f"panics injected {injected:.0f}, raised by the kernel "
            f"{kernel:.0f} and recorded by the logger {recorded:.0f} differ"
        )
    entries = totals.get("transfer.entries_collected_total", 0.0)
    records = totals.get("ingest.records_total", 0.0)
    quarantined = totals.get("ingest.quarantined_total", 0.0)
    if entries != records + quarantined:
        problems.append(
            f"entries collected {entries:.0f} != records ingested {records:.0f} "
            f"+ quarantined {quarantined:.0f}"
        )
    return problems


def trace_campaign(workload: Workload, tracer: SpanTracer, ref_wall: float) -> Traced:
    """``run_campaign`` itself, with its layers' functions in spans."""
    config = workload.config
    tel = Telemetry(TELEMETRY_METRICS)
    sampler = LayerSampler()
    with spans_around(
        tracer,
        *simulate_targets(sampler),
        (campaign_module, "build_report", "analysis.report", "analysis"),
    ), tracer.span("campaign", category="campaign") as root:
        result = campaign_module.run_campaign(config, telemetry=tel)
    totals = tel.registry.counter_totals()
    values = simulate_values(tracer, totals, sampler, config.fleet.phone_count)
    values["analysis.report.s"] = span_seconds(tracer)["analysis.report"][0]
    return Traced(
        values=values,
        digest=summary_digest(result.ground_truth, result.report.to_dict()),
        wall=root.wall_duration,
        cost=root.wall_duration,
        registry=tel.registry,
        problems=conservation_problems(totals),
    )


def trace_sharded(workload: Workload, tracer: SpanTracer, ref_wall: float) -> Traced:
    """Replay the last untimed unit's executed tiling serially in this
    process: per range, what a worker does (a ``ShardTask``, then its
    commit with ``CampaignCache.put``), then the streaming merge of the
    committed files.  ``ref_wall`` is the untraced units' median wall
    time, the denominator of ``busy_share``."""
    config = workload.config
    executed = workload.last
    cache = CampaignCache(tempfile.mkdtemp(prefix="replay-", dir=workload.workdir))
    task = ShardTask(telemetry_level=TELEMETRY_METRICS)
    sampler = LayerSampler()
    committed: List[CommittedShard] = []
    cpu_start = process_time()
    with spans_around(
        tracer,
        *simulate_targets(sampler),
        (CampaignAccumulator, "from_dataset", "analysis.streaming.reduce", "analysis.streaming"),
        (ShardResult, "to_dict", "experiments.shard.encode", "experiments.shard"),
        (CampaignCache, "put", "experiments.shard.commit", "experiments.shard"),
        (shard_module, "load_shard_file", "experiments.shard.decode", "experiments.shard"),
        (CampaignAccumulator, "merge", "analysis.streaming.merge", "analysis.streaming"),
        (CampaignAccumulator, "sections", "analysis.streaming.merge", "analysis.streaming"),
    ), tracer.span("sharded", category="experiments.shard") as root:
        for start, stop in executed.shard_ranges:
            shard = replace(config, fleet=replace(config.fleet, phone_range=(start, stop)))
            with tracer.span("experiments.shard.task", category="experiments.shard"):
                path = cache.put(shard, task(shard))
            committed.append(CommittedShard((start, stop), path))
        with tracer.span("experiments.shard.merge", category="experiments.shard"):
            campaign = merge_shard_files(committed, config)
    cpu = process_time() - cpu_start
    # The merge folds every shard's counters into the summary.
    registry = MetricsRegistry.from_dict(campaign.summary.telemetry["metrics"])
    totals = registry.counter_totals()
    seconds = span_seconds(tracer)
    stats = executed.stats
    values = simulate_values(tracer, totals, sampler, config.fleet.phone_count)
    values.update(
        {
            "analysis.streaming.reduce_s": seconds["analysis.streaming.reduce"][0],
            "analysis.streaming.merge_s": seconds["analysis.streaming.merge"][0],
            "experiments.shard.encode_s": seconds["experiments.shard.encode"][0],
            "experiments.shard.wire_bytes": float(
                sum(os.path.getsize(shard.path) for shard in committed)
            ),
            # The write and rename, without the encode nested in it.
            "experiments.shard.commit_s": seconds["experiments.shard.commit"][1],
            "experiments.shard.decode_s": seconds["experiments.shard.decode"][0],
            "experiments.shard.merge_s": seconds["experiments.shard.merge"][0],
            "experiments.executors.busy_share": seconds["experiments.shard.task"][0]
            / (WORKERS * ref_wall),
            "experiments.executors.steals": float(stats.steals),
            "experiments.executors.task_retries": float(stats.task_retries),
            "experiments.executors.worker_restarts": float(stats.worker_restarts),
            "experiments.executors.watchdog_fires": float(stats.watchdog_fires),
            "experiments.executors.executed_ranges": float(len(executed.shard_ranges)),
            # Only the workers have been reaped by now in a traced run.
            "experiments.executors.worker_peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN
            ).ru_maxrss
            / 1024.0,
        }
    )
    summary = campaign.summary
    return Traced(
        values=values,
        digest=summary_digest(summary.ground_truth, summary.sections),
        wall=root.wall_duration,
        cost=cpu,
        registry=registry,
        problems=conservation_problems(totals),
        cost_is_cpu=True,
    )


def trace_analyze(workload: Analyze, tracer: SpanTracer, ref_wall: float) -> Traced:
    """``repro analyze DIR`` itself, with the three layer functions its
    command calls wrapped in spans for the duration of the unit."""
    tel = Telemetry(TELEMETRY_METRICS)
    with spans_around(
        tracer,
        (repro_cli, "load_lines_from_dir", "logger.transfer.load", "logger.transfer"),
        (Dataset, "from_lines", "analysis.ingest", "analysis"),
        (repro_cli, "build_report", "analysis.report", "analysis"),
    ) as seen, tel.installed(), tracer.span("analyze", category="analysis") as root:
        code, text = workload.run(0)
    seconds = span_seconds(tracer)
    dataset = seen["analysis.ingest"]
    records = sum(log.record_count for log in dataset.logs.values())
    quarantined = dataset.ingest_report.quarantined
    read = sum(len(phone) for phone in seen["logger.transfer.load"].values())
    problems = [] if code == 0 else [f"repro analyze exited {code}"]
    if read != records + quarantined:
        problems.append(
            f"lines read {read} != records parsed {records} "
            f"+ quarantined {quarantined}"
        )
    values = ingest_values(seconds["analysis.ingest"][0], records, quarantined)
    values.update(
        {
            "logger.transfer.load_s": seconds["logger.transfer.load"][0],
            "logger.transfer.bytes_read": float(
                sum(
                    os.path.getsize(os.path.join(workload.logs, name))
                    for name in os.listdir(workload.logs)
                    if name.endswith(LOG_EXTENSION)
                )
            ),
            "analysis.report.s": seconds["analysis.report"][0],
        }
    )
    return Traced(
        values=values,
        digest=text_digest(text),
        wall=root.wall_duration,
        cost=root.wall_duration,
        registry=tel.registry,
        problems=problems,
    )


TRACERS = {
    "paper": trace_campaign,
    "wide": trace_campaign,
    "sharded": trace_sharded,
    "analyze": trace_analyze,
}
