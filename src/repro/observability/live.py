"""Live telemetry plane: durable op-log, rolling fleet KPIs, dashboard.

The paper's methodology is *live* observation — failure data collected
continuously from an operating fleet — but a mega-fleet campaign used
to be a black box until its final merge.  This module makes a running
(or crashed) campaign observable without touching its results:

* **Op-log.**  Every worker appends heartbeat records — shard range,
  sim-time horizon, events fired, device failure tallies, peak RSS,
  plus a delta telemetry snapshot — to its own append-only JSONL file
  under ``<run-dir>/live/``.  A record is one complete line written
  with a single ``os.write`` on an ``O_APPEND`` descriptor, the
  streaming analogue of the shard commit's tmp+rename: a reader
  sees a whole record or nothing, and a torn tail from a kill -9 is
  skipped, never misread.

* **Exactly-once fold.**  Records carry a *stream id* (unique per
  shard attempt) and a monotonically increasing *seq*.  Scalar fields
  are cumulative, so the latest record per stream is the truth;
  telemetry deltas are folded at most once per ``(stream, seq)``.  A
  committed :class:`~repro.experiments.shard.ShardResult` carries its
  stream id and final seq (wire v3), so a fold never double-counts a
  shard that was both heartbeating and committed — including across a
  kill -9 resume, where a re-adopted range may have op-log streams
  from several attempts.

* **Rolling KPIs.**  :class:`LiveFolder` tails the op-log, folds
  committed shards through the order-independent streaming
  accumulators (:mod:`repro.analysis.streaming`), and computes rolling
  windowed KPIs: fleet-wide MTBF, panic-type mix, ingest quarantine
  rate, per-worker throughput, and an ETA from the remaining phone
  ranges.  Each fold can write a Prometheus text-format snapshot
  (``metrics.prom``) via :mod:`repro.observability.prom`.

The hard invariant: live mode is a pure observer.  Heartbeats schedule
no simulator events, draw no random variates, and mutate no registry,
so a live run's final summary, merged telemetry, and report tables are
bit-identical to a non-live run (pinned by a differential test).
"""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability.metrics import MetricsRegistry, merge_registries

__all__ = [
    "LIVE_DIR_NAME",
    "LIVE_FORMAT_VERSION",
    "LiveCoordinator",
    "LiveFolder",
    "LiveSnapshot",
    "OpLogReader",
    "OpLogWriter",
    "current_live_writer",
    "install_live_writer",
    "live_dir_for",
    "progress_line",
    "prom_gauges",
    "render_dashboard",
    "sparkline",
    "worker_writer",
    "write_prom_snapshot",
]

#: Version stamp on every op-log record.
LIVE_FORMAT_VERSION = 1

#: Subdirectory of a run directory holding the op-log.
LIVE_DIR_NAME = "live"

#: Default minimum wall seconds between heartbeat flushes.
DEFAULT_FLUSH_INTERVAL = 0.5


def live_dir_for(run_dir: str) -> str:
    """The op-log directory for a campaign run directory."""
    return os.path.join(run_dir, LIVE_DIR_NAME)


def _peak_rss_kb() -> int:
    """This process's peak RSS in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _due(last: Optional[float], now: float, interval: float) -> bool:
    """Whether ``interval`` has passed since ``last`` (``None``: never)."""
    return last is None or now - last >= interval


# -- writer ---------------------------------------------------------------------


#: Per-process writer serial: two writers born in the same millisecond
#: must still get distinct files and distinct stream ids.
_writer_serial = 0


class OpLogWriter:
    """Appends durable records to one per-process op-log file.

    One writer owns one file (``<role>-<pid>-<epoch_ms>-<n>.jsonl``),
    so concurrent workers never interleave partial lines.  Each record
    is serialized to a single line and written with one ``os.write`` on
    an ``O_APPEND`` descriptor — visible to readers atomically,
    mirroring the commit-before-ack discipline of shard commits at
    the granularity of one record.  ``clock`` (monotonic seconds)
    drives heartbeat throttling.
    """

    def __init__(
        self,
        live_dir: str,
        role: str = "worker",
        min_interval: float = DEFAULT_FLUSH_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        global _writer_serial
        os.makedirs(live_dir, exist_ok=True)
        self.live_dir = live_dir
        self.role = role
        self.min_interval = min_interval
        self.clock = clock
        self._epoch_ms = int(time.time() * 1000.0)
        _writer_serial += 1
        self._uid = f"{os.getpid()}.{self._epoch_ms}.{_writer_serial}"
        self.path = os.path.join(
            live_dir,
            f"{role}-{os.getpid()}-{self._epoch_ms}-{_writer_serial}.jsonl",
        )
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._streams = 0
        self._last_flush: Optional[float] = None
        #: Active stream state (one stream at a time per writer).
        self.stream_id: Optional[str] = None
        self.seq = 0
        self._registry: Optional[MetricsRegistry] = None
        self._metrics_base: Dict[str, Any] = {}

    # -- low-level ---------------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Append one record; a crash mid-write leaves a skippable tail."""
        payload = {
            "v": LIVE_FORMAT_VERSION,
            "kind": kind,
            "role": self.role,
            "wall": time.time(),
        }
        payload.update(fields)
        line = json.dumps(payload, sort_keys=True) + "\n"
        os.write(self._fd, line.encode("utf-8"))

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    # -- streams -----------------------------------------------------------------

    def begin_stream(
        self,
        phone_range: Tuple[int, int],
        duration: float,
        registry: Optional[MetricsRegistry] = None,
    ) -> str:
        """Open a new heartbeat stream for one shard attempt."""
        start, stop = phone_range
        self._streams += 1
        self.stream_id = f"{start}-{stop}@{self._uid}.{self._streams}"
        self.seq = 0
        self._registry = registry
        self._metrics_base = registry.to_dict() if registry is not None else {}
        self._last_flush = None
        self.record(
            "start",
            stream=self.stream_id,
            seq=0,
            phone_range=[start, stop],
            duration=duration,
        )
        return self.stream_id

    def _metrics_delta(self) -> Optional[Dict[str, Any]]:
        if self._registry is None:
            return None
        delta = self._registry.delta_dict(self._metrics_base)
        self._metrics_base = self._registry.to_dict()
        return delta or None

    def heartbeat(self, throttled: bool = True, **payload: Any) -> bool:
        """Flush one cumulative heartbeat on the active stream.

        Returns whether a record was written (wall-clock throttling may
        swallow the call).  All payload fields must be cumulative: the
        fold takes the max-seq record per stream, so a replayed or
        duplicated record is idempotent.
        """
        if self.stream_id is None:
            return False
        now = self.clock()
        if throttled and not _due(self._last_flush, now, self.min_interval):
            return False
        self._last_flush = now
        self.seq += 1
        delta = self._metrics_delta()
        if delta is not None:
            payload["metrics_delta"] = delta
        payload["rss_kb"] = _peak_rss_kb()
        self.record("heartbeat", stream=self.stream_id, seq=self.seq, **payload)
        return True

    def heartbeat_from_fleet(self, fleet: Any) -> bool:
        """Sample a live :class:`~repro.phone.fleet.Fleet` mid-run.

        Called from the fleet's periodic-transfer callback — already a
        scheduled sim event, so observing here adds no events, no
        random draws, and no registry writes.  Everything sampled is
        intrinsic state the simulation maintains anyway.
        """
        if self.stream_id is None:
            # A monolithic campaign (no ShardTask wrapping): open a
            # stream for the fleet's own range on first contact.
            self.begin_stream(
                fleet.config.resolved_range(), fleet.config.duration
            )
        if not _due(self._last_flush, self.clock(), self.min_interval):
            return False
        freezes = panics = boots = 0
        for instance in fleet.phones:
            freezes += instance.device.freeze_count
            boots += instance.device.boot_count
            panics += instance.faults.panics_injected
        start, stop = fleet.config.resolved_range()
        return self.heartbeat(
            throttled=False,
            phone_range=[start, stop],
            sim_now=fleet.sim.now,
            duration=fleet.config.duration,
            events_fired=fleet.sim.events_fired,
            freezes=freezes,
            boots=boots,
            panics=panics,
        )

    def end_stream(self, **payload: Any) -> None:
        """Close the active stream with a final cumulative record."""
        if self.stream_id is None:
            return
        self.seq += 1
        delta = self._metrics_delta()
        if delta is not None:
            payload["metrics_delta"] = delta
        payload["rss_kb"] = _peak_rss_kb()
        self.record("end", stream=self.stream_id, seq=self.seq, **payload)
        self.stream_id = None
        self._registry = None
        self._metrics_base = {}

    # -- campaign / coordinator records ------------------------------------------

    def campaign(self, **fields: Any) -> None:
        """Announce the campaign (config, fleet size, plan) once."""
        self.record("campaign", **fields)

    def coordinator(self, **fields: Any) -> None:
        """One coordinator heartbeat (executor stats, pending work)."""
        self.record("coordinator", **fields)


# -- process-current writer (the fleet flush hook) ------------------------------

_live_writer: Optional[OpLogWriter] = None


def current_live_writer() -> Optional[OpLogWriter]:
    """The process-current op-log writer, or ``None`` (the default)."""
    return _live_writer


def install_live_writer(writer: Optional[OpLogWriter]) -> Optional[OpLogWriter]:
    """Swap the process-current writer; returns the previous one."""
    global _live_writer
    previous = _live_writer
    _live_writer = writer
    return previous


# Pooled workers run many ShardTasks per process; each process keeps one
# op-log file per live directory instead of one per task.
_worker_writers: Dict[str, OpLogWriter] = {}


def worker_writer(live_dir: str) -> OpLogWriter:
    """This process's shared worker writer for ``live_dir``."""
    key = os.path.abspath(live_dir)
    writer = _worker_writers.get(key)
    if writer is None or writer._fd < 0:
        writer = OpLogWriter(live_dir, role="worker")
        _worker_writers[key] = writer
    return writer


# -- reader ---------------------------------------------------------------------


class OpLogReader:
    """Tails every op-log file in a live directory, torn-tail tolerant.

    Keeps a byte offset per file, so repeated :meth:`read_new` calls
    only parse appended data.  A trailing partial line (crash mid-write)
    is left unconsumed until it either completes or is superseded; any
    line that fails to parse is skipped, never fatal.
    """

    def __init__(self, live_dir: str) -> None:
        self.live_dir = live_dir
        self._offsets: Dict[str, int] = {}

    def read_new(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        if not os.path.isdir(self.live_dir):
            return records
        for name in sorted(os.listdir(self.live_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(self.live_dir, name)
            offset = self._offsets.get(name, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    data = handle.read()
            except OSError:
                continue
            if not data:
                continue
            # Only consume complete lines; a torn tail stays pending.
            end = data.rfind(b"\n")
            if end < 0:
                continue
            self._offsets[name] = offset + end + 1
            for raw in data[: end + 1].splitlines():
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue
                if isinstance(record, dict):
                    records.append(record)
        return records


# -- fold -----------------------------------------------------------------------


@dataclass
class WorkerRow:
    """Latest state of one heartbeat stream, for the dashboard table."""

    stream: str
    role: str
    phone_range: Optional[Tuple[int, int]]
    sim_now: float
    duration: float
    events_fired: int
    events_per_second: float
    rss_kb: int
    wall: float
    done: bool

    @property
    def progress(self) -> float:
        if self.done:
            return 1.0
        if self.duration <= 0:
            return 0.0
        return min(1.0, self.sim_now / self.duration)


@dataclass
class LiveSnapshot:
    """One fold of the op-log plus the committed shards: the KPIs."""

    wall: float
    campaign: Dict[str, Any] = field(default_factory=dict)
    coordinator: Dict[str, Any] = field(default_factory=dict)
    total_phones: int = 0
    committed_phones: int = 0
    committed_shards: int = 0
    committed_ranges: List[Tuple[int, int]] = field(default_factory=list)
    #: Committed + latest in-flight cumulative events.
    events_fired: int = 0
    #: Rolling windowed fleet throughput.
    events_per_second: float = 0.0
    #: Fleet-equivalent phones done (committed + in-flight progress).
    phones_equivalent: float = 0.0
    eta_seconds: Optional[float] = None
    #: Rolling headline KPIs over the committed partial fleet.
    kpis: Dict[str, float] = field(default_factory=dict)
    quarantined_lines: int = 0
    ingested_records: int = 0
    workers: List[WorkerRow] = field(default_factory=list)
    #: Exactly-once folded telemetry (committed snapshots + live deltas).
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Fleet events/s samples over time, for the trend sparkline.
    trend: List[float] = field(default_factory=list)

    @property
    def quarantine_rate(self) -> float:
        total = self.quarantined_lines + self.ingested_records
        if total <= 0:
            return 0.0
        return self.quarantined_lines / total


class _StreamState:
    """Fold state for one op-log stream."""

    __slots__ = ("latest", "max_seq", "samples", "metrics", "role", "first_wall")

    def __init__(self) -> None:
        self.latest: Dict[str, Any] = {}
        self.max_seq = -1
        #: (wall, events_fired) samples for windowed throughput.
        self.samples: List[Tuple[float, float]] = []
        #: Telemetry deltas folded at most once per (stream, seq).
        self.metrics = MetricsRegistry()
        self.role = "worker"
        #: Wall time of the stream's first record (when it began).
        self.first_wall: Optional[float] = None

    def fold(self, record: Dict[str, Any]) -> None:
        seq = record.get("seq")
        if not isinstance(seq, int):
            return
        delta = record.get("metrics_delta")
        if isinstance(delta, dict) and seq > self.max_seq:
            # Seqs within one stream arrive in file order; a replayed
            # or duplicated record never folds twice.
            try:
                self.metrics.merge(MetricsRegistry.from_dict(delta))
            except (ValueError, KeyError, TypeError):
                pass
        if seq > self.max_seq:
            self.max_seq = seq
            self.latest = record
            self.role = record.get("role", "worker")
        events = record.get("events_fired")
        wall = record.get("wall")
        if isinstance(wall, (int, float)) and self.first_wall is None:
            self.first_wall = float(wall)
        if isinstance(events, (int, float)) and isinstance(wall, (int, float)):
            self.samples.append((float(wall), float(events)))
            if len(self.samples) > 512:
                del self.samples[:256]


def _windowed_rate(
    samples: List[Tuple[float, float]], now: float, window: float
) -> float:
    """Cumulative-counter rate over the trailing ``window`` seconds."""
    if len(samples) < 2:
        return 0.0
    latest_wall, latest_value = samples[-1]
    if now - latest_wall > window:
        return 0.0  # stream went quiet; don't report a stale rate
    ref_wall, ref_value = samples[0]
    for wall, value in samples:
        if wall < latest_wall - window:
            ref_wall, ref_value = wall, value
        else:
            break
    if latest_wall <= ref_wall:
        return 0.0
    return max(0.0, (latest_value - ref_value) / (latest_wall - ref_wall))


class LiveFolder:
    """Tails a run directory's op-log and folds it into KPI snapshots.

    A fold describes the directory's latest campaign: the op-log
    ``campaign`` record with the greatest wall time names it, op-log
    streams that began before that record belong to an earlier run,
    and committed shard files are adopted through the shard ledger
    (:func:`~repro.experiments.shard.read_committed_shard` checks each
    file against the campaign's config,
    :func:`~repro.experiments.shard.adopt_disjoint` picks disjoint
    ranges — the resume planner's rules).  Until a campaign record
    appears, no shard is adopted.

    Incremental: op-log files are read from their last offset, and each
    committed shard file is loaded and folded into the streaming
    accumulators exactly once.  Folding is exactly-once under resume —
    a range is adopted at most once, and a committed shard's op-log
    stream is excluded from the live-delta merge via its wire-carried
    stream id.
    """

    def __init__(self, run_dir: str, window: float = 60.0) -> None:
        self.run_dir = run_dir
        self.window = window
        self.reader = OpLogReader(live_dir_for(run_dir))
        self._streams: Dict[str, _StreamState] = {}
        self._campaign: Dict[str, Any] = {}
        self._coordinator: Dict[str, Any] = {}
        self._first_wall: Optional[float] = None
        self._trend: List[float] = []
        self._reset_committed(None)

    def _reset_committed(self, campaign: Optional[Dict[str, Any]]) -> None:
        """Start the committed-shard fold over for ``campaign``'s config."""
        self._ledger_campaign = campaign
        self._folded_files: set = set()
        #: Rejected files by name -> mtime: commits land by atomic
        #: rename, so a file is re-read only once it has been replaced.
        self._rejected: Dict[str, int] = {}
        self._accumulator = None  # merged CampaignAccumulator
        self._ingest = None  # merged IngestReport
        self._committed_ranges: List[Tuple[int, int]] = []
        self._committed_events = 0
        self._committed_streams: set = set()
        self._committed_metrics: List[Dict[str, Any]] = []

    # -- op-log ------------------------------------------------------------------

    def _ingest_records(self) -> None:
        for record in self.reader.read_new():
            kind = record.get("kind")
            wall = record.get("wall")
            if not isinstance(wall, (int, float)):
                wall = 0.0
            elif self._first_wall is None or wall < self._first_wall:
                self._first_wall = wall
            if kind == "campaign":
                if wall >= self._campaign.get("wall", wall):
                    self._campaign = record
            elif kind == "coordinator":
                if wall >= self._coordinator.get("wall", wall):
                    self._coordinator = record
            elif kind in ("start", "heartbeat", "end"):
                stream = record.get("stream")
                if not isinstance(stream, str):
                    continue
                state = self._streams.get(stream)
                if state is None:
                    state = self._streams[stream] = _StreamState()
                state.fold(record)

    # -- committed shards --------------------------------------------------------

    def _scan_committed(self) -> None:
        """Fold newly committed shard files of the campaign, once each."""
        # Imported lazily: experiments.shard imports the fleet, which
        # imports this module's writer hook.
        from repro.experiments.shard import (
            CommittedShard,
            adopt_disjoint,
            read_committed_shard,
        )

        campaign = self._campaign.get("config")
        if not isinstance(campaign, dict) or not os.path.isdir(self.run_dir):
            return
        if campaign != self._ledger_campaign:
            self._reset_committed(campaign)
        fresh: Dict[str, Any] = {}
        for name in sorted(os.listdir(self.run_dir)):
            if not name.endswith(".json") or name in self._folded_files:
                continue
            path = os.path.join(self.run_dir, name)
            try:
                stamp = os.stat(path).st_mtime_ns
            except OSError:
                continue
            if self._rejected.get(name) == stamp:
                continue
            try:
                fresh[name] = read_committed_shard(path, campaign)
            except ValueError:
                self._rejected[name] = stamp  # another campaign's, or corrupt
        self._folded_files.update(fresh)
        adopted = adopt_disjoint(
            [
                CommittedShard(result.phone_range, name)
                for name, result in fresh.items()
            ],
            taken=self._committed_ranges,
        )
        for shard in adopted:
            result = fresh[shard.path]
            self._committed_ranges.append(result.phone_range)
            self._committed_events += result.events_fired
            if result.stream:
                self._committed_streams.add(result.stream)
            if result.telemetry:
                self._committed_metrics.append(
                    result.telemetry.get("metrics", {})
                )
            if self._accumulator is None:
                self._accumulator = result.accumulator
            else:
                self._accumulator = self._accumulator.merge(result.accumulator)
            if self._ingest is None:
                self._ingest = result.ingest
            else:
                self._ingest = self._ingest.merge(result.ingest)
        self._committed_ranges.sort()

    # -- KPIs --------------------------------------------------------------------

    def _headline(self) -> Dict[str, float]:
        if self._accumulator is None or self._accumulator.phone_count == 0:
            return {}
        sections = self._accumulator.sections()
        availability = sections["availability"]
        panics = sections["panics"]
        return {
            "mtbf_freeze_hours": availability["mtbf_freeze_hours"],
            "mtbf_self_shutdown_hours": availability[
                "mtbf_self_shutdown_hours"
            ],
            "failure_interval_days": availability["failure_interval_days"],
            "access_violation_percent": panics["access_violation_percent"],
            "heap_management_percent": panics["heap_management_percent"],
            "hl_related_percent": sections["hl"]["related_percent"],
            "cascade_panic_percent": sections["bursts"][
                "cascade_panic_percent"
            ],
        }

    def fold(self, now: Optional[float] = None) -> LiveSnapshot:
        """One pass: tail the op-log, adopt new commits, compute KPIs."""
        if now is None:
            now = time.time()
        self._ingest_records()
        self._scan_committed()

        snapshot = LiveSnapshot(wall=now)
        snapshot.campaign = {
            key: value
            for key, value in self._campaign.items()
            if key not in ("v", "kind", "role", "wall")
        }
        snapshot.coordinator = {
            key: value
            for key, value in self._coordinator.items()
            if key not in ("v", "kind", "role", "wall")
        }
        snapshot.total_phones = int(snapshot.campaign.get("phones", 0))
        snapshot.committed_ranges = list(self._committed_ranges)
        snapshot.committed_shards = len(self._committed_ranges)
        snapshot.committed_phones = sum(
            stop - start for start, stop in self._committed_ranges
        )
        snapshot.kpis = self._headline()
        if self._ingest is not None:
            snapshot.quarantined_lines = self._ingest.quarantined
        if self._accumulator is not None:
            snapshot.ingested_records = self._accumulator.record_count

        committed_phone_set = self._committed_ranges
        events = self._committed_events
        equivalent = float(snapshot.committed_phones)
        rate = 0.0
        live_metrics: List[Dict[str, Any]] = list(self._committed_metrics)
        began = self._campaign.get("wall")
        for stream_id, state in sorted(self._streams.items()):
            if (
                isinstance(began, (int, float))
                and state.first_wall is not None
                and state.first_wall < began
            ):
                continue  # an earlier run's stream
            phone_range = state.latest.get("phone_range")
            span: Optional[Tuple[int, int]] = None
            if (
                isinstance(phone_range, list)
                and len(phone_range) == 2
                and all(isinstance(edge, int) for edge in phone_range)
            ):
                span = (phone_range[0], phone_range[1])
            committed = stream_id in self._committed_streams or (
                span is not None
                and any(
                    span[0] >= start and span[1] <= stop
                    for start, stop in committed_phone_set
                )
            )
            done = committed or state.latest.get("kind") == "end"
            row = WorkerRow(
                stream=stream_id,
                role=state.role,
                phone_range=span,
                sim_now=float(state.latest.get("sim_now", 0.0) or 0.0),
                duration=float(state.latest.get("duration", 0.0) or 0.0),
                events_fired=int(state.latest.get("events_fired", 0) or 0),
                events_per_second=_windowed_rate(
                    state.samples, now, self.window
                ),
                rss_kb=int(state.latest.get("rss_kb", 0) or 0),
                wall=float(state.latest.get("wall", 0.0) or 0.0),
                done=done,
            )
            if not committed:
                # In-flight: counts toward totals; committed streams are
                # already represented by their durable ShardResult.
                events += row.events_fired
                if span is not None:
                    equivalent += (span[1] - span[0]) * row.progress
                rate += row.events_per_second
                if state.metrics:
                    live_metrics.append(state.metrics.to_dict())
            snapshot.workers.append(row)
        snapshot.workers = [row for row in snapshot.workers if not row.done] + [
            row for row in snapshot.workers if row.done
        ]
        snapshot.events_fired = events
        snapshot.events_per_second = rate
        snapshot.phones_equivalent = min(
            equivalent,
            float(snapshot.total_phones) if snapshot.total_phones else equivalent,
        )
        snapshot.metrics = merge_registries(
            metrics for metrics in live_metrics if metrics
        )

        if snapshot.total_phones and self._first_wall is not None:
            elapsed = max(now - self._first_wall, 1e-9)
            remaining = snapshot.total_phones - snapshot.phones_equivalent
            phone_rate = snapshot.phones_equivalent / elapsed
            if remaining <= 0:
                snapshot.eta_seconds = 0.0
            elif phone_rate > 0:
                snapshot.eta_seconds = remaining / phone_rate

        self._trend.append(rate)
        if len(self._trend) > 240:
            del self._trend[:120]
        snapshot.trend = list(self._trend)
        return snapshot


# -- coordinator-side live plane ------------------------------------------------


class LiveCoordinator:
    """The workqueue coordinator's live duties, wall-clock throttled.

    Heartbeats executor state (pending/in-flight work, steal/retry/
    restart/watchdog counts, coordinator RSS) into the op-log, and
    periodically tails + folds the whole op-log into a
    :class:`LiveSnapshot` — writing ``metrics.prom`` and invoking the
    ``progress`` callback on each fold.
    """

    def __init__(
        self,
        live_dir: str,
        stats: Optional[Any] = None,
        progress: Optional["ProgressCallback"] = None,
        beat_interval: float = 0.5,
        fold_interval: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.run_dir = os.path.dirname(os.path.abspath(live_dir))
        self.writer = OpLogWriter(live_dir, role="coordinator")
        self.folder = LiveFolder(self.run_dir)
        self.stats = stats
        self.progress = progress
        self.beat_interval = beat_interval
        self.fold_interval = fold_interval
        self.clock = clock
        self._last_beat: Optional[float] = None
        self._last_fold: Optional[float] = None

    def tick(
        self,
        pending: int = 0,
        inflight: int = 0,
        workers: int = 0,
        force: bool = False,
    ) -> Optional[LiveSnapshot]:
        now = self.clock()
        if force or _due(self._last_beat, now, self.beat_interval):
            self._last_beat = now
            fields: Dict[str, Any] = {
                "pending": pending,
                "inflight": inflight,
                "workers": workers,
                "rss_kb": _peak_rss_kb(),
            }
            if self.stats is not None:
                fields.update(
                    steals=self.stats.steals,
                    task_retries=self.stats.task_retries,
                    resumed_shards=self.stats.resumed_shards,
                    worker_restarts=self.stats.worker_restarts,
                    watchdog_fires=self.stats.watchdog_fires,
                )
            self.writer.coordinator(**fields)
        if force or _due(self._last_fold, now, self.fold_interval):
            self._last_fold = now
            snapshot = self.folder.fold()
            write_prom_snapshot(self.run_dir, snapshot)
            if self.progress is not None:
                self.progress(snapshot)
            return snapshot
        return None

    def close(self) -> None:
        self.writer.close()


# -- prometheus exposition ------------------------------------------------------

#: Coordinator heartbeat fields exported as executor gauges.
_COORDINATOR_GAUGES = (
    "steals",
    "task_retries",
    "worker_restarts",
    "watchdog_fires",
    "resumed_shards",
    "inflight",
    "pending",
)


def prom_gauges(snapshot: LiveSnapshot) -> Dict[str, float]:
    """The fold's KPI scalars as flat Prometheus gauge values."""
    gauges: Dict[str, float] = {
        "live_phones_total": float(snapshot.total_phones),
        "live_phones_committed": float(snapshot.committed_phones),
        "live_phones_equivalent": float(snapshot.phones_equivalent),
        "live_shards_committed": float(snapshot.committed_shards),
        "live_events_fired": float(snapshot.events_fired),
        "live_events_per_second": float(snapshot.events_per_second),
        "live_quarantined_lines": float(snapshot.quarantined_lines),
        "live_quarantine_rate": float(snapshot.quarantine_rate),
        "live_active_streams": float(
            sum(1 for row in snapshot.workers if not row.done)
        ),
    }
    if snapshot.eta_seconds is not None:
        gauges["live_eta_seconds"] = float(snapshot.eta_seconds)
    for key, value in snapshot.kpis.items():
        gauges[f"live_kpi_{key}"] = float(value)
    for key in _COORDINATOR_GAUGES:
        value = snapshot.coordinator.get(key)
        if isinstance(value, (int, float)):
            gauges[f"live_executor_{key}"] = float(value)
    return gauges


def write_prom_snapshot(run_dir: str, snapshot: LiveSnapshot) -> str:
    """Write ``<run_dir>/metrics.prom`` atomically; returns the text."""
    from repro.observability.prom import write_prometheus

    return write_prometheus(
        os.path.join(run_dir, "metrics.prom"),
        snapshot.metrics,
        prom_gauges(snapshot),
    )


# -- rendering ------------------------------------------------------------------

_SPARK_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 32) -> str:
    """Unicode block sparkline of the trailing ``width`` samples."""
    tail = [max(0.0, value) for value in values[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARK_BARS[0] * len(tail)
    scale = len(_SPARK_BARS) - 1
    return "".join(
        _SPARK_BARS[min(scale, int(round(value / top * scale)))]
        for value in tail
    )


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _fmt_range(span: Optional[Tuple[int, int]]) -> str:
    if span is None:
        return "--"
    return f"[{span[0]},{span[1]})"


def render_dashboard(snapshot: LiveSnapshot, width: int = 78) -> str:
    """The ``repro monitor`` terminal view of one fold."""
    lines: List[str] = []
    campaign = snapshot.campaign
    title = "repro monitor"
    if campaign:
        title += (
            f" · {campaign.get('phones', '?')} phones"
            f" · {campaign.get('shards', '?')} shards"
            f" · seed {campaign.get('seed', '?')}"
        )
    lines.append(title)
    lines.append("=" * min(width, max(len(title), 40)))

    total = snapshot.total_phones
    done = snapshot.committed_phones
    pct = 100.0 * snapshot.phones_equivalent / total if total else 0.0
    lines.append(
        f"progress   {done}/{total or '?'} phones committed"
        f" ({snapshot.committed_shards} shards)"
        f" · {pct:5.1f}% fleet-equivalent"
        f" · ETA {_fmt_duration(snapshot.eta_seconds)}"
    )
    lines.append(
        f"throughput {snapshot.events_per_second:,.0f} events/s"
        f" · {snapshot.events_fired:,} events"
        f" · quarantine {100.0 * snapshot.quarantine_rate:.3f}%"
        f" ({snapshot.quarantined_lines}/{snapshot.ingested_records + snapshot.quarantined_lines})"
    )
    if snapshot.trend:
        lines.append(f"trend      {sparkline(snapshot.trend)}")

    if snapshot.kpis:
        kpis = snapshot.kpis
        lines.append("")
        lines.append(
            f"rolling KPIs over {snapshot.committed_phones} committed phones:"
        )
        lines.append(
            f"  MTBF freeze {kpis['mtbf_freeze_hours']:8.1f} h"
            f" · MTBF self-shutdown {kpis['mtbf_self_shutdown_hours']:8.1f} h"
            f" · failure interval {kpis['failure_interval_days']:6.2f} d"
        )
        lines.append(
            f"  panic mix: access violation {kpis['access_violation_percent']:5.1f}%"
            f" · heap {kpis['heap_management_percent']:5.1f}%"
            f" · HL-related {kpis['hl_related_percent']:5.1f}%"
            f" · cascades {kpis['cascade_panic_percent']:5.1f}%"
        )

    coordinator = snapshot.coordinator
    if coordinator:
        lines.append("")
        lines.append(
            "executor   "
            + " · ".join(
                f"{key} {coordinator[key]}"
                for key in (
                    "steals",
                    "task_retries",
                    "worker_restarts",
                    "watchdog_fires",
                    "resumed_shards",
                    "inflight",
                    "pending",
                )
                if key in coordinator
            )
        )

    active = [row for row in snapshot.workers if not row.done]
    if active:
        lines.append("")
        lines.append(
            f"{'stream':<28} {'range':>14} {'sim%':>6} "
            f"{'events':>12} {'ev/s':>10} {'rss MiB':>8}"
        )
        for row in active[:16]:
            lines.append(
                f"{row.stream[:28]:<28} {_fmt_range(row.phone_range):>14} "
                f"{100.0 * row.progress:5.1f}% {row.events_fired:>12,} "
                f"{row.events_per_second:>10,.0f} {row.rss_kb / 1024.0:>8.1f}"
            )
        if len(active) > 16:
            lines.append(f"  … {len(active) - 16} more active streams")
    done_rows = [row for row in snapshot.workers if row.done]
    if done_rows:
        lines.append(f"finished   {len(done_rows)} streams")
    return "\n".join(lines)


# -- progress lines (--live) ----------------------------------------------------


def progress_line(snapshot: LiveSnapshot) -> str:
    """One-line campaign progress summary for ``--live`` output."""
    total = snapshot.total_phones
    pct = 100.0 * snapshot.phones_equivalent / total if total else 0.0
    parts = [
        f"live: {snapshot.committed_phones}/{total or '?'} phones committed",
        f"{pct:.1f}% fleet-equivalent",
        f"{snapshot.events_per_second:,.0f} ev/s",
        f"ETA {_fmt_duration(snapshot.eta_seconds)}",
    ]
    kpis = snapshot.kpis
    if kpis:
        parts.append(f"MTBF-freeze {kpis['mtbf_freeze_hours']:.1f}h")
    return " · ".join(parts)


ProgressCallback = Callable[[LiveSnapshot], None]
