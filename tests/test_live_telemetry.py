"""The live telemetry plane (:mod:`repro.observability.live`).

Three contracts under test:

1. **Durability** — op-log records survive exactly as written: a reader
   never consumes a torn tail, and replayed/duplicated records fold
   idempotently (exactly-once per ``(stream, seq)``, including across
   kill -9 resume where a range has streams from several attempts).
2. **Purity** — live mode changes nothing: a ``--live`` run's merged
   summary is bit-identical to a non-live run and to the monolithic
   pipeline, resume included (the differential gate).
3. **Exposition** — the Prometheus snapshot and the dashboard render
   what the fold computed, and executor-category trace events land in
   their own Chrome-trace process group (pid 3) only when present.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import MONTH
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import run_sharded_campaign
from repro.experiments.summary import CampaignSummary
from repro.observability.export import (
    PID_EXEC,
    PID_SIM,
    PID_WALL,
    chrome_trace,
    validate_chrome_trace,
)
from repro.observability.live import (
    LiveCoordinator,
    LiveFolder,
    OpLogReader,
    OpLogWriter,
    current_live_writer,
    install_live_writer,
    live_dir_for,
    progress_line,
    prom_gauges,
    render_dashboard,
    sparkline,
    write_prom_snapshot,
)
from repro.observability.metrics import MetricsRegistry, merge_registries
from repro.observability.prom import prometheus_text, write_prometheus
from repro.observability.telemetry import TELEMETRY_TRACE, Telemetry
from repro.phone.fleet import FleetConfig


def make_config(phones: int = 20, seed: int = 4242) -> CampaignConfig:
    fleet = FleetConfig(
        phone_count=phones,
        duration=MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.15,
    )
    return CampaignConfig(fleet=fleet, seed=seed)


def canonical(summary_dict: dict) -> str:
    return json.dumps(summary_dict, sort_keys=True)


class FakeClock:
    """A monotonic clock the test moves by hand."""

    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def config() -> CampaignConfig:
    return make_config()


@pytest.fixture(scope="module")
def monolithic(config) -> CampaignSummary:
    return CampaignSummary.from_result(run_campaign(config))


# -- op-log durability ----------------------------------------------------------


class TestOpLog:
    def test_round_trip(self, tmp_path):
        live = str(tmp_path / "live")
        writer = OpLogWriter(live, role="worker", min_interval=0.0)
        writer.begin_stream((0, 10), 100.0)
        assert writer.heartbeat(sim_now=50.0, events_fired=7)
        writer.end_stream(sim_now=100.0, events_fired=11)
        writer.close()

        records = OpLogReader(live).read_new()
        kinds = [record["kind"] for record in records]
        assert kinds == ["start", "heartbeat", "end"]
        assert [record["seq"] for record in records] == [0, 1, 2]
        stream = records[0]["stream"]
        assert all(record["stream"] == stream for record in records)
        assert records[1]["events_fired"] == 7
        assert records[2]["events_fired"] == 11

    def test_reader_skips_torn_tail(self, tmp_path):
        live = str(tmp_path / "live")
        writer = OpLogWriter(live, role="worker")
        writer.record("campaign", phones=10)
        writer.close()
        # A crash mid-write: a trailing fragment with no newline.
        with open(writer.path, "ab") as handle:
            handle.write(b'{"v": 1, "kind": "heartbeat", "tr')

        reader = OpLogReader(live)
        first = reader.read_new()
        assert [record["kind"] for record in first] == ["campaign"]
        # The torn tail stays pending until it completes...
        assert reader.read_new() == []
        with open(writer.path, "ab") as handle:
            handle.write(b'uncated": true}\n')
        # ...then the (garbled but complete) line parses or is skipped
        # as one unit; either way nothing before it is re-read.
        resumed = reader.read_new()
        assert len(resumed) <= 1

    def test_reader_skips_garbage_lines(self, tmp_path):
        live = str(tmp_path / "live")
        writer = OpLogWriter(live, role="worker")
        writer.record("campaign", phones=10)
        with open(writer.path, "ab") as handle:
            handle.write(b"not json at all\n")
        writer.record("coordinator", pending=3)
        writer.close()
        kinds = [r["kind"] for r in OpLogReader(live).read_new()]
        assert kinds == ["campaign", "coordinator"]

    @pytest.mark.parametrize("uptime", [0.0, 5.0, 1e6])
    def test_heartbeat_throttling(self, tmp_path, uptime):
        """The first heartbeat is never throttled, however young the
        monotonic clock (a freshly booted host starts it near 0)."""
        clock = FakeClock(uptime)
        writer = OpLogWriter(
            str(tmp_path / "live"), role="worker", min_interval=3600.0,
            clock=clock,
        )
        writer.begin_stream((0, 5), 10.0)
        assert writer.heartbeat(events_fired=1)
        clock.now += 10.0
        assert not writer.heartbeat(events_fired=2)  # throttled
        assert writer.heartbeat(throttled=False, events_fired=3)
        clock.now += 3600.0
        assert writer.heartbeat(events_fired=4)
        writer.close()

    @pytest.mark.parametrize("uptime", [0.0, 1.0, 1e6])
    def test_coordinator_first_tick_beats_and_folds(self, tmp_path, uptime):
        clock = FakeClock(uptime)
        coordinator = LiveCoordinator(
            live_dir_for(str(tmp_path)), clock=clock
        )
        try:
            assert coordinator.tick(pending=3) is not None  # folded
            clock.now += 0.1
            assert coordinator.tick(pending=2) is None  # throttled
            clock.now += 2.0
            assert coordinator.tick(pending=1) is not None
        finally:
            coordinator.close()
        beats = [
            record["pending"]
            for record in OpLogReader(live_dir_for(str(tmp_path))).read_new()
            if record["kind"] == "coordinator"
        ]
        assert beats == [3, 1]

    def test_install_and_current(self, tmp_path):
        assert current_live_writer() is None
        writer = OpLogWriter(str(tmp_path / "live"))
        previous = install_live_writer(writer)
        try:
            assert previous is None
            assert current_live_writer() is writer
        finally:
            install_live_writer(previous)
            writer.close()
        assert current_live_writer() is None


# -- registry delta snapshots ---------------------------------------------------


class TestDeltaDict:
    def test_counter_gauge_histogram_deltas(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(5.0)
        registry.gauge("depth").set(3.0)
        registry.histogram("lat", bounds=(1.0, 10.0)).observe(0.5)
        base = registry.to_dict()

        registry.counter("events").inc(2.0)
        registry.gauge("depth").set(9.0)
        registry.histogram("lat", bounds=(1.0, 10.0)).observe(5.0)
        delta = registry.delta_dict(base)

        assert delta["events"]["series"][0]["value"] == 2.0
        assert delta["depth"]["series"][0]["value"] == 6.0
        lat = delta["lat"]["series"][0]
        assert lat["count"] == 1
        assert lat["buckets"] == [0, 1, 0]

    def test_unchanged_series_dropped(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(1.0)
        registry.counter("b").inc(1.0)
        base = registry.to_dict()
        registry.counter("a").inc(1.0)
        delta = registry.delta_dict(base)
        assert "a" in delta and "b" not in delta

    def test_summed_deltas_reconstruct_cumulative(self):
        """base + sum(deltas) == final — the fold's core identity."""
        registry = MetricsRegistry()
        snapshots = []
        base = registry.to_dict()
        for round_number in range(1, 4):
            registry.counter("events").inc(float(round_number))
            registry.histogram("lat", bounds=(1.0,)).observe(round_number)
            snapshots.append(registry.delta_dict(base))
            base = registry.to_dict()
        folded = merge_registries(snapshots)
        assert folded.to_dict() == registry.to_dict()


# -- exactly-once fold ----------------------------------------------------------


def _write_stream(
    live_dir: str,
    phone_range,
    deltas,
    role: str = "worker",
) -> str:
    """One op-log stream whose heartbeats carry counter deltas."""
    registry = MetricsRegistry()
    writer = OpLogWriter(live_dir, role=role, min_interval=0.0)
    writer.begin_stream(phone_range, 100.0, registry=registry)
    for delta in deltas:
        registry.counter("events").inc(delta)
        writer.heartbeat(
            phone_range=list(phone_range),
            sim_now=50.0,
            duration=100.0,
            events_fired=int(sum(deltas)),
        )
    stream = writer.stream_id
    writer.end_stream(phone_range=list(phone_range))
    writer.close()
    return stream


class TestExactlyOnceFold:
    def test_deltas_fold_once(self, tmp_path):
        live = live_dir_for(str(tmp_path))
        _write_stream(live, (0, 10), [3.0, 4.0])
        snapshot = LiveFolder(str(tmp_path)).fold()
        totals = snapshot.metrics.counter_totals()
        assert totals.get("events") == 7.0

    def test_refolding_is_idempotent(self, tmp_path):
        live = live_dir_for(str(tmp_path))
        _write_stream(live, (0, 10), [3.0, 4.0])
        folder = LiveFolder(str(tmp_path))
        first = folder.fold()
        second = folder.fold()  # no new records
        assert (
            second.metrics.counter_totals() == first.metrics.counter_totals()
        )

    def test_duplicated_records_fold_once(self, tmp_path):
        """A replayed op-log file (same stream id, same seqs) is inert."""
        live = live_dir_for(str(tmp_path))
        _write_stream(live, (0, 10), [3.0, 4.0])
        source = sorted(os.listdir(live))[0]
        with open(os.path.join(live, source), "rb") as handle:
            payload = handle.read()
        with open(os.path.join(live, "worker-0-0.jsonl"), "wb") as handle:
            handle.write(payload)
        snapshot = LiveFolder(str(tmp_path)).fold()
        assert snapshot.metrics.counter_totals().get("events") == 7.0

    @settings(max_examples=20, deadline=None)
    @given(
        splits=st.lists(
            st.floats(min_value=0.5, max_value=8.0), min_size=1, max_size=6
        ),
        attempts=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_readopted_ranges_never_double_fold(
        self, tmp_path_factory, splits, attempts, data
    ):
        """Satellite: gauge/counter semantics under resume.

        A killed range may leave op-log streams from several attempts;
        however the attempts' records interleave across files, the fold
        adopts each phone range at most once, so the folded counter
        total never exceeds one attempt's cumulative sum.
        """
        tmp_path = tmp_path_factory.mktemp("interleave")
        live = live_dir_for(str(tmp_path))
        for _attempt in range(attempts):
            order = data.draw(st.permutations(list(range(len(splits)))))
            _write_stream(live, (0, 10), [splits[i] for i in order])
        snapshot = LiveFolder(str(tmp_path)).fold()
        total = snapshot.metrics.counter_totals().get("events", 0.0)
        # Streams for the same uncommitted range all stay live (none is
        # committed), so the fold sees every attempt — but each at most
        # once: the total is exactly attempts * sum(splits), not more.
        assert total == pytest.approx(attempts * sum(splits))
        # Once ANY attempt commits the range, live streams for it are
        # excluded wholesale and only the committed snapshot counts.

    def test_committed_stream_subsumes_live_deltas(self, tmp_path, config):
        """After a shard commits, its op-log stream must not double into
        the fold: the committed telemetry snapshot is the truth."""
        run_sharded_campaign(
            config,
            shards=2,
            workers=2,
            executor="workqueue",
            spill_dir=str(tmp_path),
            telemetry_level="metrics",
            live=True,
        )
        folder = LiveFolder(str(tmp_path))
        snapshot = folder.fold()
        assert snapshot.committed_phones == config.fleet.phone_count
        # Every stream is committed; none contributes live deltas, so
        # folded metrics equal the merged committed snapshots exactly.
        committed = merge_registries(folder._committed_metrics)
        assert (
            snapshot.metrics.counter_totals() == committed.counter_totals()
        )
        for row in snapshot.workers:
            assert row.done


# -- the differential gate ------------------------------------------------------


class TestLiveIsPureObserver:
    def test_live_run_is_bit_identical(self, tmp_path, config, monolithic):
        live_result = run_sharded_campaign(
            config,
            shards=3,
            workers=2,
            executor="workqueue",
            spill_dir=str(tmp_path / "live_run"),
            live=True,
        )
        plain_result = run_sharded_campaign(
            config,
            shards=3,
            workers=2,
            executor="workqueue",
            spill_dir=str(tmp_path / "plain_run"),
        )
        assert canonical(live_result.summary.to_dict()) == canonical(
            plain_result.summary.to_dict()
        )
        assert canonical(live_result.summary.to_dict()) == canonical(
            monolithic.to_dict()
        )
        run_dir = tmp_path / "live_run"
        assert (run_dir / "live").is_dir()
        assert (run_dir / "metrics.prom").is_file()
        assert not (tmp_path / "plain_run" / "live").exists()

    def test_resume_with_live_is_bit_identical(
        self, tmp_path, config, monolithic
    ):
        """The kill-9 differential: lose committed shards, resume with
        --live still on, land on the same bits — with op-log streams
        from both attempts on disk."""
        run_sharded_campaign(
            config, shards=4, workers=2, executor="workqueue",
            spill_dir=str(tmp_path), live=True,
        )
        files = sorted(
            name for name in os.listdir(tmp_path) if name.endswith(".json")
        )
        assert len(files) == 4
        for name in files[:2]:
            os.remove(tmp_path / name)
        resumed = run_sharded_campaign(
            config, shards=4, workers=2, executor="workqueue",
            spill_dir=str(tmp_path), live=True,
        )
        assert resumed.stats.resumed_shards == 2
        assert canonical(resumed.summary.to_dict()) == canonical(
            monolithic.to_dict()
        )
        # The monitor renders the finished run from its durable op-log.
        snapshot = LiveFolder(str(tmp_path)).fold()
        assert snapshot.committed_phones == config.fleet.phone_count
        assert "phones committed" in render_dashboard(snapshot)

    def test_live_in_process_matches(self, tmp_path, config, monolithic):
        result = run_sharded_campaign(
            config,
            shards=3,
            workers=1,
            spill_dir=str(tmp_path),
            live=True,
        )
        assert canonical(result.summary.to_dict()) == canonical(
            monolithic.to_dict()
        )
        snapshot = LiveFolder(str(tmp_path)).fold()
        assert snapshot.committed_ranges == result.shard_ranges

    def test_live_without_run_dir_folds_private_dir(self, config, monolithic):
        snapshots = []
        result = run_sharded_campaign(
            config, shards=2, workers=2, live=True, progress=snapshots.append
        )
        assert canonical(result.summary.to_dict()) == canonical(
            monolithic.to_dict()
        )
        assert snapshots[-1].committed_phones == config.fleet.phone_count

    def test_fold_ignores_another_campaigns_shards(self, tmp_path):
        """Two campaigns' shards in one directory: the fold reports the
        latest campaign's committed ranges and KPIs, never the other's
        (a wider stale shard used to win the greedy adoption)."""
        run_sharded_campaign(
            make_config(seed=1), shards=2, workers=2,
            spill_dir=str(tmp_path), live=True,
        )
        second = run_sharded_campaign(
            make_config(seed=2), shards=4, workers=2,
            spill_dir=str(tmp_path), live=True,
        )
        folder = LiveFolder(str(tmp_path))
        snapshot = folder.fold()
        assert snapshot.campaign["seed"] == 2
        assert snapshot.committed_ranges == second.shard_ranges
        assert snapshot.kpis["mtbf_freeze_hours"] == (
            second.summary.availability["mtbf_freeze_hours"]
        )
        assert snapshot.events_fired == second.events_fired
        # The first campaign's two shards are rejected once and skipped
        # by later folds until a file is replaced.
        assert len(folder._rejected) == 2
        assert folder.fold().committed_ranges == second.shard_ranges

    def test_shard_wire_carries_stream_linkage(self, tmp_path, config):
        from repro.experiments.shard import load_shard_file
        run_sharded_campaign(
            config, shards=2, workers=2, executor="workqueue",
            spill_dir=str(tmp_path), live=True,
        )
        for name in sorted(os.listdir(tmp_path)):
            if not name.endswith(".json"):
                continue
            result = load_shard_file(os.path.join(str(tmp_path), name))
            assert result.stream  # v3 wire linkage
            assert result.delta_seq >= 1


# -- prometheus exposition ------------------------------------------------------


class TestPrometheus:
    def test_counter_gauge_histogram_text(self):
        registry = MetricsRegistry()
        registry.counter("sim.events", help="events fired").inc(42.0)
        registry.gauge("queue.depth").set(7.0)
        registry.histogram("lat", bounds=(1.0, 10.0)).observe(0.5)
        registry.histogram("lat", bounds=(1.0, 10.0)).observe(5.0)
        text = prometheus_text(registry)
        assert "# TYPE repro_sim_events_total counter" in text
        assert "repro_sim_events_total 42" in text
        assert "repro_queue_depth 7" in text
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="10"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_count 2" in text

    def test_labels_escaped_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(1.0, zone="a\"b", name="x")
        text = prometheus_text(registry)
        assert 'name="x"' in text and 'zone="a\\"b"' in text

    def test_extra_gauges_and_atomic_write(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        text = write_prometheus(path, extra_gauges={"live_eta_seconds": 12.5})
        assert os.path.isfile(path)
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == text
        assert "repro_live_eta_seconds 12.5" in text
        assert not [
            name for name in os.listdir(tmp_path) if name.endswith(".tmp")
        ]

    def test_snapshot_gauges(self, tmp_path, config):
        run_sharded_campaign(
            config, shards=2, workers=2, executor="workqueue",
            spill_dir=str(tmp_path), live=True,
        )
        snapshot = LiveFolder(str(tmp_path)).fold()
        gauges = prom_gauges(snapshot)
        assert gauges["live_phones_committed"] == config.fleet.phone_count
        assert gauges["live_shards_committed"] == 2.0
        text = write_prom_snapshot(str(tmp_path), snapshot)
        assert "repro_live_phones_committed 20" in text
        assert "repro_live_kpi_mtbf_freeze_hours" in text


# -- rendering ------------------------------------------------------------------


class TestRendering:
    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 1.0, 2.0, 4.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_dashboard_and_progress_line(self, tmp_path, config):
        run_sharded_campaign(
            config, shards=2, workers=2, executor="workqueue",
            spill_dir=str(tmp_path), live=True,
        )
        snapshot = LiveFolder(str(tmp_path)).fold()
        text = render_dashboard(snapshot)
        assert "20/20 phones committed" in text
        assert "MTBF freeze" in text
        assert "executor" in text
        line = progress_line(snapshot)
        assert line.startswith("live: ")
        assert "20/20 phones committed" in line

    def test_empty_fold_renders(self, tmp_path):
        snapshot = LiveFolder(str(tmp_path)).fold()
        assert "0 events" in render_dashboard(snapshot)
        assert progress_line(snapshot)


# -- executor process group in the chrome trace ---------------------------------


class TestExecutorTraceGroup:
    def test_executor_events_get_pid3(self):
        tel = Telemetry(TELEMETRY_TRACE)
        with tel.installed():
            with tel.span("campaign", category="stage"):
                with tel.span(
                    "executor.run", category="executor", track="executor"
                ):
                    tel.instant(
                        "steal split", category="executor", track="executor"
                    )
                    tel.instant(
                        "worker respawn", category="executor", track="executor"
                    )
        trace = chrome_trace(tel.tracer, tel.registry)
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        exec_events = [
            e for e in events if e["pid"] == PID_EXEC and e["ph"] != "M"
        ]
        names = {e["name"] for e in exec_events}
        assert names == {"executor.run", "steal split", "worker respawn"}
        # Executor events render on the wall timeline only: exactly one
        # X event for the span, instants as "i".
        assert sum(1 for e in exec_events if e["ph"] == "X") == 1
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert PID_EXEC in process_names
        assert "executor" in process_names[PID_EXEC]

    def test_no_executor_events_no_pid3(self):
        tel = Telemetry(TELEMETRY_TRACE)
        with tel.installed():
            with tel.span("campaign", category="stage"):
                pass
        trace = chrome_trace(tel.tracer, tel.registry)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {PID_WALL, PID_SIM}

    def test_workqueue_run_emits_executor_span(self, tmp_path, config):
        tel = Telemetry(TELEMETRY_TRACE)
        with tel.installed():
            run_sharded_campaign(
                config,
                shards=2,
                workers=2,
                executor="workqueue",
                spill_dir=str(tmp_path),
            )
        trace = chrome_trace(tel.tracer, tel.registry)
        assert validate_chrome_trace(trace) == []
        exec_names = {
            e["name"]
            for e in trace["traceEvents"]
            if e["pid"] == PID_EXEC and e["ph"] != "M"
        }
        assert "executor.run" in exec_names
