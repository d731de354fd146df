"""Telemetry layer: registry semantics, tracing, export, determinism.

The acceptance bar mirrors the sweep runner's: telemetry must be a pure
observer.  Same seed => identical counter values and identical sim-time
span trees across repeated runs; a merged
4-worker registry must equal the serial sweep's; and the Chrome-trace
exporter must emit schema-valid JSON.
"""

import json

import pytest

from repro.core.clock import MONTH
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.runner import (
    TelemetryTask,
    run_campaigns,
    run_campaigns_resilient,
)
from repro.experiments.summary import CampaignSummary
from repro.logger.transfer import CollectionServer, TransferBatch, TransferError
from repro.observability.export import (
    chrome_trace,
    hotspot_summary,
    validate_chrome_trace,
)
from repro.observability.metrics import MetricsRegistry, merge_registries
from repro.observability.telemetry import (
    TELEMETRY_METRICS,
    TELEMETRY_TRACE,
    Telemetry,
    current_telemetry,
)
from repro.observability.tracer import SpanTracer
from repro.phone.fleet import FleetConfig

SEEDS = [31, 32, 33, 34]


def tiny_config(seed: int) -> CampaignConfig:
    """A 3-phone, 1-month campaign: fast, but every mechanism runs."""
    return CampaignConfig(
        fleet=FleetConfig(phone_count=3, duration=1 * MONTH), seed=seed
    )


# -- metrics registry ------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("faults", help="by layer")
        counter.inc(layer="storage")
        counter.inc(2.0, layer="transfer")
        assert counter.value(layer="storage") == 1.0
        assert counter.value(layer="transfer") == 2.0
        assert counter.total() == 3.0
        assert registry.counter_totals() == {"faults": 3.0}

    def test_get_or_create_is_stable_and_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x")
        assert registry.counter("x") is first
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 7.0):
            hist.observe(value)
        series = hist.series()
        assert series.buckets == [1, 2, 1]
        assert series.count == 4
        assert series.min == 0.5
        assert series.max == 50.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", bounds=(10.0, 1.0))

    def test_dict_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3.0, kind="a")
        registry.gauge("g").set(2.5)
        registry.histogram("h", bounds=(1.0,)).observe(0.5, phone="p0")
        data = json.loads(json.dumps(registry.to_dict()))
        assert MetricsRegistry.from_dict(data).to_dict() == registry.to_dict()

    def test_deterministic_dict_excludes_wall_metrics(self):
        registry = MetricsRegistry()
        registry.counter("sim").inc()
        registry.histogram("wall", deterministic=False).observe(0.1)
        assert set(registry.deterministic_dict()) == {"sim"}
        assert set(registry.to_dict()) == {"sim", "wall"}

    def test_merge_sums_and_takes_extrema(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1.0, k="x")
        b.counter("c").inc(2.0, k="x")
        b.counter("c").inc(5.0, k="y")
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(3.0)
        a.merge(b)
        assert a.counter("c").value(k="x") == 3.0
        assert a.counter("c").value(k="y") == 5.0
        series = a.histogram("h", bounds=(1.0,)).series()
        assert series.buckets == [1, 1]
        assert (series.min, series.max) == (0.5, 3.0)

    def test_merge_registries_is_order_independent(self):
        dicts = []
        for k, totals in enumerate(([0.1, 0.2, 0.3], [1e9], [7.7, 0.004])):
            registry = MetricsRegistry()
            for value in totals:
                registry.histogram("h").observe(value)
            registry.counter("c").inc(float(k + 1))
            dicts.append(registry.to_dict())
        forward = merge_registries(dicts).to_dict()
        reverse = merge_registries(list(reversed(dicts))).to_dict()
        rotated = merge_registries(dicts[1:] + dicts[:1]).to_dict()
        assert forward == reverse == rotated


# -- tracer ---------------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_and_sim_tree(self):
        clock = {"now": 0.0}
        tracer = SpanTracer(sim_clock=lambda: clock["now"])
        with tracer.span("outer"):
            clock["now"] = 5.0
            with tracer.span("inner", category="stage"):
                clock["now"] = 7.0
        (root,) = tracer.roots
        tree = root.sim_tree()
        assert tree["name"] == "outer"
        assert tree["sim_start"] == 0.0 and tree["sim_end"] == 7.0
        (inner,) = tree["children"]
        assert inner["name"] == "inner"
        assert inner["sim_start"] == 5.0 and inner["sim_end"] == 7.0

    def test_instants_attach_to_open_span(self):
        tracer = SpanTracer()
        with tracer.span("parent"):
            tracer.instant("blip", category="kernel")
        (root,) = tracer.roots
        (blip,) = root.children
        assert blip.instant
        assert blip.wall_duration == 0.0

    def test_exception_still_closes_span(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.open_depth == 0
        assert tracer.spans_named("doomed")[0].wall_end is not None


# -- telemetry facade -----------------------------------------------------------


class TestTelemetry:
    def test_levels(self):
        assert not Telemetry("off").metrics
        metrics = Telemetry("metrics")
        assert metrics.metrics and not metrics.tracing
        trace = Telemetry("trace")
        assert trace.metrics and trace.tracing

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            Telemetry("verbose")

    def test_installed_scoping(self):
        tel = Telemetry(TELEMETRY_METRICS)
        before = current_telemetry()
        with tel.installed():
            assert current_telemetry() is tel
        assert current_telemetry() is before

    def test_span_is_noop_below_trace(self):
        tel = Telemetry(TELEMETRY_METRICS)
        with tel.span("ignored"):
            pass
        assert len(tel.tracer) == 0


# -- campaign determinism -------------------------------------------------------


class TestCampaignTelemetryDeterminism:
    def _snapshot(self, seed: int):
        tel = Telemetry(TELEMETRY_TRACE)
        run_campaign(tiny_config(seed), telemetry=tel)
        return tel.registry.deterministic_dict(), tel.tracer.sim_forest()

    def test_same_seed_same_counters_and_span_tree(self):
        metrics_a, forest_a = self._snapshot(SEEDS[0])
        metrics_b, forest_b = self._snapshot(SEEDS[0])
        assert metrics_a == metrics_b
        assert forest_a == forest_b
        assert metrics_a["sim.events_fired_total"]["series"][0]["value"] > 0

    def test_off_level_records_nothing(self):
        result = run_campaign(tiny_config(SEEDS[0]))
        assert result.telemetry == {}

    def test_snapshot_rides_in_summary(self):
        tel = Telemetry(TELEMETRY_METRICS)
        result = run_campaign(tiny_config(SEEDS[0]), telemetry=tel)
        summary = CampaignSummary.from_result(result)
        round_tripped = CampaignSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert round_tripped.telemetry == summary.telemetry
        assert round_tripped.telemetry["metrics"] == tel.registry.to_dict()


class TestSweepTelemetryMerge:
    def test_four_worker_merge_equals_serial(self):
        configs = [tiny_config(seed) for seed in SEEDS]
        task = TelemetryTask(TELEMETRY_METRICS)
        serial = run_campaigns(configs, workers=1, task=task)
        pooled = run_campaigns(configs, workers=4, task=task)
        merged_serial = merge_registries(
            summary.telemetry["metrics"] for summary in serial
        ).deterministic_dict()
        merged_pooled = merge_registries(
            summary.telemetry["metrics"] for summary in pooled
        ).deterministic_dict()
        assert merged_pooled == merged_serial
        assert merged_pooled["sim.events_fired_total"]["series"][0]["value"] > 0

    def test_manifest_merged_metrics(self):
        configs = [tiny_config(seed) for seed in SEEDS[:2]]
        manifest = run_campaigns_resilient(
            configs, task=TelemetryTask(TELEMETRY_METRICS)
        )
        totals = merge_registries(
            summary.telemetry["metrics"]
            for summary in manifest.completed_summaries()
        ).counter_totals()
        assert totals["phone.boots_total"] > 0


# -- failure manifest (satellite: per-attempt wall time + watchdog) -------------


def _always_fails(config):
    raise RuntimeError(f"injected failure for seed {config.seed}")


class TestFailureManifestTiming:
    def test_failure_carries_attempt_wall_times(self):
        manifest = run_campaigns_resilient(
            [tiny_config(SEEDS[0])], task=_always_fails, retries=2
        )
        (failure,) = manifest.failures
        assert failure.attempts == 3
        assert len(failure.attempt_wall_seconds) == 3
        assert all(wall >= 0.0 for wall in failure.attempt_wall_seconds)
        assert failure.watchdog_seconds is None  # serial: never armed
        data = failure.to_dict()
        assert len(data["attempt_wall_seconds"]) == 3
        assert data["watchdog_seconds"] is None

    def test_pooled_failure_records_watchdog_deadline(self):
        configs = [tiny_config(seed) for seed in SEEDS[:2]]
        manifest = run_campaigns_resilient(
            configs, workers=2, task=_always_fails, retries=0, timeout=120.0
        )
        assert len(manifest.failures) == 2
        for failure in manifest.failures:
            assert failure.attempt_wall_seconds
            # Armed for the pooled attempt (or None if the pool could
            # not start and execution fell back to serial).
            assert failure.watchdog_seconds in (120.0, None)


# -- dropped_total accounting ---------------------------------------------------


class _AlwaysDownLink:
    def deliver(self, batch, receive):
        raise TransferError("link down")

    def flush(self, receive):
        pass


class TestDroppedTotal:
    def test_transfer_retry_sites_count_drops(self):
        tel = Telemetry(TELEMETRY_METRICS)
        with tel.installed():
            server = CollectionServer(link=_AlwaysDownLink(), max_attempts=3)

            class _Storage:
                phone_id = "phone-00"

                @staticmethod
                def entries(cursor):
                    return [object(), object()]

            assert server.sync(_Storage()) == 0
        dropped = tel.registry.counter("dropped_total")
        assert dropped.value(site="transfer.delivery_attempt") == 3.0
        assert dropped.value(site="transfer.sync_exhausted") == 2.0

    def test_cache_corrupt_entry_counts_drop(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(SEEDS[0])
        path = cache.path_for(config)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        tel = Telemetry(TELEMETRY_METRICS)
        with tel.installed():
            assert cache.get(config) is None
        dropped = tel.registry.counter("dropped_total")
        assert dropped.value(site="cache.corrupt_entry") == 1.0
        assert tel.registry.counter("cache.evictions_total").total() == 1.0
        lookups = tel.registry.counter("cache.lookups_total")
        assert lookups.value(outcome="miss") == 1.0


# -- fault instrumentation ------------------------------------------------------


class TestFaultInstrumentation:
    def test_injected_faults_become_labeled_events(self):
        from repro.robustness.injectors import FaultyLink
        from repro.robustness.plan import FaultPlan

        plan = FaultPlan(seed=99, sync_failure_rate=1.0)
        tel = Telemetry(TELEMETRY_TRACE)
        with tel.installed():
            link = FaultyLink(plan)
            with pytest.raises(TransferError):
                link.deliver(
                    TransferBatch("phone-00", 0, [object()]), lambda b: None
                )
        faults = tel.registry.counter("robustness.faults_injected_total")
        assert faults.value(layer="transfer", kind="failed_attempt") == 1.0
        assert tel.tracer.spans_named("fault transfer.failed_attempt")


# -- exporters ------------------------------------------------------------------


class TestExport:
    def _traced_run(self, seed: int = SEEDS[0]):
        tel = Telemetry(TELEMETRY_TRACE)
        run_campaign(tiny_config(seed), telemetry=tel)
        return tel

    def test_chrome_trace_is_schema_valid(self):
        tel = self._traced_run()
        trace = chrome_trace(tel.tracer, tel.registry)
        assert validate_chrome_trace(trace) == []
        # JSON-native all the way down.
        reloaded = json.loads(json.dumps(trace))
        assert validate_chrome_trace(reloaded) == []
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"campaign", "simulate", "ingest", "report"} <= names

    def test_trace_has_wall_and_sim_timelines(self):
        tel = self._traced_run()
        trace = chrome_trace(tel.tracer)
        pids = {
            event["pid"]
            for event in trace["traceEvents"]
            if event["ph"] == "X"
        }
        assert pids == {1, 2}

    def test_validator_flags_garbage(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []

    def test_hotspot_summary_orders_by_self_time(self):
        tel = self._traced_run()
        rows = hotspot_summary(tel.tracer, top=5)
        assert rows
        selfs = [row["self_seconds"] for row in rows]
        assert selfs == sorted(selfs, reverse=True)


# -- disabled path --------------------------------------------------------------


class TestDisabledPath:
    def test_disabled_components_hold_no_handles(self):
        from repro.core.engine import Simulator
        from repro.core.events import EventBus

        sim = Simulator()
        assert sim._horizon_hist is None
        # The bus keeps intrinsic int stats (sampled at campaign end)
        # instead of telemetry handles, so there is nothing to disable.
        bus = EventBus()
        assert (bus.publishes, bus.deliveries) == (0, 0)
        bus.publish("nobody-listens")
        assert (bus.publishes, bus.deliveries) == (1, 0)

    def test_reports_identical_with_and_without_telemetry(self):
        config = tiny_config(SEEDS[2])
        plain = run_campaign(config)
        traced = run_campaign(tiny_config(SEEDS[2]), telemetry=Telemetry("trace"))
        assert plain.report.to_dict() == traced.report.to_dict()
        assert plain.ground_truth == traced.ground_truth
