"""The fault-injection harness: plans, injectors, degradation curve.

The acceptance bar from the robustness issue: a disabled plan is
byte-identical to the clean pipeline (pinned in
``test_pipeline_equivalence.py``, which also pins text and record ingest
equal under faults); mild fault rates keep every headline
figure within a few percent of clean; any intensity terminates with a
structured report, never an unhandled exception; and all of it replays
bit-for-bit from the plan's seed.
"""

import json

import pytest

from repro.analysis.ingest import (
    CORRUPTION_BAD_VALUE,
    CORRUPTION_FIELD_COUNT,
    CORRUPTION_UNKNOWN_TAG,
    Dataset,
    IngestReport,
    classify_malformed,
)
from repro.core.errors import ConfigError
from repro.experiments.config import CampaignConfig
from repro.experiments.summary import HEADLINE_KEYS, headline_figures
from repro.robustness import (
    FaultPlan,
    run_degradation_experiment,
    run_faulty_campaign,
)
from repro.robustness.experiment import drift_percent, run_resilience_probe


class TestFaultPlan:
    def test_round_trips_through_dict(self):
        plan = FaultPlan.harsh(seed=99)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        ) == plan

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "gamma_ray_rate": 0.5})

    @pytest.mark.parametrize("field", FaultPlan.rate_fields())
    def test_rejects_out_of_range_rates(self, field):
        with pytest.raises(ConfigError, match=field):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ConfigError, match=field):
            FaultPlan(**{field: -0.1})

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ConfigError):
            FaultPlan(clock_skew_max=-1.0)
        with pytest.raises(ConfigError):
            FaultPlan(worker_hang_seconds=-1.0)

    def test_none_preset_is_disabled(self):
        assert not FaultPlan.none().enabled
        assert FaultPlan.mild().enabled
        assert FaultPlan.harsh().enabled

    def test_scaled_multiplies_and_clamps(self):
        plan = FaultPlan.mild()
        doubled = plan.scaled(2.0)
        assert doubled.storage_truncate_rate == pytest.approx(0.02)
        assert doubled.clock_skew_max == pytest.approx(60.0)
        assert doubled.seed == plan.seed  # identity knobs never scale
        assert doubled.worker_hang_seconds == plan.worker_hang_seconds
        clamped = FaultPlan.harsh().scaled(100.0)
        for name in FaultPlan.rate_fields():
            assert 0.0 <= getattr(clamped, name) <= 1.0

    def test_scaled_zero_disables(self):
        assert not FaultPlan.harsh().scaled(0.0).enabled

    def test_scaled_rejects_negative_intensity(self):
        with pytest.raises(ConfigError):
            FaultPlan.mild().scaled(-1.0)

    def test_skew_only_plan_counts_as_enabled(self):
        assert FaultPlan(clock_skew_max=10.0).enabled


class TestInjectorDeterminism:
    def test_same_plan_same_campaign_replays_bit_for_bit(self):
        config = CampaignConfig.tiny(seed=7)
        plan = FaultPlan.mild(seed=42)
        first = run_faulty_campaign(config, plan=plan)
        second = run_faulty_campaign(config, plan=plan)
        assert first.summary.to_dict() == second.summary.to_dict()
        assert first.injected == second.injected
        assert first.transfer == second.transfer
        assert first.ingest == second.ingest

    def test_plan_seed_changes_the_injection(self):
        config = CampaignConfig.tiny(seed=7)
        harsh = FaultPlan.harsh
        first = run_faulty_campaign(config, plan=harsh(seed=1))
        second = run_faulty_campaign(config, plan=harsh(seed=2))
        assert first.injected != second.injected

    def test_injection_is_visible_in_stats(self):
        outcome = run_faulty_campaign(
            CampaignConfig.tiny(seed=7), plan=FaultPlan.harsh()
        )
        injected = outcome.injected
        assert injected["truncated_entries"] + injected["garbled_entries"] > 0
        assert outcome.ingest["quarantined"] > 0
        # Defense-side accounting moved too: retries or dedup fired.
        transfer = outcome.transfer
        assert (
            transfer["retries"]
            + transfer["duplicate_entries_dropped"]
            + transfer["out_of_order_batches"]
        ) > 0


class TestIngestQuarantine:
    def test_classification_covers_the_corruption_classes(self):
        err = ValueError("RUNAPP expects 2 fields, got 1")
        assert classify_malformed("RUNAPP|180", err) == CORRUPTION_FIELD_COUNT
        assert classify_malformed("#UNAPP|1|2", err) == CORRUPTION_UNKNOWN_TAG
        bad = ValueError("PANIC time field 'x' is not a number")
        assert classify_malformed("PANIC|x|KERN-EXEC|3", bad) == (
            CORRUPTION_BAD_VALUE
        )

    def test_malformed_lines_are_quarantined_not_silent(self, quick_campaign):
        lines = quick_campaign.fleet.collector.dataset()
        phone = sorted(lines)[0]
        lines[phone] = lines[phone] + [
            "XYZZY|1|2",          # unknown tag
            "RUNAPP|180",         # field count (truncated-tail shape)
        ]
        dataset = Dataset.from_lines(lines)
        report = dataset.ingest_report
        baseline = quick_campaign.dataset.ingest_report
        assert report.quarantined == baseline.quarantined + 2
        assert report.by_class[CORRUPTION_UNKNOWN_TAG] >= 1
        assert report.by_phone[phone] >= 2
        assert "XYZZY|1|2" in report.samples or len(report.samples) == 10
        json.dumps(report.to_dict())

    def test_clean_report_properties(self):
        report = IngestReport()
        assert report.clean
        report.quarantine("phone-00", "JUNK|1", ValueError("no"))
        assert not report.clean
        assert report.quarantined == 1


class TestDegradationExperiment:
    @pytest.fixture(scope="class")
    def curve(self):
        return run_degradation_experiment(
            CampaignConfig.quick(), intensities=(0.5, 1.0)
        )

    def test_clean_anchor_has_zero_drift(self, curve):
        anchor = curve.points[0]
        assert anchor.intensity == 0.0
        assert anchor.max_drift == 0.0
        assert set(anchor.drift) == set(HEADLINE_KEYS)

    def test_mild_faults_keep_headlines_within_tolerance(self, curve):
        # The issue's acceptance bar: <= 1% fault rates (the mild plan
        # at intensity 1.0) move no headline figure by more than 5%.
        assert curve.worst_drift_at(1.0) <= 5.0
        for point in curve.points:
            assert point.error is None
            assert not point.undefined_drift_keys

    def test_report_is_strict_json(self, curve):
        json.dumps(curve.to_dict(), allow_nan=False, sort_keys=True)

    def test_render_mentions_every_intensity(self, curve):
        text = curve.render()
        for point in curve.points:
            assert f"{point.intensity:g}" in text
        for key in HEADLINE_KEYS:
            assert key in text

    def test_harsh_faults_terminate_with_structured_report(self):
        report = run_degradation_experiment(
            CampaignConfig.tiny(),
            base_plan=FaultPlan.harsh(),
            intensities=(1.0, 2.0),
        )
        assert len(report.points) == 3  # anchor + both intensities
        for point in report.points:
            # Either a full set of figures or a structured error —
            # never an exception out of the experiment.
            assert (point.figures is None) == (point.error is not None)
        json.dumps(report.to_dict(), allow_nan=False)

    def test_headline_figures_shape(self, quick_campaign):
        from repro.experiments.summary import CampaignSummary

        figures = headline_figures(
            CampaignSummary.from_result(quick_campaign).sections
        )
        assert tuple(figures) == HEADLINE_KEYS
        assert all(isinstance(v, float) for v in figures.values())


class TestDriftPercent:
    def test_basic_and_edge_cases(self):
        assert drift_percent(100.0, 110.0) == pytest.approx(10.0)
        assert drift_percent(100.0, 100.0) == 0.0
        assert drift_percent(0.0, 0.0) == 0.0
        assert drift_percent(0.0, 5.0) is None  # undefined, not folded
        assert drift_percent(100.0, float("inf")) == float("inf")
        assert drift_percent(float("inf"), float("inf")) == 0.0


class TestResilienceProbe:
    def test_probe_completes_and_reports_evidence(self, tmp_path):
        plan = FaultPlan(
            seed=777, worker_crash_rate=0.3, cache_corrupt_rate=0.5
        )
        probe = run_resilience_probe(
            CampaignConfig.tiny(),
            plan,
            seeds=(101, 102),
            workers=1,
            retries=4,
            cache_dir=str(tmp_path),
        )
        assert probe.seeds == [101, 102]
        assert probe.completed + len(
            {f["seed"] for f in probe.failures}
        ) >= len(probe.seeds)
        json.dumps(probe.to_dict())
