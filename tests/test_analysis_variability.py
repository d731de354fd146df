"""Tests for fleet-heterogeneity analysis."""

import pytest

from repro.analysis.ingest import Dataset
from repro.analysis.report import build_report
from repro.analysis.variability import PhoneRate, compute_variability
from repro.core.clock import HOUR
from repro.core.records import BootRecord, EnrollRecord
from repro.logger.logfile import serialize_record
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


def phone_records(os_version="8.0", region="Italy", freeze_times=()):
    records = [
        EnrollRecord(0.0, "x", os_version, region),
        boot(0.0, "NONE", 0.0),
    ]
    for t in freeze_times:
        records.append(boot(t, "ALIVE", t - 100.0))
    return records


class TestPhoneRate:
    def test_rate_per_khr(self):
        rate = PhoneRate("p", observed_hours=2000.0, freezes=3, self_shutdowns=1)
        assert rate.failures == 4
        assert rate.rate_per_khr == pytest.approx(2.0)

    def test_zero_exposure(self):
        assert PhoneRate("p", 0.0, 5, 0).rate_per_khr == 0.0


class TestVariability:
    def make(self, spec, end_hours=1000.0):
        """spec: phone_id -> (os, region, n_freezes)."""
        records = {}
        for phone_id, (os_version, region, n) in spec.items():
            freeze_times = [3600.0 * (i + 1) * 10 for i in range(n)]
            recs = phone_records(os_version, region, freeze_times)
            records[phone_id] = recs
        dataset = dataset_from_records(records, end_time=end_hours * HOUR)
        report = build_report(dataset)
        return compute_variability(report.accumulator, report.study)

    def test_per_phone_counts(self):
        stats = self.make({"a": ("8.0", "Italy", 3), "b": ("8.0", "USA", 1)})
        by_id = {p.phone_id: p for p in stats.phones}
        assert by_id["a"].freezes == 3
        assert by_id["b"].freezes == 1

    def test_homogeneous_fleet_not_rejected(self):
        spec = {f"p{i}": ("8.0", "Italy", 5) for i in range(10)}
        stats = self.make(spec)
        assert stats.p_value > 0.05
        assert not stats.heterogeneous

    def test_extreme_heterogeneity_rejected(self):
        spec = {f"cool{i}": ("8.0", "Italy", 0) for i in range(8)}
        spec["hot"] = ("8.0", "Italy", 60)
        stats = self.make(spec)
        assert stats.heterogeneous
        assert stats.p_value < 0.01

    def test_group_breakdowns(self):
        stats = self.make(
            {
                "a": ("8.0", "Italy", 4),
                "b": ("8.0", "Italy", 4),
                "c": ("9.0", "USA", 1),
            }
        )
        os_rates = {g.label: g for g in stats.by_os_version}
        assert os_rates["8.0"].phone_count == 2
        assert os_rates["8.0"].failures == 8
        assert os_rates["9.0"].failures == 1
        region_rates = {g.label: g for g in stats.by_region}
        assert region_rates["Italy"].rate_per_khr > region_rates["USA"].rate_per_khr

    def test_pooled_rate(self):
        stats = self.make({"a": ("8.0", "Italy", 2), "b": ("8.0", "USA", 2)})
        # 4 failures over 2000 phone-hours.
        assert stats.pooled_rate_per_khr == pytest.approx(2.0)

    def test_spread_ratio(self):
        stats = self.make({"a": ("8.0", "Italy", 8), "b": ("8.0", "USA", 2)})
        assert stats.min_max_rate_ratio == pytest.approx(4.0)

    def test_quarantined_enroll_line_groups_as_unknown(self):
        """A phone whose ENROLL line was garbled in transit has no
        enrolment in its partial and pools under ``unknown``."""
        lines = {
            phone_id: [
                serialize_record(record)
                for record in phone_records("8.0", "Italy", [36000.0])
            ]
            for phone_id in ("a", "b")
        }
        lines["b"][0] = lines["b"][0].replace("ENROLL", "ENR#LL", 1)
        dataset = Dataset.from_lines(lines, end_time=1000 * HOUR)
        assert dataset.ingest_report.by_phone == {"b": 1}
        report = build_report(dataset)
        assert report.accumulator.phones["b"]["enroll"] is None
        stats = compute_variability(report.accumulator, report.study)
        for groups in (stats.by_os_version, stats.by_region):
            by_label = {g.label: g.phone_count for g in groups}
            assert by_label["unknown"] == 1
        assert {g.label for g in stats.by_region} == {"Italy", "unknown"}

    def test_no_failures_degenerate(self):
        stats = self.make({"a": ("8.0", "Italy", 0), "b": ("8.0", "USA", 0)})
        assert stats.p_value == 1.0
        assert stats.pooled_rate_per_khr == 0.0


class TestOnRealCampaign:
    def test_fleet_heterogeneity_is_mild(self, paper_campaign):
        """Per-phone rates spread over a modest range (behaviour-driven:
        night-off habits and activity levels modulate exposure), with
        no extreme-outlier handsets.  Whether the homogeneity test
        formally rejects depends on the realization; what must hold is
        that the dispersion stays mild — individual-phone MTBFs from a
        25-phone study carry little signal either way."""
        from repro.analysis.variability import compute_variability

        report = paper_campaign.report
        stats = compute_variability(report.accumulator, report.study)
        assert len(stats.phones) == 25
        # No pathological outliers: chi-square within a small multiple
        # of its dof, rate spread within an order of magnitude.
        assert stats.chi_square < 3 * stats.degrees_of_freedom
        assert stats.min_max_rate_ratio < 10.0

    def test_groups_cover_all_phones(self, paper_campaign):
        from repro.analysis.variability import compute_variability

        report = paper_campaign.report
        stats = compute_variability(report.accumulator, report.study)
        assert sum(g.phone_count for g in stats.by_os_version) == 25
        assert sum(g.phone_count for g in stats.by_region) == 25
        assert {g.label for g in stats.by_region} <= {"Italy", "USA"}
