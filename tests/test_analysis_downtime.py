"""Tests for downtime/availability accounting."""

import pytest

from repro.analysis.downtime import compute_downtime
from repro.analysis.report import build_report
from repro.core.clock import HOUR, MINUTE
from repro.core.records import BootRecord
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


def downtime_of(report):
    """Downtime from a report's study and summed observation hours."""
    return compute_downtime(
        report.study, report.availability.observed_hours_total
    )


def dataset_downtime(dataset):
    return downtime_of(build_report(dataset))


class TestOutageReconstruction:
    def test_freeze_outage_spans_alive_to_boot(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(2 * HOUR, "ALIVE", HOUR),  # one hour dark
        ]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        stats = dataset_downtime(dataset)
        assert stats.freeze.count == 1
        assert stats.freeze.total_seconds == pytest.approx(HOUR)
        assert stats.freeze.mttr_seconds == pytest.approx(HOUR)

    def test_self_shutdown_outage_is_reboot_duration(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(HOUR + 80, "REBOOT", HOUR),
        ]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        stats = dataset_downtime(dataset)
        assert stats.self_shutdown.count == 1
        assert stats.self_shutdown.total_seconds == pytest.approx(80.0)

    def test_user_shutdowns_do_not_count(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(9 * HOUR, "REBOOT", HOUR),  # 8 h night-off: deliberate
        ]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        stats = dataset_downtime(dataset)
        assert stats.self_shutdown.count == 0
        assert stats.total_downtime_hours == 0.0
        assert stats.availability == 1.0

    def test_lowbt_and_maoff_do_not_count(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(2 * HOUR, "LOWBT", HOUR),
            boot(4 * HOUR, "MAOFF", 3 * HOUR),
        ]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        stats = dataset_downtime(dataset)
        assert stats.total_downtime_hours == 0.0

    def test_percentiles(self):
        records = [boot(0.0, "NONE", 0.0)]
        for i, dark in enumerate((60.0, 120.0, 180.0, 240.0, 3000.0)):
            start = (i + 1) * 10 * HOUR
            records.append(boot(start + dark, "ALIVE", start))
        dataset = dataset_from_records({"p": records}, end_time=1000 * HOUR)
        stats = dataset_downtime(dataset)
        assert stats.freeze.median_seconds == 180.0
        assert stats.freeze.p90_seconds == 3000.0

    def test_availability_accounting(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(11 * HOUR, "ALIVE", 10 * HOUR),  # 1 h outage in 100 h
        ]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        stats = dataset_downtime(dataset)
        assert stats.availability == pytest.approx(0.99)

    def test_downtime_minutes_per_month(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(10 * HOUR + 30 * MINUTE, "ALIVE", 10 * HOUR),
        ]
        dataset = dataset_from_records(
            {"p": records}, end_time=30.44 * 24 * HOUR
        )
        stats = dataset_downtime(dataset)
        assert stats.downtime_minutes_per_month == pytest.approx(30.0, rel=0.01)

    def test_observed_hours_match_the_dataset(self, quick_campaign):
        """The summed observation is the dataset's own float fold."""
        stats = downtime_of(quick_campaign.report)
        assert (
            stats.observed_hours
            == quick_campaign.dataset.total_observed_hours()
        )

    def test_empty_dataset(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0)]}, end_time=HOUR
        )
        stats = dataset_downtime(dataset)
        assert stats.freeze.count == 0
        assert stats.availability == 1.0
        assert stats.freeze.mttr_seconds == 0.0


class TestOnRealCampaign:
    def test_freeze_outages_cost_more_than_self_shutdowns(self, paper_campaign):
        """Self-shutdowns auto-recover in ~80 s; freezes wait for a
        human — the §4 severity ordering, quantified in minutes."""
        stats = downtime_of(paper_campaign.report)
        assert stats.freeze.mttr_seconds > 5 * stats.self_shutdown.mttr_seconds
        assert stats.self_shutdown.median_seconds < 2 * MINUTE

    def test_availability_in_everyday_band(self, paper_campaign):
        """User-perceived availability lands in the 'everyday
        dependability' band: clearly below carrier-grade five nines,
        clearly above unusable."""
        stats = downtime_of(paper_campaign.report)
        assert 0.98 < stats.availability < 0.99995
        assert stats.downtime_minutes_per_month > 10.0

    def test_overnight_freezes_stretch_the_tail(self, paper_campaign):
        stats = downtime_of(paper_campaign.report)
        assert stats.freeze.p90_seconds > 5 * stats.freeze.median_seconds
