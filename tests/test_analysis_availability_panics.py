"""Tests for availability figures and the Table 2 panic classification."""

import pytest

from repro.analysis.availability import availability_from_observations
from repro.analysis.report import build_report
from repro.core.clock import HOUR
from repro.core.records import BootRecord, PanicRecord
from repro.symbian.panics import PanicId
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


def availability_of(dataset):
    return build_report(dataset).availability


def panic_table_of(dataset):
    return build_report(dataset).panic_table


class TestAvailability:
    def test_pooled_mtbf(self):
        # One phone observed 100 h with two freezes.
        records = [
            boot(0.0, "NONE", 0.0),
            boot(10 * HOUR, "ALIVE", 9 * HOUR),
            boot(50 * HOUR, "ALIVE", 49 * HOUR),
        ]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        stats = availability_of(dataset)
        assert stats.freeze_count == 2
        assert stats.mtbf_freeze_hours == pytest.approx(50.0)
        assert stats.freeze_interval_days == pytest.approx(50.0 / 24.0)

    def test_self_shutdown_mtbf(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(10 * HOUR + 80, "REBOOT", 10 * HOUR),
        ]
        dataset = dataset_from_records({"p": records}, end_time=50 * HOUR)
        stats = availability_of(dataset)
        assert stats.self_shutdown_count == 1
        assert stats.mtbf_self_shutdown_hours == pytest.approx(50.0, rel=0.01)

    def test_no_events_infinite_mtbf(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0)]}, end_time=100 * HOUR
        )
        stats = availability_of(dataset)
        assert stats.mtbf_freeze_hours == float("inf")
        assert stats.combined_failure_rate_per_hour == 0.0

    def test_per_phone_average(self):
        # phone a: 100 h, 1 freeze -> 100; phone b: 100 h, 2 freezes -> 50.
        records_a = [boot(0.0, "NONE", 0.0), boot(10 * HOUR, "ALIVE", 9 * HOUR)]
        records_b = [
            boot(0.0, "NONE", 0.0),
            boot(10 * HOUR, "ALIVE", 9 * HOUR),
            boot(20 * HOUR, "ALIVE", 19 * HOUR),
        ]
        dataset = dataset_from_records(
            {"a": records_a, "b": records_b}, end_time=100 * HOUR
        )
        stats = availability_of(dataset)
        assert stats.per_phone_mtbf_freeze_hours == pytest.approx(75.0)
        assert stats.mtbf_freeze_hours == pytest.approx(200.0 / 3.0)

    def test_failure_interval_is_mean_of_the_two(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(10 * HOUR, "ALIVE", 9 * HOUR),
            boot(20 * HOUR + 80, "REBOOT", 20 * HOUR),
        ]
        dataset = dataset_from_records({"p": records}, end_time=120 * HOUR)
        stats = availability_of(dataset)
        expected = (
            stats.freeze_interval_days + stats.self_shutdown_interval_days
        ) / 2.0
        assert stats.failure_interval_days == pytest.approx(expected)

    def test_accepts_precomputed_study(self):
        records = [boot(0.0, "NONE", 0.0), boot(10 * HOUR, "ALIVE", 9 * HOUR)]
        dataset = dataset_from_records({"p": records}, end_time=100 * HOUR)
        study = build_report(dataset).study
        observed = {"p": dataset.logs["p"].observed_hours(dataset.end_time)}
        stats = availability_from_observations(observed, study)
        assert stats.freeze_count == 1
        assert stats.mtbf_freeze_hours == pytest.approx(100.0)


class TestPanicTable:
    def make_dataset(self, panic_specs):
        records = [boot(0.0, "NONE", 0.0)]
        for i, (category, ptype) in enumerate(panic_specs):
            records.append(PanicRecord(10.0 + i, category, ptype, "App"))
        return dataset_from_records({"p": records}, end_time=HOUR)

    def test_counts_and_percentages(self):
        dataset = self.make_dataset(
            [("KERN-EXEC", 3)] * 3 + [("USER", 11)] * 1
        )
        table = panic_table_of(dataset)
        assert table.total == 4
        assert table.percent_of("KERN-EXEC", 3) == pytest.approx(75.0)
        assert table.percent_of("USER", 11) == pytest.approx(25.0)

    def test_rows_carry_documentation(self):
        table = panic_table_of(self.make_dataset([("KERN-EXEC", 3)]))
        assert "dereferencing NULL" in table.rows[0].meaning

    def test_category_ordering_by_frequency(self):
        dataset = self.make_dataset(
            [("USER", 11)] * 5 + [("KERN-EXEC", 3)] * 2
        )
        table = panic_table_of(dataset)
        assert table.rows[0].panic_id.category == "USER"

    def test_headline_aggregates(self):
        dataset = self.make_dataset(
            [("KERN-EXEC", 3)] * 56
            + [("E32USER-CBase", 69)] * 10
            + [("E32USER-CBase", 33)] * 8
            + [("USER", 11)] * 26
        )
        table = panic_table_of(dataset)
        assert table.access_violation_percent == pytest.approx(56.0)
        assert table.heap_management_percent == pytest.approx(18.0)

    def test_category_totals(self):
        dataset = self.make_dataset([("USER", 10), ("USER", 11), ("KERN-EXEC", 3)])
        totals = panic_table_of(dataset).category_totals()
        assert totals["USER"] == pytest.approx(200.0 / 3.0)
        assert list(totals)[0] == "USER"

    def test_empty_dataset(self):
        table = panic_table_of(self.make_dataset([]))
        assert table.total == 0
        assert table.rows == []
        assert table.access_violation_percent == 0.0

    def test_unknown_panic_tolerated(self):
        dataset = self.make_dataset([("FUTURE-CAT", 99)])
        table = panic_table_of(dataset)
        assert table.rows[0].panic_id == PanicId("FUTURE-CAT", 99)
        assert "Unregistered" in table.rows[0].meaning


class TestOnRealCampaign:
    def test_kern_exec_3_dominates(self, quick_campaign):
        table = quick_campaign.report.panic_table
        assert table.total > 10
        top = max(table.rows, key=lambda r: r.count)
        assert top.panic_id == PanicId("KERN-EXEC", 3)
        assert 35.0 < table.access_violation_percent < 75.0

    def test_percentages_sum_to_100(self, quick_campaign):
        table = quick_campaign.report.panic_table
        assert sum(row.percent for row in table.rows) == pytest.approx(100.0)

    def test_panic_records_match_table_total(self, quick_campaign):
        assert quick_campaign.dataset.total_panics == quick_campaign.report.panic_table.total
