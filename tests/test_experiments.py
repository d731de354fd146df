"""Tests for experiment configuration, comparison helpers, and the
paper ground-truth module."""

import pytest

from repro.core.errors import ConfigError
from repro.experiments import paper
from repro.experiments.compare import Comparison, ComparisonRow
from repro.experiments.config import CampaignConfig
from repro.phone.fleet import FleetConfig


class TestCampaignConfig:
    def test_paper_scale(self):
        config = CampaignConfig.paper_scale()
        assert config.fleet.phone_count == 25
        assert config.fleet.duration == pytest.approx(14 * 30.44 * 86400)

    def test_quick_is_small(self):
        config = CampaignConfig.quick()
        assert config.fleet.phone_count < 10
        assert config.fleet.duration < 0.25 * CampaignConfig.paper_scale().fleet.duration

    def test_invalid_phone_count(self):
        with pytest.raises(ConfigError):
            CampaignConfig(fleet=FleetConfig(phone_count=0))

    def test_invalid_duration(self):
        with pytest.raises(ConfigError):
            CampaignConfig(fleet=FleetConfig(duration=0.0))

    def test_invalid_window(self):
        with pytest.raises(ConfigError):
            CampaignConfig(coalescence_window=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_duration(self, value):
        with pytest.raises(ConfigError, match="positive and finite"):
            CampaignConfig(fleet=FleetConfig(duration=value))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_window(self, value):
        with pytest.raises(ConfigError, match="positive and finite"):
            CampaignConfig(coalescence_window=value)


class TestComparison:
    def test_ratio(self):
        row = ComparisonRow("x", paper=100.0, measured=110.0)
        assert row.ratio == pytest.approx(1.1)

    def test_ratio_zero_paper(self):
        assert ComparisonRow("x", 0.0, 0.0).ratio == 1.0
        assert ComparisonRow("x", 0.0, 5.0).ratio == float("inf")

    def test_within_factor(self):
        row = ComparisonRow("x", 100.0, 140.0)
        assert row.within_factor(1.5)
        assert not row.within_factor(1.2)

    def test_within_factor_symmetric(self):
        low = ComparisonRow("x", 100.0, 70.0)
        assert low.within_factor(1.5)
        assert not low.within_factor(1.2)

    def test_within_factor_invalid(self):
        with pytest.raises(ValueError):
            ComparisonRow("x", 1.0, 1.0).within_factor(0.5)

    def test_comparison_aggregate(self):
        comparison = Comparison("test")
        comparison.add("a", 100.0, 120.0)
        comparison.add("b", 50.0, 40.0)
        assert comparison.max_deviation_factor() == pytest.approx(1.25)
        assert comparison.all_within_factor(1.3)
        assert not comparison.all_within_factor(1.1)

    def test_render(self):
        comparison = Comparison("My comparison")
        comparison.add("quantity", 100.0, 98.0, unit="%")
        text = comparison.render()
        assert "My comparison" in text
        assert "quantity" in text
        assert "0.98x" in text


class TestPaperGroundTruth:
    def test_table2_sums_to_100(self):
        assert sum(paper.PAPER_TABLE2.values()) == pytest.approx(100.0, abs=0.1)

    def test_table1_sums_to_100(self):
        assert sum(paper.PAPER_TABLE1.values()) == pytest.approx(100.0, abs=0.1)

    def test_type_totals_sum_to_100(self):
        assert sum(paper.PAPER_TYPE_TOTALS.values()) == pytest.approx(100.0, abs=0.1)

    def test_headline_aggregates_consistent_with_table2(self):
        from repro.symbian import panics as P

        ke3 = paper.PAPER_TABLE2[P.KERN_EXEC_3]
        assert ke3 == pytest.approx(paper.ACCESS_VIOLATION_PERCENT, abs=1.0)
        heap = sum(
            pct
            for pid, pct in paper.PAPER_TABLE2.items()
            if pid.category == P.E32USER_CBASE
        )
        assert heap == pytest.approx(paper.HEAP_MANAGEMENT_PERCENT, abs=1.0)

    def test_interval_days_consistent_with_hours(self):
        assert paper.MTBF_FREEZE_HOURS / 24 == pytest.approx(
            paper.FREEZE_INTERVAL_DAYS, abs=0.1
        )
        assert paper.MTBS_HOURS / 24 == pytest.approx(
            paper.SELF_SHUTDOWN_INTERVAL_DAYS, abs=0.5
        )
        mean = (paper.FREEZE_INTERVAL_DAYS + paper.SELF_SHUTDOWN_INTERVAL_DAYS) / 2
        assert mean == pytest.approx(paper.FAILURE_INTERVAL_DAYS, abs=1.0)

    def test_every_table2_panic_is_registered(self):
        from repro.symbian.panics import is_known

        for pid in paper.PAPER_TABLE2:
            assert is_known(pid)

    def test_table3_row_totals_sum_to_100(self):
        assert sum(paper.PAPER_TABLE3_ROW_TOTALS.values()) == pytest.approx(
            100.0, abs=0.2
        )
