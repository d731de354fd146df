"""Tests for inter-failure reliability modelling."""

import math

import pytest

from repro.analysis.coalescence import HL_FREEZE, HL_SELF_SHUTDOWN, HlEvent
from repro.analysis.reliability import (
    compute_reliability,
    fit_reliability,
    interfailure_intervals_hours,
)
from repro.core.clock import HOUR
from repro.core.rand import Stream


class TestIntervalExtraction:
    def test_gaps_within_one_phone(self):
        events = [
            HlEvent("p", 0.0, HL_FREEZE),
            HlEvent("p", 2 * HOUR, HL_FREEZE),
            HlEvent("p", 5 * HOUR, HL_FREEZE),
        ]
        assert interfailure_intervals_hours(events) == [2.0, 3.0]

    def test_phones_do_not_mix(self):
        events = [
            HlEvent("a", 0.0, HL_FREEZE),
            HlEvent("b", 1 * HOUR, HL_FREEZE),
            HlEvent("a", 4 * HOUR, HL_FREEZE),
        ]
        assert interfailure_intervals_hours(events) == [4.0]

    def test_kind_filter(self):
        events = [
            HlEvent("p", 0.0, HL_FREEZE),
            HlEvent("p", 1 * HOUR, HL_SELF_SHUTDOWN),
            HlEvent("p", 3 * HOUR, HL_FREEZE),
        ]
        assert interfailure_intervals_hours(events, [HL_FREEZE]) == [3.0]
        assert interfailure_intervals_hours(events) == [1.0, 2.0]

    def test_unsorted_input_tolerated(self):
        events = [
            HlEvent("p", 5 * HOUR, HL_FREEZE),
            HlEvent("p", 0.0, HL_FREEZE),
        ]
        assert interfailure_intervals_hours(events) == [5.0]

    def test_zero_gaps_dropped(self):
        events = [HlEvent("p", 0.0, HL_FREEZE), HlEvent("p", 0.0, HL_FREEZE)]
        assert interfailure_intervals_hours(events) == []


class TestFitting:
    def exponential_sample(self, mean, n=400, seed=5):
        stream = Stream(seed)
        return [stream.exponential(mean) for _ in range(n)]

    def test_small_sample_yields_no_fits(self):
        stats = fit_reliability([1.0, 2.0, 3.0])
        assert stats.exponential is None
        assert stats.weibull is None
        assert stats.preferred_model == "insufficient data"
        assert math.isnan(stats.weibull_shape)

    def test_exponential_sample_recovers_mean(self):
        stats = fit_reliability(self.exponential_sample(mean=100.0))
        assert stats.exponential is not None
        assert stats.exponential.params["mean_hours"] == pytest.approx(
            100.0, rel=0.15
        )
        assert stats.exponential.ks_pvalue > 0.01

    def test_exponential_sample_gives_shape_near_one(self):
        stats = fit_reliability(self.exponential_sample(mean=50.0))
        assert stats.weibull_shape == pytest.approx(1.0, abs=0.12)

    def test_wearout_sample_gives_shape_above_one(self):
        stream = Stream(9)
        # Sum of two exponentials (Erlang-2): increasing hazard.
        sample = [
            stream.exponential(50.0) + stream.exponential(50.0)
            for _ in range(400)
        ]
        stats = fit_reliability(sample)
        assert stats.weibull_shape > 1.2

    def test_infant_mortality_gives_shape_below_one(self):
        stream = Stream(10)
        # Mixture of short and long regimes: decreasing hazard.
        sample = [
            stream.exponential(5.0 if stream.bernoulli(0.5) else 200.0)
            for _ in range(400)
        ]
        stats = fit_reliability(sample)
        assert stats.weibull_shape < 0.9

    def test_mean_and_precision(self):
        stats = fit_reliability([10.0] * 100)
        assert stats.mean_hours == pytest.approx(10.0)
        assert stats.mtbf_relative_precision() == pytest.approx(0.1)

    def test_nonpositive_intervals_filtered(self):
        stats = fit_reliability([-1.0, 0.0] + self.exponential_sample(10.0, n=50))
        assert stats.sample_size == 50

    def test_empty_sample(self):
        stats = fit_reliability([])
        assert stats.mean_hours == float("inf")
        assert stats.mtbf_relative_precision() == float("inf")


class TestOnRealCampaign:
    def test_shapes_near_one(self, paper_campaign):
        """The campaign's failure process is memoryless-dominated: the
        fitted Weibull shape must sit near 1 for every event kind."""
        rel = compute_reliability(paper_campaign.report.study)
        for kind in ("freeze", "self_shutdown", "combined"):
            stats = rel[kind]
            assert stats.sample_size > 100
            assert 0.8 < stats.weibull_shape < 1.25

    def test_exponential_not_rejected(self, paper_campaign):
        rel = compute_reliability(paper_campaign.report.study)
        assert rel["combined"].exponential.ks_pvalue > 0.01

    def test_combined_mean_consistent_with_mtbf(self, paper_campaign):
        """Interval mean ~ pooled MTBF (they differ by censoring: the
        open interval at each phone's end is not an observed gap)."""
        rel = compute_reliability(paper_campaign.report.study)
        availability = paper_campaign.report.availability
        pooled = availability.observed_hours_total / (
            availability.freeze_count + availability.self_shutdown_count
        )
        assert rel["combined"].mean_hours == pytest.approx(pooled, rel=0.25)


class TestDegenerateSamples:
    def test_constant_sample_skips_weibull(self):
        """Near-zero spread would hit scipy's catastrophic-cancellation
        path inside weibull_min.fit; the guard returns no Weibull fit
        (and with filterwarnings=error, a warning would fail this test)."""
        stats = fit_reliability([10.0] * 100)
        assert stats.weibull is None
        assert stats.exponential is not None
        assert stats.preferred_model == "insufficient data"
        assert math.isnan(stats.weibull_shape)

    def test_tiny_relative_spread_skips_weibull(self):
        stats = fit_reliability([10.0] * 50 + [10.0 + 1e-12] * 50)
        assert stats.weibull is None

    def test_normal_sample_still_fits_weibull(self):
        stats = fit_reliability(self.exponential_sample(10.0, n=200))
        assert stats.weibull is not None

    @staticmethod
    def exponential_sample(mean, n):
        stream = Stream(99)
        return [stream.exponential(mean) for _ in range(n)]
