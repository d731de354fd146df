"""Tests for repro.core.clock."""

import pytest

from repro.core.clock import (
    DAY,
    HOUR,
    MINUTE,
    MONTH,
    SECOND,
    WEEK,
    SimClock,
    format_instant,
)
from repro.core.errors import SimulationError


class TestConstants:
    def test_second_is_unit(self):
        assert SECOND == 1.0

    def test_minute(self):
        assert MINUTE == 60.0

    def test_hour(self):
        assert HOUR == 3600.0

    def test_day(self):
        assert DAY == 86400.0

    def test_week(self):
        assert WEEK == 7 * DAY

    def test_month_is_mean_gregorian(self):
        assert MONTH == pytest.approx(30.44 * DAY)


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(10.0).now == 10.0

    def test_defaults_to_zero(self):
        assert SimClock().now == 0.0

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_to_same_time_allowed(self):
        clock = SimClock(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_backwards_rejected(self):
        clock = SimClock(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_repr_mentions_time(self):
        assert "day 0" in repr(SimClock())


class TestFormatInstant:
    def test_epoch(self):
        assert format_instant(0.0) == "day 0 00:00:00"

    def test_mid_campaign(self):
        assert format_instant(3 * DAY + HOUR) == "day 3 01:00:00"
