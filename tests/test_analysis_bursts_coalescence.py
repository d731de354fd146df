"""Tests for burst detection (Fig 3) and coalescence (Figs 4/5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bursts import phone_bursts
from repro.analysis.coalescence import (
    DEFAULT_WINDOW,
    HL_FREEZE,
    HL_SELF_SHUTDOWN,
    HlEvent,
    coalesce,
    hl_events_from_study,
    window_sweep,
)
from repro.analysis.report import build_report
from repro.analysis.streaming import CampaignAccumulator
from repro.core.errors import AnalysisError
from repro.core.records import BootRecord, PanicRecord
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


def panic(time, category="KERN-EXEC", ptype=3, process="App"):
    return PanicRecord(time, category, ptype, process)


class TestBursts:
    def make(self, times, gap=120.0, phones=None):
        if phones is None:
            phones = ["p"] * len(times)
        records = {"p": [boot(0.0, "NONE", 0.0)]}
        for phone_id in set(phones):
            records.setdefault(phone_id, [boot(0.0, "NONE", 0.0)])
        for t, phone_id in zip(times, phones):
            records[phone_id].append(panic(t))
        dataset = dataset_from_records(records, end_time=1e6)
        return CampaignAccumulator.from_dataset(dataset, gap=gap).finalize()[
            "bursts"
        ]

    def test_isolated_panics_are_singleton_bursts(self):
        stats = self.make([100.0, 10_000.0, 20_000.0])
        assert stats.sizes == [1, 1, 1]
        assert stats.cascade_panic_percent == 0.0

    def test_close_panics_form_cascade(self):
        stats = self.make([100.0, 110.0, 130.0, 50_000.0])
        assert sorted(stats.sizes) == [1, 3]
        assert stats.cascade_panic_percent == pytest.approx(75.0)

    def test_gap_boundary_inclusive(self):
        stats = self.make([100.0, 220.0], gap=120.0)
        assert stats.sizes == [2]

    def test_gap_boundary_exceeded(self):
        stats = self.make([100.0, 221.0], gap=120.0)
        assert stats.sizes == [1, 1]

    def test_cross_phone_panics_never_merge(self):
        stats = self.make([100.0, 105.0], phones=["a", "b"])
        assert stats.sizes == [1, 1]

    def test_size_distribution_is_panic_weighted(self):
        stats = self.make([0.0, 10.0, 5_000.0])
        dist = stats.size_distribution()
        assert dist[2] == pytest.approx(200.0 / 3.0)
        assert dist[1] == pytest.approx(100.0 / 3.0)

    def test_invalid_gap_rejected(self):
        with pytest.raises(AnalysisError):
            self.make([1.0], gap=0.0)

    def test_max_burst_size(self):
        stats = self.make([0.0, 5.0, 10.0, 15.0])
        assert stats.max_burst_size == 4

    def test_empty(self):
        stats = self.make([])
        assert stats.total_panics == 0
        assert stats.size_distribution() == {}
        assert stats.max_burst_size == 0

    def test_burst_metadata(self):
        bursts = phone_bursts("p", [panic(100.0), panic(110.0)], gap=120.0)
        assert len(bursts) == 1
        burst = bursts[0]
        assert burst.phone_id == "p"
        assert burst.start == 100.0
        assert burst.end == 110.0
        assert burst.first_category == "KERN-EXEC"


class TestCoalescence:
    def test_panic_matches_nearby_hl_event(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0), panic(1000.0)]}, end_time=1e5
        )
        events = [HlEvent("p", 1100.0, HL_FREEZE)]
        result = coalesce(dataset, events, window=300.0)
        assert len(result.matches) == 1
        assert result.related_percent == 100.0
        assert not result.isolated_hl

    def test_far_hl_event_not_matched(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0), panic(1000.0)]}, end_time=1e5
        )
        events = [HlEvent("p", 5000.0, HL_FREEZE)]
        result = coalesce(dataset, events, window=300.0)
        assert not result.matches
        assert len(result.isolated_panics) == 1
        assert len(result.isolated_hl) == 1

    def test_matching_is_symmetric(self):
        # Freeze estimate can precede the panic (beat quantization).
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0), panic(1000.0)]}, end_time=1e5
        )
        events = [HlEvent("p", 950.0, HL_FREEZE)]
        result = coalesce(dataset, events, window=300.0)
        assert len(result.matches) == 1

    def test_nearest_event_wins(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0), panic(1000.0)]}, end_time=1e5
        )
        events = [
            HlEvent("p", 900.0, HL_FREEZE),
            HlEvent("p", 1050.0, HL_SELF_SHUTDOWN),
        ]
        result = coalesce(dataset, events, window=300.0)
        assert result.matches[0].hl_event.kind == HL_SELF_SHUTDOWN

    def test_phones_are_isolated(self):
        dataset = dataset_from_records(
            {
                "a": [boot(0.0, "NONE", 0.0), panic(1000.0)],
                "b": [boot(0.0, "NONE", 0.0)],
            },
            end_time=1e5,
        )
        events = [HlEvent("b", 1000.0, HL_FREEZE)]
        result = coalesce(dataset, events, window=300.0)
        assert not result.matches

    def test_invalid_window_rejected(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0)]}, end_time=1e5
        )
        with pytest.raises(ValueError):
            coalesce(dataset, [], window=0.0)

    def test_matches_by_kind(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0), panic(1000.0), panic(5000.0)]},
            end_time=1e5,
        )
        events = [
            HlEvent("p", 1100.0, HL_FREEZE),
            HlEvent("p", 5100.0, HL_SELF_SHUTDOWN),
        ]
        result = coalesce(dataset, events, window=300.0)
        assert result.matches_by_kind() == {HL_FREEZE: 1, HL_SELF_SHUTDOWN: 1}

    def test_window_sweep_monotone(self):
        dataset = dataset_from_records(
            {
                "p": [
                    boot(0.0, "NONE", 0.0),
                    panic(1000.0),
                    panic(3000.0),
                    panic(9000.0),
                ]
            },
            end_time=1e5,
        )
        events = [
            HlEvent("p", 1050.0, HL_FREEZE),
            HlEvent("p", 3500.0, HL_FREEZE),
            HlEvent("p", 20000.0, HL_FREEZE),
        ]
        sweep = window_sweep(dataset, events, [60.0, 600.0, 20000.0])
        counts = [count for _w, count in sweep]
        assert counts == sorted(counts)
        assert counts[0] == 1 and counts[-1] == 3


class TestHlEventsFromStudy:
    def make_study(self):
        records = [
            boot(0.0, "NONE", 0.0),
            boot(1000.0, "ALIVE", 900.0),  # freeze
            boot(2080.0, "REBOOT", 2000.0),  # self-shutdown (80 s)
            boot(40000.0, "REBOOT", 10000.0),  # user shutdown (long)
        ]
        dataset = dataset_from_records({"p": records}, end_time=1e5)
        return build_report(dataset).study

    def test_default_excludes_user_shutdowns(self):
        events = hl_events_from_study(self.make_study())
        kinds = sorted(e.kind for e in events)
        assert kinds == [HL_FREEZE, HL_SELF_SHUTDOWN]

    def test_freeze_time_is_last_alive(self):
        events = hl_events_from_study(self.make_study())
        freeze = next(e for e in events if e.kind == HL_FREEZE)
        assert freeze.time == 900.0

    def test_include_user_shutdowns(self):
        events = hl_events_from_study(
            self.make_study(), include_user_shutdowns=True
        )
        assert len(events) == 3


@given(
    panic_times=st.lists(
        st.floats(min_value=0, max_value=1e6), min_size=0, max_size=30
    ),
    hl_times=st.lists(
        st.floats(min_value=0, max_value=1e6), min_size=0, max_size=10
    ),
    window=st.floats(min_value=1.0, max_value=10_000.0),
)
@settings(max_examples=100, deadline=None)
def test_coalescence_partition_property(panic_times, hl_times, window):
    """Every panic is either matched or isolated — never both, never
    neither — and matches respect the window."""
    records = [boot(0.0, "NONE", 0.0)]
    records += [panic(t) for t in sorted(panic_times)]
    dataset = dataset_from_records({"p": records}, end_time=2e6)
    events = [HlEvent("p", t, HL_FREEZE) for t in sorted(hl_times)]
    result = coalesce(dataset, events, window=window)
    assert len(result.matches) + len(result.isolated_panics) == len(panic_times)
    for match in result.matches:
        assert match.distance <= window
    for _phone, isolated in result.isolated_panics:
        for event in events:
            assert abs(event.time - isolated.time) > window or any(
                m.panic is isolated for m in result.matches
            )
