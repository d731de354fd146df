"""Tests for Table 3 (activity) and Table 4 / Figure 6 (running apps)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.activity import (
    ACTIVITY_UNSPECIFIED,
    ActivityTimeline,
    activity_at,
    activity_intervals,
)
from repro.analysis.report import build_report
from repro.analysis.runapps import running_apps_at
from repro.core.records import (
    ActivityRecord,
    BootRecord,
    PanicRecord,
    RunningAppsRecord,
)
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


class TestActivityIntervals:
    def make_log(self, activities):
        records = [boot(0.0, "NONE", 0.0)] + activities
        dataset = dataset_from_records({"p": records}, end_time=1e6)
        return dataset.logs["p"]

    def test_closed_interval(self):
        log = self.make_log(
            [
                ActivityRecord(100.0, "voice_call", "start"),
                ActivityRecord(200.0, "voice_call", "end"),
            ]
        )
        intervals = activity_intervals(log)
        assert len(intervals["voice_call"]) == 1
        assert intervals["voice_call"][0].start == 100.0
        assert intervals["voice_call"][0].end == 200.0

    def test_unclosed_interval_gets_grace(self):
        log = self.make_log([ActivityRecord(100.0, "voice_call", "start")])
        interval = activity_intervals(log)["voice_call"][0]
        assert interval.end == 700.0  # 600 s grace

    def test_restarted_interval_closes_previous(self):
        log = self.make_log(
            [
                ActivityRecord(100.0, "message", "start"),
                ActivityRecord(5000.0, "message", "start"),
                ActivityRecord(5050.0, "message", "end"),
            ]
        )
        intervals = activity_intervals(log)["message"]
        assert len(intervals) == 2

    def test_orphan_end_ignored(self):
        log = self.make_log([ActivityRecord(100.0, "message", "end")])
        assert activity_intervals(log)["message"] == []

    def test_activity_at(self):
        log = self.make_log(
            [
                ActivityRecord(100.0, "voice_call", "start"),
                ActivityRecord(200.0, "voice_call", "end"),
                ActivityRecord(300.0, "message", "start"),
                ActivityRecord(350.0, "message", "end"),
            ]
        )
        intervals = activity_intervals(log)
        assert activity_at(intervals, 150.0) == "voice_call"
        assert activity_at(intervals, 320.0) == "message"
        assert activity_at(intervals, 250.0) == ACTIVITY_UNSPECIFIED
        assert activity_at(intervals, 100.0) == "voice_call"  # inclusive
        assert activity_at(intervals, 200.0) == "voice_call"

    def test_voice_wins_over_message(self):
        log = self.make_log(
            [
                ActivityRecord(100.0, "message", "start"),
                ActivityRecord(110.0, "voice_call", "start"),
                ActivityRecord(150.0, "voice_call", "end"),
                ActivityRecord(160.0, "message", "end"),
            ]
        )
        assert activity_at(activity_intervals(log), 120.0) == "voice_call"


#: Activity records on a coarse time grid, so that ties, restarts,
#: orphan ends and open transactions all come up; shuffled half the
#: time, as a skewed or reordered log would be.
_records = st.lists(
    st.builds(
        ActivityRecord,
        st.integers(0, 40).map(lambda t: t * 50.0),
        st.sampled_from(["voice_call", "message"]),
        st.sampled_from(["start", "end"]),
    ),
    max_size=24,
)


class TestActivityTimeline:
    @settings(max_examples=300, deadline=None)
    @given(_records, st.lists(st.integers(-1, 2100), min_size=1, max_size=12))
    def test_matches_the_interval_reconstruction(self, records, times):
        """The timeline answers exactly what activity_at reads off the
        reconstructed intervals, at record times and between them."""
        log = SimpleNamespace(activities=records)
        intervals = activity_intervals(log)
        timeline = ActivityTimeline(records)
        queries = [float(t) for t in times] + [r.time for r in records]
        for time in queries:
            assert timeline.at(time) == activity_at(intervals, time), time

    def test_unsorted_log(self):
        records = [
            ActivityRecord(200.0, "voice_call", "end"),
            ActivityRecord(100.0, "voice_call", "start"),
        ]
        assert ActivityTimeline(records).at(150.0) == "voice_call"
        assert ActivityTimeline(records).at(250.0) == ACTIVITY_UNSPECIFIED


class TestActivityTable:
    def make_dataset(self):
        # Both panics coalesce with a freeze: ALIVE-last boots whose
        # last beats (the freeze estimates) are 1060 s and 9100 s.
        records = [
            boot(0.0, "NONE", 0.0),
            ActivityRecord(1000.0, "voice_call", "start"),
            PanicRecord(1050.0, "USER", 11, "Telephone"),
            ActivityRecord(1100.0, "voice_call", "end"),
            boot(1200.0, "ALIVE", 1060.0),
            PanicRecord(9000.0, "KERN-EXEC", 3, "Camera"),
            boot(9200.0, "ALIVE", 9100.0),
        ]
        return dataset_from_records({"p": records}, end_time=1e6)

    def test_table_from_explicit_matches(self):
        table = build_report(self.make_dataset(), window=300.0).activity
        assert table.total_panics == 2
        assert table.cells[("voice_call", "USER")] == pytest.approx(50.0)
        assert table.cells[("unspecified", "KERN-EXEC")] == pytest.approx(50.0)
        assert table.realtime_percent == pytest.approx(50.0)

    def test_voice_only_category_detection(self):
        table = build_report(self.make_dataset(), window=300.0).activity
        assert "USER" in table.voice_only_categories()
        assert "KERN-EXEC" not in table.voice_only_categories()

    def test_row_totals_sum_to_100(self, quick_campaign):
        table = quick_campaign.report.activity
        if table.total_panics:
            assert sum(table.row_totals.values()) == pytest.approx(100.0)


class TestRunningApps:
    def make_dataset(self, freeze_at=None):
        records = [
            boot(0.0, "NONE", 0.0),
            RunningAppsRecord(0.0, ()),
            RunningAppsRecord(500.0, ("Messages",)),
            PanicRecord(600.0, "KERN-EXEC", 3, "Messages"),
            RunningAppsRecord(600.0, ()),  # post-panic shrink
            RunningAppsRecord(900.0, ("Clock", "Log")),
            PanicRecord(2000.0, "USER", 11, "Clock"),
        ]
        if freeze_at is not None:
            # An ALIVE-last boot: a freeze estimated at its last beat.
            records.append(boot(freeze_at + 1000.0, "ALIVE", freeze_at))
        return dataset_from_records({"p": records}, end_time=1e6)

    def test_running_apps_at_uses_strictly_before(self):
        dataset = self.make_dataset()
        log = dataset.logs["p"]
        assert running_apps_at(log, 600.0) == ("Messages",)
        assert running_apps_at(log, 601.0) == ()
        assert running_apps_at(log, 950.0) == ("Clock", "Log")

    def test_before_any_snapshot_is_empty(self):
        dataset = self.make_dataset()
        assert running_apps_at(dataset.logs["p"], -5.0) == ()

    def test_count_distribution(self):
        stats = build_report(self.make_dataset()).runapps
        assert stats.total_panics == 2
        assert stats.count_distribution[1] == pytest.approx(50.0)
        assert stats.count_distribution[2] == pytest.approx(50.0)
        assert stats.modal_app_count in (1, 2)

    def test_app_totals(self):
        stats = build_report(self.make_dataset()).runapps
        assert stats.app_totals["Messages"] == pytest.approx(50.0)
        assert stats.app_totals["Clock"] == pytest.approx(50.0)

    def test_outcome_classification(self):
        dataset = self.make_dataset(freeze_at=650.0)
        stats = build_report(dataset, window=300.0).runapps
        keys = set(stats.table)
        assert ("KERN-EXEC", "freeze") in keys
        assert ("USER", "no_hl_event") in keys

    def test_top_apps_sorted(self, quick_campaign):
        stats = quick_campaign.report.runapps
        top = stats.top_apps(5)
        values = [pct for _app, pct in top]
        assert values == sorted(values, reverse=True)

    def test_mode_is_one_on_campaign(self, quick_campaign):
        stats = quick_campaign.report.runapps
        assert stats.modal_app_count == 1
