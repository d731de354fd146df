"""Tests for shutdown/freeze classification and Figure 2."""

import pytest

from repro.analysis.report import build_report
from repro.analysis.shutdowns import SELF_SHUTDOWN_THRESHOLD
from repro.core.records import BootRecord
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


def study_of(records, end_time=100000.0):
    dataset = dataset_from_records({"phone-00": records}, end_time=end_time)
    return build_report(dataset).study


class TestClassification:
    def test_first_boot_counted_separately(self):
        study = study_of([boot(0.0, "NONE", 0.0)])
        assert study.first_boot_count == 1
        assert not study.freezes
        assert not study.shutdowns

    def test_alive_boot_is_freeze(self):
        study = study_of([boot(0.0, "NONE", 0.0), boot(1000.0, "ALIVE", 800.0)])
        assert len(study.freezes) == 1
        freeze = study.freezes[0]
        assert freeze.detected_at == 1000.0
        assert freeze.last_alive == 800.0
        assert freeze.est_time == 800.0

    def test_reboot_boot_is_shutdown_with_duration(self):
        study = study_of([boot(0.0, "NONE", 0.0), boot(1000.0, "REBOOT", 920.0)])
        assert len(study.shutdowns) == 1
        event = study.shutdowns[0]
        assert event.duration == pytest.approx(80.0)
        assert event.is_self_shutdown()

    def test_long_duration_is_user_shutdown(self):
        study = study_of([boot(0.0, "NONE", 0.0), boot(31000.0, "REBOOT", 1000.0)])
        assert not study.shutdowns[0].is_self_shutdown()
        assert study.user_shutdowns() == study.shutdowns

    def test_threshold_boundary_exclusive(self):
        study = study_of(
            [boot(0.0, "NONE", 0.0), boot(1360.0, "REBOOT", 1000.0)]
        )
        assert not study.shutdowns[0].is_self_shutdown(360.0)

    def test_lowbt_and_maoff_counted_not_classified(self):
        study = study_of(
            [
                boot(0.0, "NONE", 0.0),
                boot(1000.0, "LOWBT", 900.0),
                boot(2000.0, "MAOFF", 1900.0),
            ]
        )
        assert study.lowbt_count == 1
        assert study.maoff_count == 1
        assert not study.shutdowns
        assert not study.freezes

    def test_events_sorted_across_phones(self):
        dataset = dataset_from_records(
            {
                "a": [boot(0.0, "NONE", 0.0), boot(500.0, "ALIVE", 400.0)],
                "b": [boot(0.0, "NONE", 0.0), boot(300.0, "ALIVE", 200.0)],
            },
            end_time=1000,
        )
        study = build_report(dataset).study
        assert [f.detected_at for f in study.freezes] == [300.0, 500.0]

    def test_freezes_by_phone(self):
        dataset = dataset_from_records(
            {
                "a": [boot(0.0, "NONE", 0.0), boot(500.0, "ALIVE", 400.0)],
                "b": [boot(0.0, "NONE", 0.0)],
            },
            end_time=1000,
        )
        study = build_report(dataset).study
        assert study.freezes_by_phone() == {"a": 1}


class TestFigure2:
    def test_histogram_counts(self):
        records = [boot(0.0, "NONE", 0.0)]
        # three short shutdowns, one long
        for start, off in ((1000, 70), (2000, 90), (3000, 85), (10000, 30000)):
            records.append(boot(start + off, "REBOOT", start))
        study = study_of(records)
        hist = study.duration_histogram([0, 100, 1000, 100000])
        assert [count for _lo, _hi, count in hist] == [3, 0, 1]

    def test_histogram_invalid_edges(self):
        study = study_of([boot(0.0, "NONE", 0.0)])
        with pytest.raises(ValueError):
            study.duration_histogram([10, 10])
        with pytest.raises(ValueError):
            study.duration_histogram([10])

    def test_median_self_shutdown_duration(self):
        records = [boot(0.0, "NONE", 0.0)]
        for i, off in enumerate((60, 80, 100)):
            start = 1000 * (i + 1)
            records.append(boot(start + off, "REBOOT", start))
        study = study_of(records)
        assert study.median_self_shutdown_duration() == 80.0

    def test_median_even_count(self):
        records = [boot(0.0, "NONE", 0.0)]
        for i, off in enumerate((60, 100)):
            start = 1000 * (i + 1)
            records.append(boot(start + off, "REBOOT", start))
        assert study_of(records).median_self_shutdown_duration() == 80.0

    def test_median_empty(self):
        assert study_of([boot(0.0, "NONE", 0.0)]).median_self_shutdown_duration() == 0.0

    def test_night_mode(self):
        records = [boot(0.0, "NONE", 0.0)]
        for i, off in enumerate((29000, 30000, 31000)):
            start = 100000 * (i + 1)
            records.append(boot(start + off, "REBOOT", start))
        assert study_of(records, end_time=1e6).night_mode_duration() == 30000.0

    def test_self_shutdown_fraction(self):
        records = [boot(0.0, "NONE", 0.0)]
        for i, off in enumerate((80, 80, 80, 30000)):
            start = 100000 * (i + 1)
            records.append(boot(start + off, "REBOOT", start))
        study = study_of(records, end_time=1e6)
        assert study.self_shutdown_fraction() == pytest.approx(0.75)

    def test_fraction_empty(self):
        assert study_of([boot(0.0, "NONE", 0.0)]).self_shutdown_fraction() == 0.0


class TestOnRealCampaign:
    def test_bimodal_reboot_durations(self, quick_campaign):
        study = quick_campaign.report.study
        selfs = study.self_shutdowns()
        users = study.user_shutdowns()
        assert selfs, "campaign produced self-shutdowns"
        assert users, "campaign produced user shutdowns"
        # The two lobes the paper shows: short mode well under the
        # threshold, night mode in the hours range.
        assert study.median_self_shutdown_duration() < 200.0
        assert study.night_mode_duration() > 3600.0

    def test_freeze_counts_match_ground_truth(self, quick_campaign):
        study = quick_campaign.report.study
        truth = quick_campaign.ground_truth
        # Every freeze leaves an ALIVE boot unless the campaign ended
        # while the phone was still frozen/off (at most one per phone),
        # or the freeze happened during a logger-off (MAOFF) period.
        assert abs(len(study.freezes) - truth["freezes"]) <= 1 + int(
            truth.get("maoff", 0)
        ) + quick_campaign.dataset.phone_count

    def test_threshold_is_papers(self):
        assert SELF_SHUTDOWN_THRESHOLD == 360.0


class TestHistogramEdges:
    """Half-open bin convention: [lo, hi) for every bin."""

    def test_duration_on_interior_edge_goes_to_upper_bin(self):
        records = [boot(0.0, "NONE", 0.0), boot(1100.0, "REBOOT", 1000.0)]
        hist = study_of(records).duration_histogram([0, 100, 1000])
        assert [count for _lo, _hi, count in hist] == [0, 1]

    def test_duration_on_last_edge_is_excluded(self):
        records = [boot(0.0, "NONE", 0.0), boot(2000.0, "REBOOT", 1000.0)]
        hist = study_of(records).duration_histogram([0, 100, 1000])
        assert [count for _lo, _hi, count in hist] == [0, 0]

    def test_duration_below_first_edge_is_excluded(self):
        records = [boot(0.0, "NONE", 0.0), boot(1050.0, "REBOOT", 1000.0)]
        hist = study_of(records).duration_histogram([100, 1000])
        assert [count for _lo, _hi, count in hist] == [0]

    def test_unsorted_edges_rejected(self):
        study = study_of([boot(0.0, "NONE", 0.0)])
        with pytest.raises(ValueError):
            study.duration_histogram([100, 50, 200])
