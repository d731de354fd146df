"""Tests for the §7 extension: output-failure capture via user reports."""

import pytest

from repro.analysis.output_failures import covered_seconds
from repro.analysis.report import build_report
from repro.analysis.streaming import CampaignAccumulator
from repro.core.clock import HOUR
from repro.core.engine import Simulator
from repro.core.errors import AnalysisError
from repro.core.rand import RandomStreams
from repro.core.records import (
    BootRecord,
    PanicRecord,
    REPORT_OUTPUT_FAILURE,
    UserReportRecord,
)
from repro.phone.device import SmartPhone
from repro.phone.profiles import make_profile
from repro.phone.user import UserModel
from tests.helpers import dataset_from_records


def boot(time, kind, beat_time):
    return BootRecord(time, kind, beat_time)


class TestReportChannel:
    def make_phone(self):
        sim = Simulator()
        profile = make_profile("phone-00", RandomStreams(3).fork("phone-00"))
        return SmartPhone(sim, profile)

    def test_report_written_while_on(self):
        phone = self.make_phone()
        phone.boot()
        assert phone.report_failure(REPORT_OUTPUT_FAILURE)
        reports = [
            r for r in phone.storage.records() if isinstance(r, UserReportRecord)
        ]
        assert len(reports) == 1
        assert reports[0].kind == REPORT_OUTPUT_FAILURE

    def test_report_rejected_when_off(self):
        phone = self.make_phone()
        assert not phone.report_failure(REPORT_OUTPUT_FAILURE)

    def test_report_rejected_during_maoff(self):
        phone = self.make_phone()
        phone.boot()
        phone.stop_logger()
        assert not phone.report_failure(REPORT_OUTPUT_FAILURE)


class TestUserCompliance:
    def make_rig(self, compliance):
        sim = Simulator()
        streams = RandomStreams(11).fork("phone-00")
        profile = make_profile("phone-00", streams)
        device = SmartPhone(sim, profile)
        user = UserModel(device, streams, campaign_end=30 * 24 * HOUR)
        user.report_compliance_override = compliance
        device.boot()
        return sim, device, user

    def count_reports(self, device):
        return sum(
            1 for r in device.storage.records() if isinstance(r, UserReportRecord)
        )

    def drive(self, sim, user, n=60):
        device = user.device
        for _ in range(n):
            # Reaction reboots power the phone down for several minutes;
            # only perceive while it is on (as a user would).
            while device.state != "on":
                sim.run_until(sim.now + HOUR)
            user.perceive_misbehavior()
            sim.run_until(sim.now + 600.0)

    def test_full_compliance_accounts_for_every_perception(self):
        sim, device, user = self.make_rig(compliance=1.0)
        self.drive(sim, user)
        assert user.reports_filed > 0
        assert user.reaction_reboots > 0
        # Everything perceived either rebooted the phone or was
        # reported; a report can only be lost to a reboot racing its
        # filing delay (rare).
        accounted = (
            user.reports_filed + user.reaction_reboots + user.reports_forgotten
        )
        assert accounted >= 0.9 * user.misbehaviors_perceived
        assert user.reports_forgotten <= 2

    def test_zero_compliance_reports_nothing(self):
        sim, device, user = self.make_rig(compliance=0.0)
        self.drive(sim, user)
        assert user.reports_filed == 0
        assert user.reports_forgotten > 0
        assert self.count_reports(device) == 0

    def test_partial_compliance_in_between(self):
        sim, device, user = self.make_rig(compliance=0.5)
        self.drive(sim, user)
        assert 0 < user.reports_filed
        assert 0 < user.reports_forgotten

    def test_perceive_noop_when_off(self):
        sim, device, user = self.make_rig(compliance=1.0)
        device.graceful_shutdown("user")
        user.perceive_misbehavior()
        assert user.misbehaviors_perceived == 0

    def test_some_misbehaviors_cause_reaction_reboots(self):
        sim, device, user = self.make_rig(compliance=0.0)
        # Drive perceptions; some should power-cycle the phone.
        for _ in range(80):
            if device.state != "on":
                sim.run_until(sim.now + HOUR)
                continue
            user.perceive_misbehavior()
            sim.run_until(sim.now + 1800.0)
        assert user.reaction_reboots > 0


class TestOutputFailureAnalysis:
    def test_counts_and_interval(self):
        records = [
            boot(0.0, "NONE", 0.0),
            UserReportRecord(1000.0, "output_failure"),
            UserReportRecord(5000.0, "output_failure"),
            UserReportRecord(9000.0, "unstable_behavior"),
        ]
        dataset = dataset_from_records({"p": records}, end_time=240 * HOUR)
        stats = build_report(dataset).output_failures
        assert stats.report_count == 3
        assert stats.reports_by_kind == {
            "output_failure": 2,
            "unstable_behavior": 1,
        }
        assert stats.report_interval_days == pytest.approx(240 / 3 / 24)

    def test_panic_correlation(self):
        records = [
            boot(0.0, "NONE", 0.0),
            PanicRecord(900.0, "KERN-EXEC", 3, "Camera"),
            UserReportRecord(1000.0, "output_failure"),  # within 300 s
            UserReportRecord(90000.0, "output_failure"),  # far from any panic
        ]
        dataset = dataset_from_records({"p": records}, end_time=1000 * HOUR)
        stats = build_report(dataset, window=300.0).output_failures
        assert stats.panic_correlated_fraction == pytest.approx(0.5)
        assert stats.chance_fraction < 0.001
        assert stats.correlation_lift > 100

    def test_no_reports(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0)]}, end_time=HOUR
        )
        stats = build_report(dataset).output_failures
        assert stats.report_count == 0
        assert stats.report_interval_days == float("inf")
        assert stats.panic_correlated_fraction == 0.0

    def test_invalid_window(self):
        dataset = dataset_from_records(
            {"p": [boot(0.0, "NONE", 0.0)]}, end_time=HOUR
        )
        with pytest.raises(AnalysisError):
            CampaignAccumulator.from_dataset(dataset, window=0.0)

    def test_covered_seconds_merges_overlaps(self):
        # [50,150] U [100,200] = [50,200] -> 150 s.
        assert covered_seconds([100.0, 150.0], 50.0) == pytest.approx(150.0)
        # Disjoint windows add up.
        assert covered_seconds([100.0, 400.0], 50.0) == pytest.approx(200.0)
        assert covered_seconds([], 50.0) == 0.0


class TestOnRealCampaign:
    def test_reports_collected(self, paper_campaign):
        stats = paper_campaign.report.output_failures
        assert stats.report_count > 30

    def test_reports_are_a_lower_bound(self, paper_campaign):
        truth = paper_campaign.ground_truth
        stats = paper_campaign.report.output_failures
        assert stats.report_count <= truth["misbehaviors_perceived"]
        assert stats.report_count == pytest.approx(truth["user_reports"], abs=2)

    def test_panic_correlation_above_chance(self, paper_campaign):
        """Footnote 5 of the paper: isolated panics relate to output
        failures.  Reports must correlate with panics far above chance."""
        stats = paper_campaign.report.output_failures
        assert stats.correlation_lift > 10.0
