"""Tests for the user model and the fleet."""

import pytest

from repro.core.clock import DAY, HOUR
from repro.core.engine import Simulator
from repro.core.rand import RandomStreams
from repro.core.records import ActivityRecord, BootRecord
from repro.phone.device import STATE_OFF, STATE_ON, SmartPhone
from repro.phone.faults import FaultModelConfig
from repro.phone.fleet import Fleet, FleetConfig
from repro.phone.profiles import UserProfile
from repro.phone.user import UserModel


def quiet_profile(**overrides) -> UserProfile:
    """A deterministic-ish profile for focused user-model tests."""
    values = dict(
        phone_id="phone-00",
        region="Italy",
        os_version="8.0",
        calls_per_day=4.0,
        messages_per_day=4.0,
        app_sessions_per_day=4.0,
        wake_hour=8.0,
        sleep_hour=23.0,
        night_off_prob=0.0,
        forget_charge_prob=0.0,
        impatience_median=120.0,
        day_reboot_prob=0.0,
        call_duration_median=90.0,
        message_duration_median=30.0,
    )
    values.update(overrides)
    return UserProfile(**values)


def make_user_rig(profile=None, days=3, seed=5):
    sim = Simulator()
    profile = profile or quiet_profile()
    device = SmartPhone(sim, profile)
    user = UserModel(device, RandomStreams(seed).fork("u"), campaign_end=days * DAY)
    return sim, device, user


class TestUserModel:
    def test_enroll_boots_the_phone(self):
        sim, device, user = make_user_rig()
        user.enroll(9 * HOUR)
        sim.run_until(9 * HOUR + 1)
        assert device.is_on

    def test_activities_happen_during_the_day(self):
        sim, device, user = make_user_rig()
        user.enroll(9 * HOUR)
        sim.run_until(2 * DAY)
        acts = [r for r in device.storage.records() if isinstance(r, ActivityRecord)]
        assert len(acts) > 4  # a few calls/messages over two days

    def test_night_off_user_shuts_down_and_reboots_next_morning(self):
        sim, device, user = make_user_rig(quiet_profile(night_off_prob=1.0))
        user.enroll(9 * HOUR)
        sim.run_until(DAY + 2 * HOUR)  # past bedtime (23:00), before wake
        assert device.state == STATE_OFF
        sim.run_until(DAY + 10 * HOUR)  # past wake (8:00 + jitter)
        assert device.is_on
        boots = [r for r in device.storage.records() if isinstance(r, BootRecord)]
        night = [b for b in boots if b.last_beat_kind == "REBOOT"]
        assert len(night) == 1
        # ~9 hours off (23:00 -> ~08:10)
        assert 7 * HOUR < night[0].off_duration < 12 * HOUR

    def test_always_on_user_stays_on_at_night(self):
        sim, device, user = make_user_rig(quiet_profile(night_off_prob=0.0))
        user.enroll(9 * HOUR)
        sim.run_until(DAY + 2 * HOUR)
        assert device.is_on

    def test_freeze_triggers_battery_pull_and_reboot(self):
        sim, device, user = make_user_rig()
        user.enroll(9 * HOUR)
        sim.run_until(10 * HOUR)
        device.freeze()
        sim.run_until(10 * HOUR + 6 * HOUR)
        assert device.is_on  # pulled and rebooted
        assert user.battery_pulls == 1
        boots = [r for r in device.storage.records() if isinstance(r, BootRecord)]
        assert boots[-1].last_beat_kind == "ALIVE"

    def test_overnight_freeze_noticed_in_the_morning(self):
        sim, device, user = make_user_rig()
        user.enroll(9 * HOUR)
        sim.run_until(DAY + 3 * HOUR)  # 03:00, user asleep, phone on
        device.freeze()
        sim.run_until(DAY + 7 * HOUR)
        assert device.state == "frozen"  # still frozen before wake
        sim.run_until(DAY + 12 * HOUR)
        assert device.is_on

    def test_self_shutdown_rebooted_quickly(self):
        sim, device, user = make_user_rig()
        user.enroll(9 * HOUR)
        sim.run_until(10 * HOUR)
        device.graceful_shutdown("self")
        sim.run_until(10 * HOUR + 30 * 60)
        assert device.is_on
        boots = [r for r in device.storage.records() if isinstance(r, BootRecord)]
        assert boots[-1].off_duration < 30 * 60

    def test_reaction_reboot_has_long_off_time(self):
        sim, device, user = make_user_rig()
        user.enroll(9 * HOUR)
        sim.run_until(10 * HOUR)
        user.react_to_misbehavior()
        assert device.state == STATE_OFF
        sim.run_until(10 * HOUR + HOUR)
        assert device.is_on
        boots = [r for r in device.storage.records() if isinstance(r, BootRecord)]
        assert boots[-1].last_beat_kind == "REBOOT"
        assert boots[-1].off_duration > 360.0  # classified as user shutdown
        assert user.reaction_reboots == 1

    def test_forgotten_charge_leads_to_lowbt(self):
        sim, device, user = make_user_rig(
            quiet_profile(forget_charge_prob=1.0, night_off_prob=0.0)
        )
        device.battery.set_level(0.0, 0.25)  # low enough to die overnight
        user.enroll(9 * HOUR)
        sim.run_until(2 * DAY)
        boots = [r for r in device.storage.records() if isinstance(r, BootRecord)]
        assert any(b.last_beat_kind == "LOWBT" for b in boots)

    def test_no_activity_after_campaign_end(self):
        sim, device, user = make_user_rig(days=1)
        user.enroll(9 * HOUR)
        sim.run_until(DAY)
        count_at_end = device.storage.line_count
        sim.run_until(3 * DAY)
        # nothing new was planned past the end
        assert device.storage.line_count <= count_at_end + 2


class TestFleet:
    def test_small_campaign_produces_logs_for_every_phone(self):
        config = FleetConfig(
            phone_count=3,
            duration=20 * DAY,
            enroll_fraction_min=0.0,
            enroll_fraction_max=0.2,
        )
        fleet = Fleet(config, seed=99)
        fleet.run()
        assert len(fleet.collector.phone_ids()) == 3
        for phone_id in fleet.collector.phone_ids():
            assert len(fleet.collector.lines_for(phone_id)) > 10

    def test_deterministic_given_seed(self):
        def run(seed):
            config = FleetConfig(
                phone_count=2,
                duration=10 * DAY,
                enroll_fraction_min=0.0,
                enroll_fraction_max=0.1,
            )
            fleet = Fleet(config, seed=seed)
            fleet.run()
            return fleet.collector.dataset()

        assert run(5) == run(5)

    def test_different_seed_differs(self):
        def run(seed):
            config = FleetConfig(
                phone_count=2,
                duration=10 * DAY,
                enroll_fraction_min=0.0,
                enroll_fraction_max=0.1,
            )
            fleet = Fleet(config, seed=seed)
            fleet.run()
            return fleet.collector.dataset()

        assert run(5) != run(6)

    def test_build_twice_rejected(self):
        fleet = Fleet(FleetConfig(phone_count=1, duration=DAY))
        fleet.build()
        with pytest.raises(ValueError):
            fleet.build()

    def test_run_twice_rejected(self):
        fleet = Fleet(
            FleetConfig(
                phone_count=1,
                duration=DAY,
                enroll_fraction_min=0.0,
                enroll_fraction_max=0.1,
            )
        )
        fleet.run()
        with pytest.raises(ValueError):
            fleet.run()

    def test_ground_truth_keys(self):
        fleet = Fleet(
            FleetConfig(
                phone_count=2,
                duration=5 * DAY,
                enroll_fraction_min=0.0,
                enroll_fraction_max=0.1,
            ),
            seed=1,
        )
        fleet.run()
        truth = fleet.ground_truth()
        for key in (
            "freezes",
            "self_shutdowns",
            "user_shutdowns",
            "lowbt_shutdowns",
            "panics",
            "boots",
            "observed_hours",
        ):
            assert key in truth

    def test_enrollment_staggered_within_bounds(self):
        config = FleetConfig(
            phone_count=10,
            duration=100 * DAY,
            enroll_fraction_min=0.2,
            enroll_fraction_max=0.6,
        )
        fleet = Fleet(config, seed=3)
        fleet.build()
        assert len(fleet.enrollments) == 10
        for enrolled_at in fleet.enrollments:
            fraction = enrolled_at / config.duration
            assert 0.2 <= fraction <= 0.6
