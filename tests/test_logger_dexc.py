"""Tests for the D_EXC baseline (panic-only) logger."""

import pytest

from repro.analysis.ingest import Dataset
from repro.analysis.report import build_report
from repro.core.clock import MONTH
from repro.core.engine import Simulator
from repro.core.rand import RandomStreams
from repro.core.records import PanicRecord
from repro.logger.dexc import attach_dexc
from repro.phone.device import SmartPhone
from repro.phone.fleet import Fleet, FleetConfig
from repro.phone.profiles import make_profile
from repro.symbian.errors import PanicRaised


@pytest.fixture()
def rig():
    sim = Simulator()
    profile = make_profile("phone-00", RandomStreams(6).fork("phone-00"))
    device = SmartPhone(sim, profile)
    dexc = attach_dexc(device)
    device.boot()
    return sim, device, dexc


def crash_app(device, name="Camera"):
    process = device.open_app(name)
    with pytest.raises(PanicRaised):
        device.os.kernel.execute(process, lambda: process.space.read(0))


class TestDexcLogger:
    def test_panics_recorded(self, rig):
        _sim, device, dexc = rig
        crash_app(device)
        records = dexc.storage.records()
        assert len(records) == 1
        assert isinstance(records[0], PanicRecord)
        assert records[0].category == "KERN-EXEC"

    def test_records_only_panics(self, rig):
        _sim, device, dexc = rig
        device.begin_call(60.0)
        device.end_call()
        crash_app(device)
        assert dexc.storage.line_count == 1  # no activity/runapp/boot lines

    def test_survives_reboots(self, rig):
        sim, device, dexc = rig
        crash_app(device, "Camera")
        device.graceful_shutdown("user")
        sim.run_until(sim.now + 60)
        device.boot()
        crash_app(device, "Clock")
        assert dexc.panics_recorded == 2

    def test_keeps_recording_during_maoff(self, rig):
        """The baseline's one advantage: it is not the logger the user
        turned off."""
        _sim, device, dexc = rig
        device.stop_logger()
        crash_app(device)
        assert dexc.panics_recorded == 1
        # ...while the main logger missed it entirely.
        main_panics = [
            r for r in device.storage.records() if isinstance(r, PanicRecord)
        ]
        assert main_panics == []

    def test_stops_at_freeze(self, rig):
        sim, device, dexc = rig
        device.freeze()
        # Nothing runs while frozen; count unchanged.
        assert dexc.panics_recorded == 0


class TestDexcOnFleet:
    @pytest.fixture(scope="class")
    def fleet(self):
        config = FleetConfig(
            phone_count=4,
            duration=3 * MONTH,
            enroll_fraction_min=0.0,
            enroll_fraction_max=0.1,
            attach_dexc=True,
        )
        fleet = Fleet(config, seed=21)
        fleet.run()
        return fleet

    def test_dexc_reproduces_table2(self, fleet):
        full = Dataset.from_collector(fleet.collector, end_time=fleet.config.duration)
        dexc = Dataset.from_lines(
            fleet.dexc_dataset(), end_time=fleet.config.duration
        )
        table_full = build_report(full).panic_table
        table_dexc = build_report(dexc).panic_table
        # D_EXC sees every panic the full logger saw (and possibly the
        # MAOFF-window ones the full logger missed).
        assert table_dexc.total >= table_full.total
        full_counts = {r.panic_id: r.count for r in table_full.rows}
        dexc_counts = {r.panic_id: r.count for r in table_dexc.rows}
        for pid, count in full_counts.items():
            assert dexc_counts.get(pid, 0) >= count

    def test_dexc_cannot_answer_failure_questions(self, fleet):
        dexc = Dataset.from_lines(
            fleet.dexc_dataset(), end_time=fleet.config.duration
        )
        for log in dexc.logs.values():
            assert log.boots == []  # no freeze/shutdown discrimination
            assert log.activities == []  # no Table 3
            assert log.runapps == []  # no Table 4 / Figure 6
            assert log.power == []

    def test_dexc_disabled_by_default(self, monkeypatch):
        built = []
        build_phone = Fleet._build_phone

        def watched(self, index, enrolled_at):
            instance = build_phone(self, index, enrolled_at)
            built.append(instance.dexc)
            return instance

        monkeypatch.setattr(Fleet, "_build_phone", watched)
        config = FleetConfig(phone_count=2, duration=MONTH)
        fleet = Fleet(config, seed=3)
        fleet.run()
        assert built == [None, None]
        assert fleet.dexc_dataset() == {}
