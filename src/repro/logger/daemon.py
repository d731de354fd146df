"""The failure-data-logger daemon: wiring of the active objects.

Mirrors Figure 1 of the paper: one daemon application, started at phone
boot, hosting the Heartbeat, Panic Detector, Running Applications
Detector, Log Engine, and Power Manager active objects on a single
active scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.engine import Simulator
from repro.core.records import (
    BEAT_LOWBT,
    BEAT_MAOFF,
    BEAT_REBOOT,
    EnrollRecord,
    UserReportRecord,
    wire_time,
)
from repro.logger.heartbeat import (
    DEFAULT_PERIOD,
    MODE_VIRTUAL,
    BeatsFile,
    Heartbeat,
)
from repro.logger.log_engine import LogEngine
from repro.logger.logfile import LogStorage
from repro.logger.panic_detector import PanicDetector
from repro.logger.power import PowerManager
from repro.logger.runapp import RunningAppsDetector
from repro.symbian.active import CActiveScheduler


@dataclass(frozen=True)
class LoggerConfig:
    """Tunables of the on-phone logger."""

    heartbeat_period: float = DEFAULT_PERIOD
    heartbeat_mode: str = MODE_VIRTUAL
    #: Skip the boot-time RUNAPPS snapshot when the running set is
    #: unchanged since the last write (saves flash; Table 4 identical).
    dedupe_runapps: bool = True


class FailureDataLogger:
    """One power cycle of the logger daemon.

    The daemon is recreated at each boot (as on the real phone), but
    writes to persistent storage (:class:`LogStorage` and
    :class:`BeatsFile`) owned by the device.
    """

    def __init__(
        self,
        sim: Simulator,
        os_runtime,
        storage: LogStorage,
        beats: BeatsFile,
        config: Optional[LoggerConfig] = None,
    ) -> None:
        config = config if config is not None else LoggerConfig()
        self.sim = sim
        self.storage = storage
        self.config = config
        self.scheduler = CActiveScheduler(f"logger:{storage.phone_id}")
        self.heartbeat = Heartbeat(
            beats, sim, period=config.heartbeat_period, mode=config.heartbeat_mode
        )
        bus = os_runtime.bus
        self.panic_detector = PanicDetector(
            self.scheduler, storage, os_runtime.rdebug, beats
        )
        self.runapp_detector = RunningAppsDetector(
            self.scheduler, storage, bus, os_runtime.apparch, sim.clock.read,
            dedupe=config.dedupe_runapps,
        )
        self.log_engine = LogEngine(self.scheduler, storage, bus)
        self.power_manager = PowerManager(self.scheduler, storage, bus)
        self._started = False
        self._stopped = False

    # -- lifecycle ------------------------------------------------------------

    def start(self, enroll: Optional[EnrollRecord] = None) -> None:
        """Daemon start at phone boot.

        Order matters and follows the paper: the Panic Detector first
        inspects the beats file from the previous cycle and writes the
        boot entry; only then does the Heartbeat begin overwriting it.
        """
        if self._started:
            raise ValueError("logger daemon already started")
        self._started = True
        now = self.sim.now
        if enroll is not None:
            self.storage.append_record(enroll)
        self.panic_detector.record_boot(now)
        self.heartbeat.start(now)
        self.runapp_detector.record_initial_snapshot()

    def notify_shutdown(self, kind: str) -> None:
        """Graceful shutdown: final beat, then detach all observers.

        ``kind`` is a device shutdown kind; the final beat is REBOOT for
        user- and kernel-initiated shutdowns, LOWBT for a flat battery,
        MAOFF when the user stops the logger manually.
        """
        beat = {
            "user": BEAT_REBOOT,
            "self": BEAT_REBOOT,
            "lowbt": BEAT_LOWBT,
            "maoff": BEAT_MAOFF,
        }.get(kind)
        if beat is None:
            raise ValueError(f"unknown shutdown kind {kind!r}")
        self.heartbeat.shutdown(beat, self.sim.now)
        self._detach()

    def halt(self) -> None:
        """Abrupt halt (the phone froze): nothing more gets written."""
        self.heartbeat.halt(self.sim.now)
        self._detach()

    def detach(self) -> None:
        """Stop observing without writing a final beat (the phone has
        left the campaign; its logs are already shipped)."""
        self._detach()

    def record_user_report(self, kind: str) -> bool:
        """§7 extension: the user reports a perceived failure.

        Output failures, input failures, and erratic behaviour cannot
        be detected automatically (a perfect observer would be needed);
        the logger therefore exposes this interactive report action.
        Returns whether the report was stored (the daemon may be off).
        """
        if not self.active:
            return False
        self.storage.append_record(
            UserReportRecord(time=wire_time(self.sim.now), kind=kind)
        )
        return True

    @property
    def active(self) -> bool:
        return self._started and not self._stopped

    def _detach(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        for ao in (
            self.panic_detector,
            self.runapp_detector,
            self.log_engine,
            self.power_manager,
        ):
            ao.detach()
