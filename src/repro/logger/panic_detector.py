"""The Panic Detector active object.

Collects panic events "as soon as they are notified" — through the
RDebug services of the kernel, exactly as the paper describes (§5.1) —
and writes the boot-time entry that captures the previous power cycle's
final heartbeat, the record from which freezes and shutdowns are later
discriminated offline.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.records import BootRecord, PanicRecord, wire_time
from repro.logger.heartbeat import BeatsFile
from repro.observability.telemetry import current_telemetry
from repro.logger.logfile import LogStorage
from repro.symbian.active import PRIORITY_HIGH, CActive, CActiveScheduler
from repro.symbian.kernel import PanicEvent
from repro.symbian.servers.rdebug import RDebug


class PanicDetector(CActive):
    """Logs panics (category + type + process) and the boot entry."""

    def __init__(
        self,
        scheduler: CActiveScheduler,
        storage: LogStorage,
        rdebug: RDebug,
        beats: BeatsFile,
    ) -> None:
        # Panic notifications must win over routine logging: highest
        # priority in the daemon's scheduler.
        super().__init__(scheduler, priority=PRIORITY_HIGH, name="PanicDetector")
        self._storage = storage
        self._beats = beats
        self._rdebug = rdebug
        self._queue: Deque[PanicEvent] = deque()
        self.panics_recorded = 0
        tel = current_telemetry()
        self._recorded_series = (
            tel.registry.counter(
                "logger.panics_recorded_total",
                help="panic records written by the Panic Detector",
            ).series()
            if tel.metrics
            else None
        )
        rdebug.register(self._on_notification)
        self._issue()

    # -- boot entry -----------------------------------------------------------

    def record_boot(self, time: float) -> BootRecord:
        """Write the boot entry: what the beats file says about last cycle."""
        kind, beat_time = self._beats.last_event()
        record = BootRecord(
            time=wire_time(time),
            last_beat_kind=kind,
            last_beat_time=wire_time(beat_time),
        )
        self._storage.append_record(record)
        return record

    # -- AO protocol -------------------------------------------------------------

    def run_l(self) -> None:
        while self._queue:
            event = self._queue.popleft()
            self._storage.append_record(
                PanicRecord(
                    time=wire_time(event.time),
                    category=event.panic_id.category,
                    ptype=event.panic_id.ptype,
                    process=event.process_name,
                )
            )
            self.panics_recorded += 1
            if self._recorded_series is not None:
                self._recorded_series.value += 1.0
        self._issue()

    def do_cancel(self) -> None:
        """Nothing outstanding at the kernel; the queue simply stops."""

    def detach(self) -> None:
        """Stop observing (daemon shutdown or freeze)."""
        self._rdebug.unregister(self._on_notification)
        self.retire()

    # -- internals ------------------------------------------------------------------

    def _issue(self) -> None:
        self.i_status.mark_pending()
        self.set_active()

    def _on_notification(self, event: PanicEvent) -> None:
        self._queue.append(event)
        if self.is_active and self.i_status.pending:
            self.i_status.complete(0)
        self.scheduler.run_until_idle()
