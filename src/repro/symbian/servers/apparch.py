"""Application Architecture Server.

Maintains the list of running (user-visible) applications.  The
logger's Running Applications Detector queries it; it also publishes a
change notification so a change-driven detector can log the set exactly
when it changes instead of polling (see
:class:`repro.logger.runapp.RunningAppsDetector`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.events import EventBus

#: Bus topic published on every running-set change.
TOPIC_APPS_CHANGED = "apparch.apps_changed"


class AppArchServer:
    """Registry of running applications."""

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        self._running: List[str] = []
        # Snapshot flyweights: the same running set recurs constantly
        # (every app open/close round trip returns to a previous set),
        # so snapshots are interned and every subscriber/record holds a
        # shared tuple.  Equality checks downstream (the detector's
        # dedupe against flash) then short-circuit on identity.  The
        # cache is bounded by the number of distinct sets a phone ever
        # reaches — small, since the app universe is.
        self._snapshots: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # -- registration (called by the device/app model) ---------------------

    def app_started(self, app_id: str) -> None:
        """Record an application start; duplicate starts are idempotent."""
        if app_id not in self._running:
            self._running.append(app_id)
            self._publish()

    def app_stopped(self, app_id: str) -> None:
        """Record an application exit; unknown ids are ignored."""
        if app_id in self._running:
            self._running.remove(app_id)
            self._publish()

    def clear(self) -> None:
        """Drop every entry (device shutdown)."""
        if self._running:
            self._running.clear()
            self._publish()

    # -- queries -------------------------------------------------------------

    def running_apps(self) -> Tuple[str, ...]:
        """Snapshot of running application ids, in start order."""
        return self._snapshot()

    def is_running(self, app_id: str) -> bool:
        return app_id in self._running

    def _snapshot(self) -> Tuple[str, ...]:
        snap = tuple(self._running)
        return self._snapshots.setdefault(snap, snap)

    def _publish(self) -> None:
        # _snapshot inlined: one call per running-set change (~166k per
        # paper campaign).
        snap = tuple(self._running)
        self.bus.publish(TOPIC_APPS_CHANGED, self._snapshots.setdefault(snap, snap))
