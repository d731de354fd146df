"""Tests for the system servers."""

import pytest

from repro.core.events import EventBus
from repro.symbian.errors import PanicRaised
from repro.symbian.kernel import KernelExecutive
from repro.symbian.panics import VIEW_SRV_11
from repro.symbian.servers.apparch import TOPIC_APPS_CHANGED, AppArchServer
from repro.symbian.servers.logdb import TOPIC_LOG_EVENT, LogDatabaseServer, LogEvent
from repro.symbian.servers.rdebug import RDebug
from repro.symbian.servers.sysagent import TOPIC_POWER_CHANGED, SystemAgent
from repro.symbian.servers.viewsrv import ViewServer


class TestAppArch:
    def test_start_stop(self):
        server = AppArchServer()
        server.app_started("Messages")
        assert server.running_apps() == ("Messages",)
        server.app_stopped("Messages")
        assert server.running_apps() == ()

    def test_duplicate_start_idempotent(self):
        server = AppArchServer()
        server.app_started("Clock")
        server.app_started("Clock")
        assert server.running_apps() == ("Clock",)

    def test_stop_unknown_ignored(self):
        AppArchServer().app_stopped("Ghost")

    def test_start_order_preserved(self):
        server = AppArchServer()
        server.app_started("A")
        server.app_started("B")
        assert server.running_apps() == ("A", "B")

    def test_change_notifications(self):
        bus = EventBus()
        server = AppArchServer(bus)
        snapshots = []
        bus.subscribe(TOPIC_APPS_CHANGED, snapshots.append)
        server.app_started("A")
        server.app_started("B")
        server.app_stopped("A")
        assert snapshots == [("A",), ("A", "B"), ("B",)]

    def test_no_notification_without_change(self):
        bus = EventBus()
        server = AppArchServer(bus)
        snapshots = []
        bus.subscribe(TOPIC_APPS_CHANGED, snapshots.append)
        server.app_started("A")
        server.app_started("A")
        assert len(snapshots) == 1

    def test_clear(self):
        server = AppArchServer()
        server.app_started("A")
        server.clear()
        assert server.running_apps() == ()

    def test_is_running(self):
        server = AppArchServer()
        server.app_started("A")
        assert server.is_running("A")
        assert not server.is_running("B")


class TestLogDatabase:
    def test_add_and_recent(self):
        server = LogDatabaseServer()
        server.add_event(1.0, "voice_call", "start")
        server.add_event(2.0, "voice_call", "end")
        recent = server.recent()
        assert [e.phase for e in recent] == ["start", "end"]

    def test_publishes_events(self):
        bus = EventBus()
        server = LogDatabaseServer(bus)
        seen = []
        bus.subscribe(TOPIC_LOG_EVENT, seen.append)
        server.add_event(1.0, "message", "start")
        assert seen[0].kind == "message"

    def test_capacity_bound(self):
        server = LogDatabaseServer(capacity=3)
        for i in range(10):
            server.add_event(float(i), "message", "start")
        assert server.count == 3
        assert server.recent(10)[0].time == 7.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            LogDatabaseServer().add_event(1.0, "gaming", "start")

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            LogEvent(1.0, "message", "middle")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LogDatabaseServer(capacity=0)

    def test_recent_zero(self):
        assert LogDatabaseServer().recent(0) == ()

    def test_clear(self):
        server = LogDatabaseServer()
        server.add_event(1.0, "message", "start")
        server.clear()
        assert server.count == 0


class TestSystemAgent:
    def test_initial_state(self):
        agent = SystemAgent()
        assert agent.level == 1.0
        assert agent.state == "discharging"

    def test_charging_state(self):
        agent = SystemAgent()
        agent.set_charging(1.0, True)
        assert agent.state == "charging"

    def test_low_state(self):
        agent = SystemAgent()
        agent.set_level(1.0, 0.03)
        assert agent.state == "low"

    def test_level_clamped(self):
        agent = SystemAgent()
        agent.set_level(1.0, 2.0)
        assert agent.level == 1.0
        agent.set_level(2.0, -1.0)
        assert agent.level == 0.0

    def test_publishes_only_on_state_change(self):
        bus = EventBus()
        agent = SystemAgent(bus)
        seen = []
        bus.subscribe(TOPIC_POWER_CHANGED, lambda *a: seen.append(a))
        agent.set_level(1.0, 0.8)  # discharging -> discharging: silent
        assert seen == []
        agent.set_level(2.0, 0.04)  # -> low
        assert len(seen) == 1
        agent.set_charging(3.0, True)  # -> charging
        assert len(seen) == 2
        agent.set_charging(4.0, True)  # no change
        assert len(seen) == 2


class TestRDebug:
    def _panic(self, kernel, name="App"):
        process = kernel.create_process(name)
        with pytest.raises(PanicRaised):
            kernel.execute(process, lambda: process.space.read(0))

    def test_observer_notified(self):
        bus = EventBus()
        kernel = KernelExecutive(bus=bus)
        rdebug = RDebug(bus)
        events = []
        rdebug.register(events.append)
        self._panic(kernel)
        assert len(events) == 1
        assert events[0].process_name == "App"

    def test_multiple_observers(self):
        bus = EventBus()
        kernel = KernelExecutive(bus=bus)
        rdebug = RDebug(bus)
        a, b = [], []
        rdebug.register(a.append)
        rdebug.register(b.append)
        self._panic(kernel)
        assert len(a) == len(b) == 1

    def test_unregister(self):
        bus = EventBus()
        kernel = KernelExecutive(bus=bus)
        rdebug = RDebug(bus)
        events = []
        handler = events.append
        rdebug.register(handler)
        rdebug.unregister(handler)
        self._panic(kernel)
        assert events == []

    def test_unregister_unknown_ignored(self):
        bus = EventBus()
        RDebug(bus).unregister(lambda e: None)

    def test_detach_stops_notification(self):
        bus = EventBus()
        kernel = KernelExecutive(bus=bus)
        rdebug = RDebug(bus)
        events = []
        rdebug.register(events.append)
        rdebug.detach()
        self._panic(kernel)
        assert events == []

    def test_notified_counter(self):
        bus = EventBus()
        kernel = KernelExecutive(bus=bus)
        rdebug = RDebug(bus)
        self._panic(kernel, "A")
        self._panic(kernel, "B")
        assert rdebug.notified == 2


class TestViewServer:
    def test_responsive_app_survives_ping(self):
        kernel = KernelExecutive()
        viewsrv = ViewServer(kernel)
        process = kernel.create_process("App")
        viewsrv.register(process)
        viewsrv.report_handler_duration(process, 1.0)
        viewsrv.ping(process)
        assert process.alive

    def test_monopolizing_app_panics_viewsrv_11(self):
        kernel = KernelExecutive()
        viewsrv = ViewServer(kernel, deadline=10.0)
        process = kernel.create_process("App")
        viewsrv.register(process)
        viewsrv.report_handler_duration(process, 30.0)
        with pytest.raises(PanicRaised) as exc:
            viewsrv.ping(process)
        assert exc.value.panic_id == VIEW_SRV_11
        assert not process.alive

    def test_unregistered_app_not_pinged(self):
        kernel = KernelExecutive()
        viewsrv = ViewServer(kernel)
        process = kernel.create_process("App")
        viewsrv.report_handler_duration(process, 100.0)  # not registered
        viewsrv.ping(process)
        assert process.alive

    def test_exactly_at_deadline_survives(self):
        kernel = KernelExecutive()
        viewsrv = ViewServer(kernel, deadline=10.0)
        process = kernel.create_process("App")
        viewsrv.register(process)
        viewsrv.report_handler_duration(process, 10.0)
        viewsrv.ping(process)
        assert process.alive

    def test_ping_all_skips_dead_processes(self):
        kernel = KernelExecutive()
        viewsrv = ViewServer(kernel)
        process = kernel.create_process("App")
        viewsrv.register(process)
        kernel.terminate_process(process)
        viewsrv.ping_all()  # must not raise

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            ViewServer(KernelExecutive(), deadline=0.0)

    def test_unregister(self):
        kernel = KernelExecutive()
        viewsrv = ViewServer(kernel, deadline=1.0)
        process = kernel.create_process("App")
        viewsrv.register(process)
        viewsrv.unregister(process)
        viewsrv.report_handler_duration(process, 100.0)
        viewsrv.ping(process)
        assert process.alive

