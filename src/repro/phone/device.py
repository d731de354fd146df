"""The smart phone: power lifecycle, applications, activities.

A :class:`SmartPhone` owns persistent storage (the log file and beats
file survive reboots) and, while powered, an :class:`OSRuntime` — a
fresh Symbian substrate instance per power cycle, exactly as a real
reboot rebuilds kernel state.  The failure-data logger daemon is
started at every boot, as on the paper's phones.  Every exit from ON
(graceful shutdown, freeze, battery pull) retires the runtime, and
stopping the logger retires its daemon; retirement breaks their
reference cycles, so both are freed by refcount on the spot.

State machine::

    OFF --boot--> ON --graceful_shutdown--> OFF
                   \\--freeze--> FROZEN --battery_pull--> OFF

* ``graceful_shutdown`` lets applications finish (Symbian semantics),
  so the Heartbeat writes its final REBOOT/LOWBT/MAOFF event.
* ``freeze`` halts everything abruptly; the last heartbeat on flash
  stays ALIVE, which is how the next boot convicts the freeze.
* a panic in a *critical* process (Phone, MsgServer) makes the kernel
  request a reboot: the device performs a ``self`` shutdown moments
  later — the paper's self-shutdown failure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import Simulator
from repro.core.events import EventBus
from repro.core.records import (
    ACTIVITY_MESSAGE,
    ACTIVITY_VOICE_CALL,
    PHASE_END,
    PHASE_START,
    EnrollRecord,
    wire_time,
)
from repro.logger.daemon import FailureDataLogger, LoggerConfig
from repro.logger.heartbeat import BeatsFile
from repro.logger.logfile import LogStorage
from repro.phone.apps import MESSAGES, TELEPHONE
from repro.phone.battery import Battery
from repro.phone.profiles import UserProfile
from repro.symbian.appfw import MsgsClient, PhoneApp
from repro.symbian.descriptors import TDes16
from repro.symbian.kernel import (
    TOPIC_PANIC,
    TOPIC_REBOOT_REQUEST,
    KernelExecutive,
    PanicEvent,
    Process,
)
from repro.symbian.servers import (
    AppArchServer,
    LogDatabaseServer,
    RDebug,
    SystemAgent,
    ViewServer,
)

STATE_OFF = "off"
STATE_ON = "on"
STATE_FROZEN = "frozen"

SHUTDOWN_USER = "user"
SHUTDOWN_SELF = "self"
SHUTDOWN_LOWBT = "lowbt"
SHUTDOWN_MAOFF = "maoff"
SHUTDOWN_PULL = "pull"
SHUTDOWN_KINDS = (
    SHUTDOWN_USER,
    SHUTDOWN_SELF,
    SHUTDOWN_LOWBT,
    SHUTDOWN_MAOFF,
    SHUTDOWN_PULL,
)

#: Seconds between the kernel's reboot request and the actual shutdown
#: (the OS gives applications time to complete; this is what lets the
#: heartbeat log the REBOOT event before power drops).
SELF_SHUTDOWN_GRACE = 2.0

#: Critical system processes: a panic in one forces a reboot.
CRITICAL_PHONE_PROCESS = "Phone"
CRITICAL_MSG_PROCESS = "MsgServer"


class OSRuntime:
    """One power cycle's Symbian substrate instance.

    :meth:`teardown` retires it: every component breaks the reference
    cycles it owns, so the runtime is freed by refcount the moment its
    power cycle ends rather than lingering as cyclic garbage.
    """

    def __init__(self, sim: Simulator, phone_id: str) -> None:
        self.bus = EventBus()
        self.kernel = KernelExecutive(bus=self.bus, time_fn=sim.clock.read)
        self.apparch = AppArchServer(bus=self.bus)
        self.logdb = LogDatabaseServer(bus=self.bus)
        self.sysagent = SystemAgent(bus=self.bus)
        self.rdebug = RDebug(self.bus)
        self.viewsrv = ViewServer(self.kernel)
        # Core system processes (always running, invisible to the
        # Application Architecture Server's user-app list).
        self.phone_process = self.kernel.create_process(
            CRITICAL_PHONE_PROCESS, critical=True
        )
        self.msg_server_process = self.kernel.create_process(
            CRITICAL_MSG_PROCESS, critical=True
        )
        self.phone_app = PhoneApp()
        self.msgs_client = MsgsClient()
        self.phone_id = phone_id

    def teardown(self) -> None:
        """Power-off: stop RDebug, drop the process table and retire
        the bus.  The logger daemon detaches first."""
        self.rdebug.detach()
        self.kernel.shutdown()
        self.bus.retire()


Listener = Callable[..., None]


class SmartPhone:
    """A simulated Symbian smart phone with the failure logger installed."""

    def __init__(
        self,
        sim: Simulator,
        profile: UserProfile,
        logger_config: Optional[LoggerConfig] = None,
    ) -> None:
        self.sim = sim
        self._clock = sim.clock  # hoisted: activity paths read time per event
        self.profile = profile
        self.phone_id = profile.phone_id
        self.logger_config = logger_config if logger_config is not None else LoggerConfig()

        # Persistent across power cycles (flash storage).
        self.storage = LogStorage(self.phone_id)
        self.beats = BeatsFile()
        self.battery = Battery()

        self.state = STATE_OFF
        self.os: Optional[OSRuntime] = None
        self.daemon: Optional[FailureDataLogger] = None
        self._app_procs: Dict[str, Process] = {}
        self._activity: Optional[str] = None
        self._enrolled = False
        self._pending_self_shutdown = False

        # Statistics (ground truth for validating the analysis).
        self.boot_count = 0
        self.freeze_count = 0
        self.battery_pull_count = 0
        self.shutdown_counts: Dict[str, int] = {kind: 0 for kind in SHUTDOWN_KINDS}
        # Event-bus stats folded in from retired runtimes (each power
        # cycle gets a fresh bus; see bus_stats for the lifetime view).
        self._bus_publishes = 0
        self._bus_deliveries = 0

        # Listener lists; models register here.
        self.boot_listeners: List[Listener] = []
        self.shutdown_listeners: List[Listener] = []  # fn(kind)
        self.freeze_listeners: List[Listener] = []
        self.activity_listeners: List[Listener] = []  # fn(kind, phase, duration)

    # -- state queries --------------------------------------------------------

    @property
    def is_on(self) -> bool:
        return self.state == STATE_ON

    @property
    def current_activity(self) -> Optional[str]:
        """``voice_call``/``message`` while one is in progress, else None."""
        return self._activity

    def running_apps(self) -> Tuple[str, ...]:
        if self.os is None:
            return ()
        return self.os.apparch.running_apps()

    # -- power lifecycle --------------------------------------------------------

    def boot(self) -> None:
        """Power the phone on; the logger daemon starts with it."""
        self._require_state(STATE_OFF, "boot")
        now = self.sim.now
        self.state = STATE_ON
        self.boot_count += 1
        self.battery.power_on(now)
        self.os = OSRuntime(self.sim, self.phone_id)
        # Seed the System Agent with the battery level before the
        # logger subscribes, so boots do not produce power records.
        self.os.sysagent.set_level(now, self.battery.level_at(now))
        self.os.bus.subscribe(TOPIC_PANIC, self._on_panic)
        self.os.bus.subscribe(TOPIC_REBOOT_REQUEST, self._on_reboot_request)
        self._pending_self_shutdown = False
        self._activity = None
        self._start_daemon()
        for listener in list(self.boot_listeners):
            listener()

    def graceful_shutdown(self, kind: str) -> None:
        """Orderly power-off; applications (and the heartbeat) finish."""
        if kind not in (SHUTDOWN_USER, SHUTDOWN_SELF, SHUTDOWN_LOWBT):
            raise ValueError(f"not a graceful shutdown kind: {kind!r}")
        self._require_state(STATE_ON, "graceful_shutdown")
        if self.daemon is not None:
            self.daemon.notify_shutdown(kind)
        self._power_down(kind)

    def freeze(self, corrupt_tail: bool = False) -> None:
        """The phone locks up: output constant, no response to input.

        ``corrupt_tail=True`` models the hang interrupting a log write
        in progress: the file's final line is left truncated (the
        offline parser skips it).
        """
        self._require_state(STATE_ON, "freeze")
        if self.daemon is not None:
            self.daemon.halt()
            self.daemon = None
        if corrupt_tail:
            self.storage.truncate_tail()
        self.state = STATE_FROZEN
        self.freeze_count += 1
        self._retire_os()
        self._app_procs.clear()
        self._activity = None
        for listener in list(self.freeze_listeners):
            listener()

    def battery_pull(self, corrupt_tail: bool = False) -> None:
        """Power cut: nothing gets to write anything.

        ``corrupt_tail=True`` models the cut landing mid-flash-write:
        the log file's final line is left truncated.  The offline
        parser tolerates it (the line is skipped), exactly the
        corruption a real pulled battery leaves behind.
        """
        if self.state == STATE_OFF:
            raise ValueError("battery pull on a phone that is already off")
        if self.state == STATE_ON and self.daemon is not None:
            # Power is cut mid-operation; the daemon cannot write a
            # final beat, it is simply gone.
            self.daemon.halt()
        if corrupt_tail:
            self.storage.truncate_tail()
        self.battery_pull_count += 1
        self._power_down(SHUTDOWN_PULL)

    def report_failure(self, kind: str) -> bool:
        """The user files an interactive failure report with the logger
        (§7 extension).  No-op when the phone or the logger is off."""
        if self.state != STATE_ON or self.daemon is None:
            return False
        return self.daemon.record_user_report(kind)

    # -- logger control (MAOFF) ----------------------------------------------------

    def stop_logger(self) -> None:
        """User deliberately turns the logger application off (MAOFF)."""
        self._require_state(STATE_ON, "stop_logger")
        if self.daemon is None:
            return
        self.daemon.notify_shutdown(SHUTDOWN_MAOFF)
        self.daemon = None

    def restart_logger(self) -> None:
        """User restarts the logger application."""
        self._require_state(STATE_ON, "restart_logger")
        if self.daemon is not None:
            return
        self._start_daemon()

    # -- applications -----------------------------------------------------------------

    def open_app(self, app_id: str) -> Optional[Process]:
        """Launch a user application; returns its process (or the
        existing one if already running)."""
        if self.state != STATE_ON:  # fast guard; slow path formats the error
            self._require_state(STATE_ON, "open_app")
        assert self.os is not None
        existing = self._app_procs.get(app_id)
        if existing is not None:
            return existing
        process = self.os.kernel.create_process(app_id)
        self._app_procs[app_id] = process
        self.os.viewsrv.register(process)
        self.os.apparch.app_started(app_id)
        return process

    def close_app(self, app_id: str) -> None:
        """Exit a user application; unknown ids are ignored."""
        if self.state != STATE_ON or self.os is None:
            return
        process = self._app_procs.pop(app_id, None)
        if process is None:
            return
        if process.alive:
            self.os.viewsrv.unregister(process)
            self.os.kernel.terminate_process(process)
        self.os.apparch.app_stopped(app_id)

    def app_process(self, app_id: str) -> Optional[Process]:
        """The live process of a running user app, or ``None``."""
        return self._app_procs.get(app_id)

    # -- activities --------------------------------------------------------------------

    def begin_call(self, duration: float) -> bool:
        """Start a voice call expected to last ``duration`` seconds.

        Returns False (and does nothing) when the phone is not idle-on.
        """
        if self.state != STATE_ON or self._activity is not None:
            return False
        assert self.os is not None
        now = self._clock._now
        self.open_app(TELEPHONE)
        if self.os.phone_app.state != "idle":
            # A previous call was torn down abnormally (fault mid-call);
            # the stack re-idles before a new call can be set up.
            self.os.phone_app.reset()
        self.os.phone_app.dial()
        self.os.phone_app.answer()
        self.os.logdb.add_event(now, ACTIVITY_VOICE_CALL, PHASE_START)
        self.battery.note_call_seconds(now, duration)
        self._activity = ACTIVITY_VOICE_CALL
        self._notify_activity(ACTIVITY_VOICE_CALL, PHASE_START, duration)
        return True

    def end_call(self) -> None:
        """Hang up the in-progress call (no-op if it died with the phone)."""
        if self.state != STATE_ON or self._activity != ACTIVITY_VOICE_CALL:
            return
        assert self.os is not None
        now = self._clock._now
        if self.os.phone_app.state == "connected":
            self.os.phone_app.hang_up()
        self.os.logdb.add_event(now, ACTIVITY_VOICE_CALL, PHASE_END)
        self._activity = None
        self._notify_activity(ACTIVITY_VOICE_CALL, PHASE_END, 0.0)
        self.close_app(TELEPHONE)

    def begin_message(self, duration: float) -> bool:
        """Start composing/reading a text message."""
        if self.state != STATE_ON or self._activity is not None:
            return False
        assert self.os is not None
        now = self._clock._now
        self.open_app(MESSAGES)
        self.os.logdb.add_event(now, ACTIVITY_MESSAGE, PHASE_START)
        self._activity = ACTIVITY_MESSAGE
        self._notify_activity(ACTIVITY_MESSAGE, PHASE_START, duration)
        return True

    def end_message(self) -> None:
        """Finish the message transaction through the messaging server."""
        if self.state != STATE_ON or self._activity != ACTIVITY_MESSAGE:
            return
        assert self.os is not None
        now = self._clock._now
        # The normal (non-faulty) messaging round trip: store the body
        # and read it back into an adequately sized descriptor.  Skipped
        # when the messaging server already died of a panic (the phone
        # is about to self-shutdown).
        if self.os.msg_server_process.alive:
            index = self.os.msgs_client.store_message("message body")
            target = TDes16(160)
            self.os.kernel.execute(
                self.os.msg_server_process,
                self.os.msgs_client.fetch_message,
                index,
                target,
            )
        self.os.logdb.add_event(now, ACTIVITY_MESSAGE, PHASE_END)
        self._activity = None
        self._notify_activity(ACTIVITY_MESSAGE, PHASE_END, 0.0)
        self.close_app(MESSAGES)

    # -- internals --------------------------------------------------------------------------

    def _start_daemon(self) -> None:
        assert self.os is not None
        self.daemon = FailureDataLogger(
            self.sim, self.os, self.storage, self.beats, self.logger_config
        )
        enroll = None
        if not self._enrolled:
            self._enrolled = True
            enroll = EnrollRecord(
                time=wire_time(self.sim.now),
                phone_id=self.phone_id,
                os_version=self.profile.os_version,
                region=self.profile.region,
            )
        self.daemon.start(enroll)

    def _power_down(self, kind: str) -> None:
        self.state = STATE_OFF
        self.battery.power_off(self.sim.now)
        self._retire_os()
        self.daemon = None
        self._app_procs.clear()
        self._activity = None
        self.shutdown_counts[kind] += 1
        for listener in list(self.shutdown_listeners):
            listener(kind)

    def _retire_os(self) -> None:
        """Tear down the current runtime, keeping its bus stats."""
        os = self.os
        if os is not None:
            self._bus_publishes += os.bus.publishes
            self._bus_deliveries += os.bus.deliveries
            os.teardown()
            self.os = None

    def retire(self) -> None:
        """The phone leaves the campaign for good: drop a live runtime
        and daemon, and the listeners (each a bound method of a model
        that holds this phone), so that refcount frees it.

        The daemon detaches its observers but is not halted: the phone
        has been tallied and synced, and a halt would write one more
        beat.
        """
        if self.daemon is not None:
            self.daemon.detach()
            self.daemon = None
        self._retire_os()
        self._app_procs.clear()
        self.boot_listeners.clear()
        self.shutdown_listeners.clear()
        self.freeze_listeners.clear()
        self.activity_listeners.clear()

    def bus_stats(self) -> Tuple[int, int]:
        """Lifetime ``(publishes, deliveries)`` across all power cycles,
        including the live runtime's bus if the phone is on."""
        publishes = self._bus_publishes
        deliveries = self._bus_deliveries
        if self.os is not None:
            publishes += self.os.bus.publishes
            deliveries += self.os.bus.deliveries
        return publishes, deliveries

    def _on_panic(self, event: PanicEvent) -> None:
        """Keep the app registry consistent: a panicking app is gone."""
        process = self._app_procs.pop(event.process_name, None)
        if process is not None and self.os is not None:
            self.os.viewsrv.unregister(process)
            self.os.apparch.app_stopped(event.process_name)
        if self._activity == ACTIVITY_VOICE_CALL and event.process_name == TELEPHONE:
            # The call dies with the Telephone app; the telephony stack
            # tears the call state back down to idle.
            self._activity = None
            if self.os is not None:
                self.os.phone_app.reset()
        if self._activity == ACTIVITY_MESSAGE and event.process_name == MESSAGES:
            self._activity = None

    def _on_reboot_request(self, _event) -> None:
        """Kernel demands a reboot (critical-process panic)."""
        if self._pending_self_shutdown:
            return
        self._pending_self_shutdown = True
        self.sim.schedule_after(SELF_SHUTDOWN_GRACE, self._do_self_shutdown)

    def _do_self_shutdown(self) -> None:
        self._pending_self_shutdown = False
        if self.state == STATE_ON:
            self.graceful_shutdown(SHUTDOWN_SELF)

    def _notify_activity(self, kind: str, phase: str, duration: float) -> None:
        # No defensive copy: listeners register once at construction
        # (fault model, tests) and never detach mid-notification.
        for listener in self.activity_listeners:
            listener(kind, phase, duration)

    def _require_state(self, expected: str, op: str) -> None:
        if self.state != expected:
            raise ValueError(
                f"{op} requires state {expected!r}, phone {self.phone_id} "
                f"is {self.state!r}"
            )

    def __repr__(self) -> str:
        return f"SmartPhone({self.phone_id!r}, {self.state})"
