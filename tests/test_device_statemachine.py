"""Stateful property test: the device power lifecycle under arbitrary
operation sequences.

Hypothesis drives random boot / shutdown / freeze / pull / activity /
app sequences against a SmartPhone and checks the invariants the whole
study rests on:

* state transitions only along the documented machine;
* the beats file always reflects the last cycle faithfully (ALIVE after
  a freeze/pull, REBOOT after graceful shutdowns, ...);
* boot records reconstruct the power-cycle history exactly;
* the logger's record stream timestamps are monotone;
* a retired runtime is freed by refcount (cyclic GC is off throughout).
"""

import gc
import weakref

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.rand import RandomStreams
from repro.core.records import (
    BEAT_ALIVE,
    BEAT_LOWBT,
    BEAT_MAOFF,
    BEAT_NONE,
    BEAT_REBOOT,
    BootRecord,
)
from repro.phone.apps import app_ids
from repro.phone.device import (
    STATE_FROZEN,
    STATE_OFF,
    STATE_ON,
    SmartPhone,
)
from repro.phone.profiles import make_profile


class DeviceLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        profile = make_profile("sm-phone", RandomStreams(77).fork("sm-phone"))
        self.phone = SmartPhone(self.sim, profile)
        #: Expected beat kinds at next boot, per our own book-keeping.
        self.expected_beat = BEAT_NONE
        self.cycle_count = 0
        self.restarts = 0
        #: Weakrefs to the last runtime and its cycle-prone parts.
        self.last_runtime = ()
        # Without cyclic GC, a runtime that is not freed by refcount
        # stays alive, which retired_runtime_released catches.
        self._gc_was_enabled = gc.isenabled()
        gc.disable()

    def teardown(self):
        if self._gc_was_enabled:
            gc.enable()

    # -- operations ------------------------------------------------------------

    def _advance(self, seconds):
        self.sim.run_until(self.sim.now + seconds)

    @precondition(lambda self: self.phone.state == STATE_OFF)
    @rule(gap=st.floats(min_value=1.0, max_value=3600.0))
    def boot(self, gap):
        self._advance(gap)
        self.phone.boot()
        self.cycle_count += 1
        runtime = self.phone.os
        self.last_runtime = tuple(
            weakref.ref(part) for part in (runtime, runtime.kernel, runtime.bus)
        )

    @precondition(lambda self: self.phone.state == STATE_ON)
    @rule(
        kind=st.sampled_from(["user", "self", "lowbt"]),
        uptime=st.floats(min_value=1.0, max_value=7200.0),
    )
    def graceful_shutdown(self, kind, uptime):
        self._advance(uptime)
        self.phone.graceful_shutdown(kind)
        self.expected_beat = BEAT_LOWBT if kind == "lowbt" else BEAT_REBOOT

    @precondition(lambda self: self.phone.state == STATE_ON)
    @rule(uptime=st.floats(min_value=1.0, max_value=7200.0))
    def freeze(self, uptime):
        self._advance(uptime)
        self.phone.freeze()
        self.expected_beat = BEAT_ALIVE

    @precondition(lambda self: self.phone.state in (STATE_ON, STATE_FROZEN))
    @rule(delay=st.floats(min_value=1.0, max_value=600.0))
    def battery_pull(self, delay):
        self._advance(delay)
        was_on = self.phone.state == STATE_ON
        self.phone.battery_pull()
        if was_on:
            self.expected_beat = BEAT_ALIVE

    @precondition(lambda self: self.phone.state == STATE_ON)
    @rule(app=st.sampled_from(app_ids()))
    def open_and_close_app(self, app):
        self.phone.open_app(app)
        assert app in self.phone.running_apps()
        self.phone.close_app(app)
        assert app not in self.phone.running_apps()

    @precondition(lambda self: self.phone.state == STATE_ON)
    @rule(duration=st.floats(min_value=1.0, max_value=300.0))
    def call(self, duration):
        if self.phone.begin_call(duration):
            self._advance(duration)
            self.phone.end_call()

    @precondition(
        lambda self: self.phone.state == STATE_ON and self.phone.daemon is not None
    )
    @rule(off_for=st.floats(min_value=1.0, max_value=600.0))
    def logger_off_on(self, off_for):
        self.phone.stop_logger()
        self._advance(off_for)
        self.phone.restart_logger()
        self.restarts += 1
        # Beats now show MAOFF then ALIVE again; a pull right now would
        # read ALIVE (logger restarted).  Track via beats file directly.
        del off_for

    # -- invariants ------------------------------------------------------------

    @invariant()
    def state_is_legal(self):
        assert self.phone.state in (STATE_OFF, STATE_ON, STATE_FROZEN)

    @invariant()
    def daemon_only_while_on(self):
        if self.phone.state != STATE_ON:
            assert self.phone.daemon is None

    @invariant()
    def os_only_while_on(self):
        assert (self.phone.os is not None) == (self.phone.state == STATE_ON)

    @invariant()
    def boot_records_match_cycles(self):
        boots = [
            r for r in self.phone.storage.records() if isinstance(r, BootRecord)
        ]
        # One boot record per boot, plus one per logger restart.
        assert len(boots) == self.cycle_count + self.restarts
        if boots:
            assert boots[0].last_beat_kind == BEAT_NONE

    @invariant()
    def retired_runtime_released(self):
        if self.phone.state in (STATE_OFF, STATE_FROZEN):
            assert [ref() for ref in self.last_runtime if ref() is not None] == []

    @invariant()
    def record_times_monotone(self):
        times = [r.time for r in self.phone.storage.records()]
        assert times == sorted(times)

    @invariant()
    def beats_match_expectation_when_off(self):
        if self.phone.state == STATE_OFF and self.cycle_count > 0:
            kind, _time = self.phone.beats.last_event()
            if self.expected_beat != BEAT_NONE:
                assert kind in (self.expected_beat, BEAT_MAOFF)


TestDeviceLifecycle = DeviceLifecycle.TestCase
TestDeviceLifecycle.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
