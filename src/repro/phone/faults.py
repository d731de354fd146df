"""The fault model: defect activation, bursts, and failure outcomes.

This is the *only* place where the paper's published numbers enter the
simulation — as calibration of activation rates and outcome
probabilities (see DESIGN.md §3).  Everything downstream is honest:

* A defect activation picks a panic type for its context and *misuses
  the Symbian substrate* accordingly (null dereference, descriptor
  overflow, double free, stray signal, ...).  The panic is raised by
  the substrate's own guard and reaches the logger through RDebug.
* Error propagation is modelled as bursts: one activation can cascade
  into several panics in short succession (the paper observed 25% of
  panics arriving in cascades — Figure 3 — and attributed them to
  propagation between applications).
* The high-level outcome follows the paper's Figure 5a policy:
  panics in the critical Phone / MsgServer processes reboot the phone
  mechanically (the kernel's doing, not this module's); system-category
  panics corrupt system state with a calibrated probability, leading to
  a freeze or a kernel-initiated reboot moments later; pure application
  panics never escalate.
* Freezes and self-shutdowns also happen with *no* recorded panic
  ("silent" HL events) — in the paper roughly half of HL events have
  no coalescing panic; causes outside the panic mechanism (firmware,
  drivers, hardware) are modelled as Poisson processes.

Context-conditional panic-type weights encode Table 3's observations:
USER and ViewSrv panics occur only during voice calls, Phone.app and
MSGS Client only during messaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.clock import HOUR
from repro.core.rand import RandomStreams, Stream
from repro.core.records import ACTIVITY_MESSAGE, ACTIVITY_VOICE_CALL, PHASE_START
from repro.phone.apps import MESSAGES, TELEPHONE, popularity_weights
from repro.phone.device import STATE_ON, SmartPhone
from repro.symbian import panics as P
from repro.symbian.active import CActive, CActiveScheduler, TRequestStatus
from repro.symbian.appfw import AudioClient, Edwin, ListBox
from repro.symbian.cobject import CObject
from repro.symbian.descriptors import TDes16
from repro.symbian.errors import KERR_GENERAL, Leave, PanicRaised
from repro.symbian.handles import RHandleBase
from repro.symbian.ipc import RMessagePtr
from repro.symbian.kernel import Process
from repro.symbian.panics import PanicId
from repro.symbian.timers import RTimer

CONTEXT_VOICE = ACTIVITY_VOICE_CALL
CONTEXT_MESSAGE = ACTIVITY_MESSAGE
CONTEXT_BACKGROUND = "background"

#: Name used for panics raised in system services with no user app.
SYSTEM_SERVICE_PROCESS = "SysSrv"


def _voice_weights() -> Dict[PanicId, float]:
    """Panic-type mix for defects activated during a voice call."""
    return {
        P.KERN_EXEC_3: 70.0,
        P.KERN_EXEC_0: 8.0,
        P.USER_11: 26.0,
        P.USER_10: 9.0,
        P.USER_70: 3.0,
        P.VIEW_SRV_11: 10.0,
        P.E32USER_CBASE_69: 8.0,
        P.E32USER_CBASE_33: 5.0,
        P.E32USER_CBASE_46: 1.0,
        P.E32USER_CBASE_47: 1.0,
    }


def _message_weights() -> Dict[PanicId, float]:
    """Panic-type mix for defects activated during messaging.

    Most MSGS Client panics live in the *background* mix instead: the
    paper's Table 3 shows only ~1% of HL panics during registered
    message activity even though MSGS Client is 6.31% of all panics —
    the messaging server mostly dies on background receive paths the
    Log Engine never sees as user activity.
    """
    return {
        P.MSGS_CLIENT_3: 3.0,
        P.PHONE_APP_2: 1.0,
        P.KERN_EXEC_3: 8.0,
        P.KERN_EXEC_0: 1.5,
        P.E32USER_CBASE_69: 1.5,
    }


def _background_weights() -> Dict[PanicId, float]:
    """Panic-type mix for defects activated outside calls/messages."""
    return {
        P.KERN_EXEC_3: 165.0,
        P.MSGS_CLIENT_3: 18.0,
        P.KERN_EXEC_0: 15.0,
        P.KERN_EXEC_15: 2.0,
        P.E32USER_CBASE_33: 17.0,
        P.E32USER_CBASE_46: 2.0,
        P.E32USER_CBASE_69: 30.0,
        P.E32USER_CBASE_91: 2.0,
        P.E32USER_CBASE_92: 3.0,
        P.EIKON_LISTBOX_5: 3.0,
        P.EIKON_LISTBOX_3: 1.0,
        P.EIKCOCTL_70: 1.0,
        P.MMF_AUDIO_CLIENT_4: 1.0,
        P.KERN_SVR_0: 1.0,
    }


def _outcome_policy() -> Dict[str, Tuple[float, float]]:
    """Category -> (P(high-level event), P(freeze | high-level event)).

    Categories absent here either never escalate (pure application
    panics: EIKON-LISTBOX, EIKCOCTL, MMFAudioClient, KERN-SVR) or
    escalate mechanically through process criticality (Phone.app,
    MSGS Client).
    """
    return {
        P.KERN_EXEC: (0.46, 0.62),
        P.E32USER_CBASE: (0.60, 0.85),
        P.USER: (0.50, 0.80),
        P.VIEW_SRV: (0.55, 1.00),
    }


@dataclass
class FaultModelConfig:
    """Calibrated knobs of the fault model (defaults target the paper's
    campaign scale: ~25 phones, 14 months, staggered enrollment)."""

    #: Poisson rate of background defect activations, per powered-on second.
    background_burst_rate: float = 1.0 / (560 * HOUR)
    #: Probability a voice call activates a defect burst.
    per_call_burst_prob: float = 0.0075
    #: Probability a message transaction activates a defect burst.
    per_message_burst_prob: float = 0.0005
    #: When a background defect activates on an otherwise idle phone,
    #: probability that it is in fact activated by a short foreground
    #: interaction (the user opened an application and it panicked) —
    #: this is what gives Figure 6 its mode at one running application.
    idle_usage_prob: float = 0.70
    #: Burst-size distribution (number of panics in one cascade).
    #: Panic-weighted, this puts ~25% of panics in cascades of >1,
    #: matching Figure 3 (cascades cut short by a reboot mid-burst pull
    #: the realized fraction slightly below the nominal one).
    burst_sizes: Dict[int, float] = field(
        default_factory=lambda: {1: 0.855, 2: 0.098, 3: 0.032, 4: 0.011, 5: 0.004}
    )
    #: Median / sigma of the lognormal gap between cascade panics (s).
    burst_gap_median: float = 8.0
    burst_gap_sigma: float = 0.8
    #: Median / sigma of the delay from burst to its HL outcome (s).
    outcome_delay_median: float = 25.0
    outcome_delay_sigma: float = 0.8
    #: Poisson rate of freezes with no recorded panic, per on-second.
    silent_freeze_rate: float = 1.0 / (400 * HOUR)
    #: Poisson rate of self-shutdowns with no recorded panic, per on-second.
    silent_shutdown_rate: float = 1.0 / (280 * HOUR)
    #: Poisson rate of user-visible misbehavior with no recorded panic
    #: (output failures from defects outside the panic mechanism).  The
    #: §4 forum study found output failures *more* common than freezes,
    #: which pins this well above the panic-driven visible rate.
    silent_misbehavior_rate: float = 1.0 / (260 * HOUR)
    #: Probability a burst that caused no crash is still *visible* to
    #: the user as misbehavior (an output failure: wrong volume, stale
    #: display, a terminated application...).  What the user then does
    #: — power-cycle and wait ("reboot"+"wait" recovery of §4, which is
    #: what lifts the all-shutdown coalescence fraction above the
    #: freeze/self-shutdown one, paper: 55% vs 51%), file a report with
    #: the logger (§7 extension), or shrug — is the user model's call.
    visible_misbehavior_prob: float = 0.35
    #: Probability a freeze interrupts a log write in progress,
    #: leaving the file's final line truncated (tolerated by the
    #: offline parser; a real pulled-battery artifact).
    freeze_corruption_prob: float = 0.10
    #: Delay from burst to the user noticing the misbehavior (s).
    user_reaction_delay_min: float = 60.0
    user_reaction_delay_max: float = 240.0
    #: Context-conditional panic-type weights.
    voice_weights: Dict[PanicId, float] = field(default_factory=_voice_weights)
    message_weights: Dict[PanicId, float] = field(default_factory=_message_weights)
    background_weights: Dict[PanicId, float] = field(
        default_factory=_background_weights
    )
    #: Category -> (hl_prob, freeze_share) for non-critical system panics.
    outcome_policy: Dict[str, Tuple[float, float]] = field(
        default_factory=_outcome_policy
    )

    def weights_for(self, context: str) -> Dict[PanicId, float]:
        if context == CONTEXT_VOICE:
            return self.voice_weights
        if context == CONTEXT_MESSAGE:
            return self.message_weights
        return self.background_weights


class FaultModel:
    """Drives defect activations against one phone."""

    def __init__(
        self,
        device: SmartPhone,
        streams: RandomStreams,
        config: Optional[FaultModelConfig] = None,
    ) -> None:
        self.device = device
        self.config = config if config is not None else FaultModelConfig()
        self._stream: Stream = streams.stream("faults")
        #: Separate streams so the misbehavior and corruption processes
        #: never perturb the calibrated panic/HL realization.
        self._misbehavior_stream: Stream = streams.stream("faults.misbehavior")
        self._corruption_stream: Stream = streams.stream("faults.corruption")
        self._injectors = _build_injector_table()
        #: Optional callable invoked when a non-crashing burst produces
        #: user-visible misbehavior; wired to
        #: :meth:`repro.phone.user.UserModel.perceive_misbehavior`.
        self.misbehavior_observer: Optional[Callable[[], None]] = None
        # Ground-truth counters for validating the analysis pipeline.
        self.bursts_started = 0
        self.panics_injected = 0
        self.silent_freezes = 0
        self.silent_shutdowns = 0
        self.silent_misbehaviors = 0
        self.panic_freezes = 0
        self.panic_shutdowns = 0
        device.boot_listeners.append(self._on_boot)
        device.activity_listeners.append(self._on_activity)

    # -- scheduling hooks -------------------------------------------------------

    def _on_boot(self) -> None:
        """Arm the background and silent-failure processes for this cycle."""
        boot_count = self.device.boot_count
        self._schedule_poisson(
            self.config.background_burst_rate,
            lambda: self._fire_background(boot_count),
        )
        self._schedule_poisson(
            self.config.silent_freeze_rate,
            lambda: self._fire_silent_freeze(boot_count),
        )
        self._schedule_poisson(
            self.config.silent_shutdown_rate,
            lambda: self._fire_silent_shutdown(boot_count),
        )
        self._schedule_misbehavior(boot_count)

    def _on_activity(self, kind: str, phase: str, duration: float) -> None:
        """Arm an activity-triggered burst with the calibrated probability."""
        if phase != PHASE_START:
            return
        if kind == ACTIVITY_VOICE_CALL:
            prob = self.config.per_call_burst_prob
        else:
            prob = self.config.per_message_burst_prob
        if not self._stream.bernoulli(prob):
            return
        # The defect activates somewhere inside the activity.
        offset = self._stream.uniform(0.0, max(duration, 5.0))
        self.device.sim.schedule_after(offset, self._run_burst, kind)

    def _schedule_poisson(self, rate: float, fire: Callable[[], None]) -> None:
        if rate <= 0:
            return
        delay = self._stream.exponential(1.0 / rate)
        self.device.sim.schedule_after(delay, fire)

    def _fire_background(self, boot_count: int) -> None:
        # Stale events from a previous power cycle do nothing.
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        self._run_burst(CONTEXT_BACKGROUND)
        self._schedule_poisson(
            self.config.background_burst_rate,
            lambda: self._fire_background(boot_count),
        )

    def _fire_silent_freeze(self, boot_count: int) -> None:
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        self.silent_freezes += 1
        self.device.freeze(corrupt_tail=self._roll_corruption())

    def _fire_silent_shutdown(self, boot_count: int) -> None:
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        self.silent_shutdowns += 1
        self.device.graceful_shutdown("self")

    def _schedule_misbehavior(self, boot_count: int) -> None:
        rate = self.config.silent_misbehavior_rate
        if rate <= 0:
            return
        delay = self._misbehavior_stream.exponential(1.0 / rate)
        self.device.sim.schedule_after(
            delay, self._fire_silent_misbehavior, boot_count
        )

    def _fire_silent_misbehavior(self, boot_count: int) -> None:
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        self.silent_misbehaviors += 1
        if self.misbehavior_observer is not None:
            self.misbehavior_observer()
        self._schedule_misbehavior(boot_count)

    # -- burst execution -------------------------------------------------------------

    def _run_burst(self, context: str) -> None:
        """One defect activation: a cascade of panics plus its outcome."""
        if self.device.state != STATE_ON:
            return
        if (
            context == CONTEXT_BACKGROUND
            and not self.device.running_apps()
            and self._stream.bernoulli(self.config.idle_usage_prob)
        ):
            # The defect is really activated by a short foreground
            # interaction: the user opens an app and *that* panics.
            app_id = self._stream.weighted_choice(popularity_weights())
            self.device.open_app(app_id)
            boot_count = self.device.boot_count
            self.device.sim.schedule_after(
                self._stream.uniform(2.0, 45.0), self._run_burst_now, context
            )
            self.device.sim.schedule_after(
                self._stream.uniform(60.0, 240.0),
                self._close_usage_app,
                app_id,
                boot_count,
            )
            return
        self._run_burst_now(context)

    def _close_usage_app(self, app_id: str, boot_count: int) -> None:
        if self.device.boot_count == boot_count:
            self.device.close_app(app_id)

    def _run_burst_now(self, context: str) -> None:
        if self.device.state != STATE_ON:
            return
        size = self._stream.weighted_choice(self.config.burst_sizes)
        self.bursts_started += 1
        boot_count = self.device.boot_count
        first_panic = self._inject_one(context)
        if first_panic is None:
            return
        remaining = size - 1
        if remaining > 0:
            gap = self._stream.lognormal_median(
                self.config.burst_gap_median, self.config.burst_gap_sigma
            )
            self.device.sim.schedule_after(
                gap, self._continue_burst, context, remaining, boot_count
            )
        self._decide_outcome(first_panic, boot_count)

    def _continue_burst(self, context: str, remaining: int, boot_count: int) -> None:
        """Error propagation: follow-on panics in other components."""
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        # Propagated panics hit interacting components; keep the same
        # context so e.g. a voice-call cascade stays voice-flavoured.
        self._inject_one(context)
        if remaining > 1:
            gap = self._stream.lognormal_median(
                self.config.burst_gap_median, self.config.burst_gap_sigma
            )
            self.device.sim.schedule_after(
                gap, self._continue_burst, context, remaining - 1, boot_count
            )

    def _decide_outcome(self, panic_id: PanicId, boot_count: int) -> None:
        """Escalation of a burst into a freeze or self-shutdown."""
        if panic_id.category in (P.PHONE_APP, P.MSGS_CLIENT):
            return  # critical process: the kernel already requested a reboot
        policy = self.config.outcome_policy.get(panic_id.category)
        if policy is None:
            self._maybe_visible_misbehavior(boot_count)
            return  # application panic: the kernel contained it
        hl_prob, freeze_share = policy
        if not self._stream.bernoulli(hl_prob):
            self._maybe_visible_misbehavior(boot_count)
            return
        delay = self._stream.lognormal_median(
            self.config.outcome_delay_median, self.config.outcome_delay_sigma
        )
        if self._stream.bernoulli(freeze_share):
            self.device.sim.schedule_after(delay, self._apply_freeze, boot_count)
        else:
            self.device.sim.schedule_after(delay, self._apply_shutdown, boot_count)

    def _apply_freeze(self, boot_count: int) -> None:
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        self.panic_freezes += 1
        self.device.freeze(corrupt_tail=self._roll_corruption())

    def _apply_shutdown(self, boot_count: int) -> None:
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        self.panic_shutdowns += 1
        self.device.graceful_shutdown("self")

    def _roll_corruption(self) -> bool:
        return self._corruption_stream.bernoulli(
            self.config.freeze_corruption_prob
        )

    def _maybe_visible_misbehavior(self, boot_count: int) -> None:
        """A contained panic can still be user-visible misbehavior."""
        if self.misbehavior_observer is None:
            return
        if not self._stream.bernoulli(self.config.visible_misbehavior_prob):
            return
        delay = self._stream.uniform(
            self.config.user_reaction_delay_min, self.config.user_reaction_delay_max
        )
        self.device.sim.schedule_after(
            delay, self._apply_visible_misbehavior, boot_count
        )

    def _apply_visible_misbehavior(self, boot_count: int) -> None:
        if self.device.boot_count != boot_count or self.device.state != STATE_ON:
            return
        assert self.misbehavior_observer is not None
        self.misbehavior_observer()

    # -- injection ----------------------------------------------------------------------

    def _inject_one(self, context: str) -> Optional[PanicId]:
        """Activate one defect; returns the panic id actually raised."""
        device = self.device
        if device.state != STATE_ON or device.os is None:
            return None
        panic_id = self._stream.weighted_choice(self.config.weights_for(context))
        victim = self._pick_victim(panic_id, context)
        if victim is None or not victim.alive:
            return None
        injector = self._injectors[panic_id]
        try:
            injector(self, victim)
        except PanicRaised as raised:
            self.panics_injected += 1
            return raised.panic_id
        # An injector that did not panic is a bug in the fault model.
        raise AssertionError(f"defect for {panic_id} failed to panic")

    def _pick_victim(self, panic_id: PanicId, context: str) -> Optional[Process]:
        """Choose the process in which the defect activates."""
        device = self.device
        os = device.os
        assert os is not None
        if panic_id.category == P.PHONE_APP:
            return os.phone_process
        if panic_id.category == P.MSGS_CLIENT:
            return os.msg_server_process
        if context == CONTEXT_VOICE:
            process = device.app_process(TELEPHONE)
            if process is not None and panic_id.category in (P.USER, P.VIEW_SRV):
                return process
            return self._running_app_or(process)
        if context == CONTEXT_MESSAGE:
            return self._running_app_or(device.app_process(MESSAGES))
        return self._running_app_or(None)

    def _running_app_or(self, preferred: Optional[Process]) -> Process:
        """A running user app (preferring ``preferred``), else a system
        service process created on the spot."""
        device = self.device
        os = device.os
        assert os is not None
        if preferred is not None and preferred.alive:
            # Defects cluster in the component doing the work, but
            # propagation can hit a bystander app.
            if self._stream.bernoulli(0.8):
                return preferred
        candidates = [
            device.app_process(app_id)
            for app_id in device.running_apps()
            if device.app_process(app_id) is not None
        ]
        live = [proc for proc in candidates if proc is not None and proc.alive]
        if live:
            weights = popularity_weights()
            weighted = {
                proc: weights.get(proc.name, 0.02) for proc in live
            }
            return self._stream.weighted_choice(weighted)
        if preferred is not None and preferred.alive:
            return preferred
        existing = os.kernel.find_process(SYSTEM_SERVICE_PROCESS)
        if existing is not None and existing.alive:
            return existing
        return os.kernel.create_process(SYSTEM_SERVICE_PROCESS)


# ---------------------------------------------------------------------------
# Defect injectors: genuine substrate misuse, one per panic type.
# Each runs inside kernel.execute(victim, ...) so the kernel performs
# fault translation, notification, and recovery.
# ---------------------------------------------------------------------------


def _execute(model: FaultModel, victim: Process, fn: Callable[[], None]) -> None:
    os = model.device.os
    assert os is not None
    os.kernel.execute(victim, fn)


def _inject_kern_exec_3(model: FaultModel, victim: Process) -> None:
    """Dereference NULL / a dangling pointer / a wild function pointer."""
    variant = model._stream.choice(["null_read", "null_write", "dangling", "wild_jump"])

    def defect() -> None:
        space = victim.space
        if variant == "null_read":
            space.read(0)
        elif variant == "null_write":
            space.write(4, 0xBAD)
        elif variant == "dangling":
            region = space.map_region(16, name="temp")
            address = region.base
            space.unmap_region(region)
            space.read(address)
        else:
            space.execute(0xFFFF_0000)

    _execute(model, victim, defect)


def _inject_kern_exec_0(model: FaultModel, victim: Process) -> None:
    """Use a raw handle number with no object behind it."""
    bogus = model._stream.randint(1, 0x1FFF)
    _execute(model, victim, lambda: victim.object_index.at(bogus))


def _inject_kern_exec_15(model: FaultModel, victim: Process) -> None:
    """Request a timer event while one is already outstanding."""

    def defect() -> None:
        timer = RTimer(model.device.sim, name=f"{victim.name}.timer")
        timer.after(TRequestStatus(), 60.0)
        timer.after(TRequestStatus(), 60.0)

    _execute(model, victim, defect)


def _inject_e32_33(model: FaultModel, victim: Process) -> None:
    """Delete a CObject whose reference count is not zero."""

    def defect() -> None:
        obj = CObject(f"{victim.name}.session")
        obj.open_ref()
        obj.delete()

    _execute(model, victim, defect)


def _inject_e32_46(model: FaultModel, victim: Process) -> None:
    """Complete a request no active object owns: a stray signal."""

    def defect() -> None:
        scheduler = CActiveScheduler(f"{victim.name}.sched")
        status = TRequestStatus()
        status.attach_scheduler(scheduler)
        status.mark_pending()
        status.complete(0)
        scheduler.run_one()

    _execute(model, victim, defect)


class _LeakyAO(CActive):
    """An active object whose handler leaves and declines to recover."""

    def run_l(self) -> None:
        raise Leave(KERR_GENERAL)


def _inject_e32_47(model: FaultModel, victim: Process) -> None:
    """RunL leaves; the default scheduler Error() panics."""

    def defect() -> None:
        scheduler = CActiveScheduler(f"{victim.name}.sched")
        ao = _LeakyAO(scheduler, name="leaky")
        ao.i_status.mark_pending()
        ao.set_active()
        ao.i_status.complete(0)
        scheduler.run_one()

    _execute(model, victim, defect)


def _inject_e32_69(model: FaultModel, victim: Process) -> None:
    """Use the cleanup stack with no trap harness installed."""
    _execute(model, victim, lambda: victim.cleanup.push(object()))


def _inject_e32_91(model: FaultModel, victim: Process) -> None:
    """Corrupt a heap cell header; the next heap check finds it."""

    def defect() -> None:
        address = victim.heap.alloc(8)
        if address is None:
            victim.space.read(0)  # heap exhausted: fail hard anyway
            return
        victim.heap.corrupt_header(address)
        victim.heap.check()

    _execute(model, victim, defect)


def _inject_e32_92(model: FaultModel, victim: Process) -> None:
    """Double free."""

    def defect() -> None:
        address = victim.heap.alloc(8)
        if address is None:
            victim.space.read(0)
            return
        victim.heap.free(address)
        victim.heap.free(address)

    _execute(model, victim, defect)


def _inject_user_10(model: FaultModel, victim: Process) -> None:
    """Descriptor position out of bounds."""
    position = model._stream.randint(12, 64)

    def defect() -> None:
        descriptor = TDes16(32, "call waiting")
        descriptor.mid(position, 3)

    _execute(model, victim, defect)


def _inject_user_11(model: FaultModel, victim: Process) -> None:
    """Copy/append past the descriptor's maximum length."""
    overflow = "+" * model._stream.randint(24, 96)

    def defect() -> None:
        descriptor = TDes16(16, "caller id: ")
        descriptor.append(overflow)

    _execute(model, victim, defect)


def _inject_user_70(model: FaultModel, victim: Process) -> None:
    """Complete a client/server request through a null RMessagePtr."""
    _execute(model, victim, lambda: RMessagePtr().complete(0))


def _inject_kern_svr_0(model: FaultModel, victim: Process) -> None:
    """Close a corrupt handle (double close)."""

    def defect() -> None:
        handle = RHandleBase(victim.object_index)
        handle.open_object(CObject(f"{victim.name}.res"))
        saved = handle.handle
        handle.close()
        handle.handle = saved  # the corrupt copy
        handle.close()

    _execute(model, victim, defect)


def _inject_viewsrv_11(model: FaultModel, victim: Process) -> None:
    """An event handler monopolizes the active scheduler; the View
    Server declares the app stuck and panics it."""
    os = model.device.os
    assert os is not None
    os.viewsrv.register(victim)
    busy = os.viewsrv.deadline + model._stream.uniform(5.0, 30.0)
    os.viewsrv.report_handler_duration(victim, busy)
    os.viewsrv.ping(victim)


def _inject_listbox_3(model: FaultModel, victim: Process) -> None:
    """Draw a listbox with no view defined."""

    def defect() -> None:
        listbox = ListBox()
        listbox.set_items(["entry"])
        listbox.draw()

    _execute(model, victim, defect)


def _inject_listbox_5(model: FaultModel, victim: Process) -> None:
    """Select an invalid current item index."""
    from repro.symbian.appfw import ListBoxView

    bad_index = model._stream.randint(5, 50)

    def defect() -> None:
        listbox = ListBox()
        listbox.set_view(ListBoxView())
        listbox.set_items(["a", "b", "c"])
        listbox.set_current_item_index(bad_index)

    _execute(model, victim, defect)


def _inject_eikcoctl_70(model: FaultModel, victim: Process) -> None:
    """Corrupt edwin inline-editing state."""

    def defect() -> None:
        edwin = Edwin()
        edwin.text.copy("writing a repl")
        edwin.begin_inline_edit()
        edwin.corrupt_inline_state()
        edwin.update_inline_text("y")

    _execute(model, victim, defect)


def _inject_phone_app_2(model: FaultModel, victim: Process) -> None:
    """Illegal telephony state transition inside the core Phone app."""
    os = model.device.os
    assert os is not None
    phone_app = os.phone_app
    illegal = {
        "idle": "connected",
        "dialling": "ringing",
        "ringing": "dialling",
        "connected": "ringing",
    }[phone_app.state]
    _execute(model, victim, lambda: phone_app.transition(illegal))


def _inject_msgs_client_3(model: FaultModel, victim: Process) -> None:
    """Messaging write-back into a descriptor that cannot hold it."""
    os = model.device.os
    assert os is not None
    body = "incoming message " * model._stream.randint(2, 8)

    def defect() -> None:
        index = os.msgs_client.store_message(body)
        target = TDes16(8)
        os.msgs_client.fetch_message(index, target)

    _execute(model, victim, defect)


def _inject_mmf_4(model: FaultModel, victim: Process) -> None:
    """SetVolume with a value of 10 or more."""
    volume = model._stream.randint(10, 20)

    def defect() -> None:
        audio = AudioClient()
        audio.play()
        audio.set_volume(volume)

    _execute(model, victim, defect)


def _build_injector_table() -> Dict[PanicId, Callable[[FaultModel, Process], None]]:
    return {
        P.KERN_EXEC_3: _inject_kern_exec_3,
        P.KERN_EXEC_0: _inject_kern_exec_0,
        P.KERN_EXEC_15: _inject_kern_exec_15,
        P.E32USER_CBASE_33: _inject_e32_33,
        P.E32USER_CBASE_46: _inject_e32_46,
        P.E32USER_CBASE_47: _inject_e32_47,
        P.E32USER_CBASE_69: _inject_e32_69,
        P.E32USER_CBASE_91: _inject_e32_91,
        P.E32USER_CBASE_92: _inject_e32_92,
        P.USER_10: _inject_user_10,
        P.USER_11: _inject_user_11,
        P.USER_70: _inject_user_70,
        P.KERN_SVR_0: _inject_kern_svr_0,
        P.VIEW_SRV_11: _inject_viewsrv_11,
        P.EIKON_LISTBOX_3: _inject_listbox_3,
        P.EIKON_LISTBOX_5: _inject_listbox_5,
        P.EIKCOCTL_70: _inject_eikcoctl_70,
        P.PHONE_APP_2: _inject_phone_app_2,
        P.MSGS_CLIENT_3: _inject_msgs_client_3,
        P.MMF_AUDIO_CLIENT_4: _inject_mmf_4,
    }
