"""Active objects and the active scheduler.

Symbian's upper level of multitasking (§2 of the paper): *active
objects* (AOs) run to completion, cooperatively scheduled by a
non-preemptive, priority-ordered *active scheduler* within one thread.
Two Table 2 panics originate here:

* **E32USER-CBase 46** — a *stray signal*: the scheduler is woken for a
  completion that matches no active AO (typically a request completed
  on an AO that never called ``SetActive``, or a bare status).
* **E32USER-CBase 47** — an AO's ``RunL()`` left and neither the AO's
  ``RunError()`` nor a replaced scheduler ``Error()`` handled it; the
  default ``CActiveScheduler::Error()`` panics.

The scheduler here is a real cooperative executor: completions signal
it, ``run_one``/``run_until_idle`` dispatch the highest-priority ready
AO, leaves route through the error protocol.  The failure-data logger
(:mod:`repro.logger`) is built from these AOs, as in the paper.

Dispatch is O(ready), not O(registered): the scheduler maintains a
*ready list* incrementally — ``TRequestStatus.complete`` enlists its
owner, ``mark_pending``/``Cancel``/dispatch delist it — so ``run_one``
never scans the full AO registry (a quarter-million scans per paper
campaign before this existed).  The list is kept sorted by a dispatch
key precomputed at registration (``(-priority, registration order)``,
stored on the AO), so selection is index 0 — no per-dispatch attribute
comparisons at all.  Selection order is unchanged: highest priority
wins, ties break by registration order, and an empty ready list still
falls back to the legacy full scan so externally-mutated state (tests
crafting stray signals) behaves identically.
"""

from __future__ import annotations

from bisect import insort
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.observability.telemetry import current_telemetry
from repro.symbian.errors import Leave, PanicRequest
from repro.symbian.panics import E32USER_CBASE_46, E32USER_CBASE_47

#: Bounds of the AO run-latency histogram (wall seconds per ``RunL``).
AO_RUN_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)

#: Value a pending request status holds (``KRequestPending``).
K_REQUEST_PENDING = -2147483647

# Standard AO priorities.
PRIORITY_IDLE = -100
PRIORITY_LOW = -20
PRIORITY_STANDARD = 0
PRIORITY_USER_INPUT = 10
PRIORITY_HIGH = 20


class TRequestStatus:
    """Completion flag for one asynchronous request."""

    __slots__ = ("value", "_pending", "_owner", "_scheduler")

    def __init__(self, owner: Optional["CActive"] = None) -> None:
        self.value = 0
        self._pending = False
        self._owner = owner
        self._scheduler: Optional["CActiveScheduler"] = None

    @property
    def pending(self) -> bool:
        """Whether a request is outstanding on this status."""
        return self._pending

    @property
    def completed(self) -> bool:
        """Whether the last request has completed."""
        return not self._pending and self.value != K_REQUEST_PENDING

    def attach_scheduler(self, scheduler: "CActiveScheduler") -> None:
        """Route completions of a bare (ownerless) status to a scheduler.

        Completing such a status produces a stray signal — useful to
        model the defect behind E32USER-CBase 46.
        """
        self._scheduler = scheduler

    def mark_pending(self) -> None:
        """Mark a request as issued (service side calls this)."""
        self._pending = True
        self.value = K_REQUEST_PENDING
        owner = self._owner
        if owner is not None and owner._in_ready:
            owner.scheduler._unmark_ready(owner)

    def complete(self, code: int) -> None:
        """Complete the request with ``code`` and signal the scheduler."""
        self.value = code
        self._pending = False
        owner = self._owner
        if owner is not None:
            scheduler = owner.scheduler
            if scheduler is not None:
                if owner.is_active and code != K_REQUEST_PENDING:
                    scheduler._mark_ready(owner)
                scheduler.signal()
                return
        if self._scheduler is not None:
            self._scheduler.signal()

    def __repr__(self) -> str:
        state = "pending" if self._pending else f"value={self.value}"
        return f"TRequestStatus({state})"


class CActive:
    """Base class for active objects.

    Subclasses implement :meth:`run_l` (the event handler, which may
    leave), :meth:`do_cancel`, and optionally :meth:`run_error` to
    handle their own leaves.
    """

    # Slots keep the per-event state accesses (is_active, i_status,
    # scheduler) on the C descriptor path; subclasses that don't declare
    # __slots__ themselves still get a __dict__ for free-form attributes.
    __slots__ = (
        "scheduler",
        "priority",
        "name",
        "is_active",
        "_in_ready",
        "_reg_order",
        "_ready_key",
        "i_status",
    )

    def __init__(
        self,
        scheduler: "CActiveScheduler",
        priority: int = PRIORITY_STANDARD,
        name: str = "",
    ) -> None:
        self.scheduler = scheduler
        self.priority = priority
        self.name = name or type(self).__name__
        self.is_active = False
        self._in_ready = False
        self._reg_order = -1
        # Dispatch key, finalized at registration: ascending sort on it
        # is exactly "highest priority first, then registration order".
        self._ready_key: Tuple[int, int] = (-priority, -1)
        self.i_status = TRequestStatus(owner=self)
        scheduler.add(self)

    # -- protocol -------------------------------------------------------

    def set_active(self) -> None:
        """Declare an outstanding request (call after issuing it)."""
        self.is_active = True
        if self.i_status.completed:
            scheduler = self.scheduler
            if scheduler is not None:
                scheduler._mark_ready(self)

    def cancel(self) -> None:
        """Cancel any outstanding request (``Cancel`` semantics)."""
        if self.is_active:
            self.do_cancel()
            self.is_active = False
            if self._in_ready:
                self.scheduler._unmark_ready(self)

    def retire(self) -> None:
        """Cancel and leave the scheduler for good (``Deque`` semantics).

        Also unlinks the request status from its owner, the last cycle
        an AO holds, so a retired AO is freed by refcount.
        """
        self.cancel()
        self.scheduler.remove(self)
        self.i_status._owner = None

    def run_l(self) -> None:
        """Handle a completed request.  May leave."""
        raise NotImplementedError

    def do_cancel(self) -> None:
        """Cancel the outstanding request at its service."""

    def run_error(self, code: int) -> bool:
        """Handle a leave from :meth:`run_l`.

        Return ``True`` when handled; the default declines, escalating
        to the scheduler's ``error``.
        """
        del code
        return False

    def __repr__(self) -> str:
        state = "active" if self.is_active else "idle"
        return f"{type(self).__name__}({self.name!r}, prio={self.priority}, {state})"


class CActiveScheduler:
    """Non-preemptive, priority-ordered dispatcher of active objects."""

    __slots__ = (
        "name",
        "_actives",
        "_registered",
        "_ready",
        "_reg_counter",
        "_signals",
        "dispatched",
        "_dispatch_counter",
        "_dispatch_series",
        "_run_hist",
        "__dict__",
        "__weakref__",
    )

    def __init__(self, name: str = "sched") -> None:
        self.name = name
        self._actives: List[CActive] = []
        self._registered: Set[CActive] = set()
        # Kept sorted by (AO dispatch key, AO): the next AO to dispatch
        # is always index 0.  Keys are unique (registration order is),
        # so insort never compares the AO objects themselves.
        self._ready: List[Tuple[Tuple[int, int], CActive]] = []
        self._reg_counter = 0
        self._signals = 0
        self.dispatched = 0
        # Telemetry: schedulers are recreated every power cycle, so the
        # registry instruments (shared process-wide) do the cross-cycle
        # accumulation; per-AO series are cached by name to keep the
        # dispatch path at one dict lookup.  None when disabled.
        tel = current_telemetry()
        if tel.metrics:
            self._dispatch_counter = tel.registry.counter(
                "logger.ao_dispatch_total",
                help="active-object dispatches by AO name",
            )
            self._dispatch_series: Dict[str, object] = {}
        else:
            self._dispatch_counter = None
            self._dispatch_series = {}
        self._run_hist = (
            tel.registry.histogram(
                "logger.ao_run_wall_seconds",
                help="wall-clock RunL duration by AO name (not reproducible)",
                bounds=AO_RUN_BOUNDS,
                deterministic=False,
            )
            if tel.tracing
            else None
        )

    # -- registration ----------------------------------------------------

    def add(self, ao: CActive) -> None:
        """Register an active object with this scheduler."""
        if ao not in self._registered:
            self._actives.append(ao)
            self._registered.add(ao)
            ao._reg_order = self._reg_counter
            ao._ready_key = (-ao.priority, self._reg_counter)
            self._reg_counter += 1
            if ao.is_active and ao.i_status.completed:
                self._mark_ready(ao)

    def remove(self, ao: CActive) -> None:
        """Deregister an active object."""
        if ao in self._registered:
            self._actives.remove(ao)
            self._registered.discard(ao)
            if ao._in_ready:
                self._unmark_ready(ao)

    # -- signalling --------------------------------------------------------

    def signal(self) -> None:
        """Record one request-completion signal (thread semaphore model)."""
        self._signals += 1

    @property
    def pending_signals(self) -> int:
        return self._signals

    # -- dispatch ----------------------------------------------------------

    def run_one(self) -> bool:
        """Consume one signal and dispatch the matching active object.

        Returns ``False`` when no signal is pending.  Panics
        E32USER-CBase 46 when the signal matches no active+completed AO
        (a stray signal).  A leave from ``RunL`` goes to the AO's
        ``run_error``; unhandled leaves reach :meth:`error`, whose
        default panics E32USER-CBase 47.
        """
        if self._signals == 0:
            return False
        self._signals -= 1
        ao = self._find_ready()
        if ao is None:
            raise PanicRequest(
                E32USER_CBASE_46, f"stray signal in scheduler {self.name!r}"
            )
        ao.is_active = False
        if ao._in_ready:
            self._unmark_ready(ao)
        self.dispatched += 1
        counter = self._dispatch_counter
        if counter is not None:
            series = self._dispatch_series.get(ao.name)
            if series is None:
                series = self._dispatch_series[ao.name] = counter.series(
                    ao=ao.name
                )
            series.value += 1.0
        hist = self._run_hist
        if hist is None:
            try:
                ao.run_l()
            except Leave as leave:
                if not ao.run_error(leave.code):
                    self.error(leave.code, ao)
            return True
        started = perf_counter()
        try:
            ao.run_l()
        except Leave as leave:
            if not ao.run_error(leave.code):
                self.error(leave.code, ao)
        finally:
            hist.observe(perf_counter() - started, ao=ao.name)
        return True

    def run_until_idle(self, max_dispatches: int = 10_000) -> int:
        """Dispatch until no signals remain; returns dispatch count.

        ``max_dispatches`` guards against a self-reposting AO looping
        forever in tests.
        """
        count = 0
        while self._signals and count < max_dispatches:
            if not self.run_one():
                break
            count += 1
        return count

    def error(self, code: int, ao: Optional[CActive] = None) -> None:
        """Scheduler-level leave handler.

        The default behaviour — like ``CActiveScheduler::Error()`` —
        panics E32USER-CBase 47.  Applications replace this in a
        subclass.
        """
        where = f" from {ao.name!r}" if ao is not None else ""
        raise PanicRequest(
            E32USER_CBASE_47, f"unhandled leave {code}{where} reached Error()"
        )

    # -- ready bookkeeping ---------------------------------------------------

    def _mark_ready(self, ao: CActive) -> None:
        """Enlist an AO whose request completed while it was active."""
        if not ao._in_ready and ao in self._registered:
            ao._in_ready = True
            insort(self._ready, (ao._ready_key, ao))

    def _unmark_ready(self, ao: CActive) -> None:
        """Delist an AO that is no longer active+completed."""
        if ao._in_ready:
            ao._in_ready = False
            self._ready.remove((ao._ready_key, ao))

    def _find_ready(self) -> Optional[CActive]:
        """Highest-priority active object with a completed request.

        The ready list is sorted by the precomputed dispatch key
        (priority desc, registration order asc — exactly the legacy
        full scan's order), so selection is the head of the list.
        """
        if self._ready:
            return self._ready[0][1]
        # Legacy fallback: state mutated outside the AO protocol (tests
        # crafting strays, hand-rolled statuses) is still honoured.
        best: Optional[CActive] = None
        for ao in self._actives:
            if ao.is_active and ao.i_status.completed:
                if best is None or ao.priority > best.priority:
                    best = ao
        return best

    def __repr__(self) -> str:
        return (
            f"CActiveScheduler({self.name!r}, aos={len(self._actives)}, "
            f"signals={self._signals})"
        )
