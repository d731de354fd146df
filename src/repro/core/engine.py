"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock and a priority queue of scheduled
callbacks.  Determinism matters for reproducibility of the whole
campaign, so event ordering is total: events are ordered by
``(time, priority, sequence)`` where the sequence number is assigned at
scheduling time.  Two events scheduled for the same instant therefore
fire in scheduling order unless a priority says otherwise.

The queue is one binary heap of ``(time, priority, seq, event)`` tuples
rather than the event objects themselves: the sort key is computed once
at scheduling time and every comparison is a C-level tuple comparison,
instead of a Python ``__lt__`` call.  The sequence number is unique, so
a comparison never reaches the event object.  A phone runs alone on the
engine (see below), so the heap holds one phone's pending set: a few
dozen events on average.

Invariants (exercised by ``tests/test_engine_batch.py`` and
``tests/test_engine_accounting.py``):

* **Order**: events fire in strictly non-decreasing ``(time, priority,
  seq)`` order, including events a callback schedules for the instant
  it is firing at.  Times are finite: a NaN or infinite time or delay
  is refused before it takes a sequence number, and a NaN or infinite
  ``run_until`` limit before anything fires.
* **Residency**: every scheduled event stays in the heap until it fires
  or its cancelled entry is dropped; ``pending_count()`` is exact at
  any instant, including from inside a firing callback.
* **Escape**: if a callback raises, the exception propagates with the
  clock left at the failing event's timestamp, that event counted as
  fired, and every remaining event still queued — a subsequent
  ``run_until`` resumes exactly where the run stopped.
* **No nesting**: ``run_until``, ``run``, ``step`` and ``rewind`` refuse
  to be called from inside a firing callback.

One engine, many runs
---------------------

A :class:`~repro.phone.fleet.Fleet` keeps one simulator and runs its
phones on it one after another, each alone from time 0 to the horizon.
Between phones, :meth:`Simulator.rewind` drops the finished phone's
pending events and sets the clock back.  The lifetime counters are
never reset, so ``events_fired`` and friends stay fleet totals, and a
phone's events keep the same relative ``(time, priority, seq)`` order
they would have on an engine of their own.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.core.clock import SimClock
from repro.core.errors import SimulationError
from repro.observability.telemetry import current_telemetry

#: Bounds of the scheduling-horizon histogram (seconds of virtual
#: delay between scheduling an event and its fire time): sub-minute
#: timers up through the week-scale transfer cycle.
HORIZON_BOUNDS = (1.0, 10.0, 60.0, 600.0, 3600.0, 21600.0, 86400.0, 604800.0)

_INF = float("inf")


class ScheduledEvent:
    """Handle to a scheduled callback.

    Holding the handle allows cancellation.  Cancellation is lazy: the
    entry stays queued but is skipped when reached.  The owning
    simulator counts cancellations and compacts the queue when too many
    dead entries accumulate, so a long campaign that schedules and
    cancels millions of timers does not keep them all resident.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice — or
        cancelling an event that already fired — is a no-op."""
        if self.cancelled:
            return
        sim = self._sim
        if sim is None:
            # Already fired (the run loop detaches before invoking):
            # nothing to prevent, and flagging it cancelled would make
            # __repr__ lie about what actually happened.
            return
        self.cancelled = True
        self._sim = None
        sim._note_cancelled()

    def __repr__(self) -> str:
        # ``_sim`` doubles as the lifecycle marker: attached while
        # pending, detached (None) once fired or cancelled.
        if self.cancelled:
            state = "cancelled"
        elif self._sim is None:
            state = "fired"
        else:
            state = "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"ScheduledEvent(t={self.time:.1f}, {name}, {state})"


#: One queue entry: the precomputed total-order key plus the event.
_HeapEntry = Tuple[float, int, int, ScheduledEvent]


class Simulator:
    """Event loop over virtual time.

    Usage::

        sim = Simulator()
        sim.schedule_after(10.0, callback, arg1)
        sim.run_until(3600.0)
    """

    #: Compact the queue once cancelled entries outnumber live ones
    #: (and the queue is big enough for a rebuild to be worth it).
    COMPACTION_MIN_SIZE = 64

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._start = self.clock._now
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._events_fired = 0
        self._cancelled_count = 0
        self._cancels_total = 0
        self._compactions = 0
        self._running = False
        # Telemetry: the horizon histogram handle is resolved once here;
        # below trace level it stays None and the scheduling hot path
        # pays a single branch.  Trace level, not metrics: observing
        # every schedule_* call is the one per-event histogram in the
        # simulator core, and the metrics level must stay within a few
        # percent of untelemetered wall time (the scalar counters are
        # sampled at campaign end instead — see Fleet.sample_metrics).
        tel = current_telemetry()
        self._horizon_hist = (
            tel.registry.histogram(
                "sim.event_horizon_seconds",
                help="virtual delay between scheduling and fire time",
                bounds=HORIZON_BOUNDS,
            ).series()
            if tel.tracing
            else None
        )

    @property
    def now(self) -> float:
        """Current virtual time (seconds since epoch)."""
        return self.clock._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    @property
    def events_scheduled(self) -> int:
        """Total number of events ever scheduled."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Total number of cancellations over the simulator's life."""
        return self._cancels_total

    @property
    def compactions(self) -> int:
        """Queue compaction passes performed so far."""
        return self._compactions

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Raises:
            SimulationError: if ``time`` is before the current clock, or
                is NaN or infinite.
        """
        time = float(time)
        now = self.clock._now
        # One chained comparison refuses the past, NaN and infinity.
        if not (now <= time < _INF):
            if time < now:
                raise SimulationError(
                    f"cannot schedule in the past: now={now}, t={time}"
                )
            raise SimulationError(f"non-finite event time: {time}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, fn, args)
        event._sim = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        hist = self._horizon_hist
        if hist is not None:
            hist.observe(time - now)
        return event

    def schedule_after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time.

        Raises:
            SimulationError: if ``delay`` is negative, NaN or infinite.
        """
        # Inlined schedule_at (now + a non-negative delay can never be
        # in the past): this path runs ~100k times per campaign.
        time = self.clock._now + delay
        if not (0.0 <= delay and time < _INF):
            if delay < 0:
                raise SimulationError(f"negative delay: {delay}")
            raise SimulationError(f"non-finite delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, fn, args)
        event._sim = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        hist = self._horizon_hist
        if hist is not None:
            hist.observe(delay)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` when idle.

        Raises:
            SimulationError: if called from inside a run loop.
        """
        self._guard_reentry()
        try:
            return self._fire_next()
        finally:
            self._running = False

    def run_until(self, t: float) -> None:
        """Fire every event with ``time <= t``, then advance the clock to ``t``.

        This is the simulation's innermost loop; the selection path is
        inlined (no ``_fire_next``/``_drop_cancelled`` calls) because at
        paper scale it executes a couple hundred thousand times per
        campaign.

        Escape semantics: if a callback raises, the exception
        propagates and the simulator is left in a consistent,
        documented state — the clock stands at the failing event's
        timestamp (it is NOT advanced to ``t``), the failing event
        counts as fired, every remaining event (including those the
        callback scheduled before raising) stays queued, and the
        counters are exact.  Calling ``run_until`` again resumes the
        drain exactly where it stopped.

        Raises:
            SimulationError: if ``t`` is before the current clock, or is
                NaN or infinite.
        """
        t = float(t)
        if not t < _INF:  # NaN or +inf: would fire everything queued
            raise SimulationError(f"non-finite run limit: {t}")
        self._guard_reentry()
        clock = self.clock
        heap = self._heap  # _compact() rebuilds in place, alias stays valid
        heappop = heapq.heappop
        fired = 0  # folded into the counter on exit, even via exception
        try:
            while heap:
                entry = heap[0]
                if entry[0] > t:
                    break
                heappop(heap)
                event = entry[3]
                if event.cancelled:
                    self._cancelled_count -= 1
                    continue
                event._sim = None
                # Inlined clock.advance_to: queue order guarantees the
                # pop times are non-decreasing.
                clock._now = entry[0]
                fired += 1
                event.fn(*event.args)
        finally:
            self._events_fired += fired
            self._running = False
        clock.advance_to(t)

    def run(self) -> None:
        """Fire events until the queue drains completely."""
        self._guard_reentry()
        try:
            while self._fire_next():
                pass
        finally:
            self._running = False

    def rewind(self) -> None:
        """Drop every pending event and set the clock back to its start.

        The fleet reuses one simulator for all its phones, one after
        another: once a phone has run to the horizon, what it still had
        queued (its next transfer tick, timers past the horizon) is
        dropped here and the next phone starts where the first did.  Dropped
        events are detached without firing or counting as cancelled, and
        their callbacks are released, so a handle a model kept does not
        keep its phone alive.  The lifetime counters (fired, scheduled,
        cancelled, compactions) keep their totals, and sequence numbers
        keep counting, so events keep their relative order within each
        run.

        Raises:
            SimulationError: if called from inside a run loop.
        """
        self._guard_reentry()
        try:
            for entry in self._heap:
                event = entry[3]
                event._sim = None
                event.fn = None
                event.args = ()
            self._heap.clear()
            self._cancelled_count = 0
            self.clock._now = self._start
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of scheduled, non-cancelled events (O(1)).

        Exact at any instant, including from inside a firing callback.
        """
        return len(self._heap) - self._cancelled_count

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("simulator run loop is not re-entrant")
        self._running = True

    def _fire_next(self) -> bool:
        """Pop and fire the next live event; ``False`` when idle."""
        self._drop_cancelled()
        if not self._heap:
            return False
        time, _priority, _seq, event = heapq.heappop(self._heap)
        event._sim = None
        self.clock.advance_to(time)
        self._events_fired += 1
        event.fn(*event.args)
        return True

    def _note_cancelled(self) -> None:
        """A live queued entry was cancelled; compact when dead entries
        dominate the queue."""
        self._cancelled_count += 1
        self._cancels_total += 1
        resident = len(self._heap)
        if (
            resident >= self.COMPACTION_MIN_SIZE
            and self._cancelled_count * 2 > resident
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries.

        Safe at any point between event firings — even mid-``run_until``
        (a cancel from inside a firing callback can trigger it): the
        event order is total, so a re-heapified heap pops in exactly
        the same sequence, and the heap is rebuilt in place, so the
        draining loop's alias stays valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_count = 0
        self._compactions += 1

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled_count -= 1

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.clock.now:.1f}, pending={self.pending_count()}, "
            f"fired={self._events_fired})"
        )
