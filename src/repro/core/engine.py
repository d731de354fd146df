"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock and a priority queue of scheduled
callbacks.  Determinism matters for reproducibility of the whole
campaign, so event ordering is total: events are ordered by
``(time, priority, sequence)`` where the sequence number is assigned at
scheduling time.  Two events scheduled for the same instant therefore
fire in scheduling order unless a priority says otherwise.

The queue stores ``(time, priority, seq, event)`` tuples rather than the
event objects themselves: the sort key is computed once at scheduling
time and every comparison is a C-level tuple comparison, instead of a
Python ``__lt__`` call.  The sequence number is unique, so a comparison
never reaches the event object.

Batch execution (the hot-path layout)
-------------------------------------

Internally the pending set is split between two structures with one
total order across them:

* a binary **heap** (the classic structure), holding events in the
  *active calendar tick* and every event scheduled while a run loop is
  draining that tick;
* a **calendar wheel** — a dict from integer tick index
  (``floor(time / tick_width)``) to an unsorted bucket list — holding
  everything scheduled beyond the active tick.  ``schedule_*`` into the
  future is then a dict lookup plus a list append instead of an
  O(log n) sift.

``run_until`` drains one tick at a time: the tick's bucket is sorted
once (a C-level timsort over precomputed key tuples) into the *run
batch* and consumed back-to-front, so runs of same-timestamp events are
drained without re-entering the heap.  The heap participates in every
selection (``batch[-1]`` vs ``heap[0]``), which is what makes
re-entrant ``schedule_at(now)`` from a draining callback correct: an
event scheduled into the active tick is routed to the heap and merges
into the drain in exact ``(time, priority, seq)`` order.

Invariants the batch layout maintains (exercised by
``tests/test_engine_batch.py`` and ``tests/test_engine_accounting.py``):

* **Order**: events fire in strictly non-decreasing ``(time, priority,
  seq)`` order, bit-identical to a pure-heap engine
  (``tick_width=0`` disables the wheel and is the reference).
* **Bucket bounds**: a wheel entry in bucket ``b`` satisfies
  ``b * tick_width <= time < (b + 1) * tick_width`` using the same
  float products the drain loop uses for its tick limits, so no event
  is ever drained in the wrong tick even at float boundaries.
* **Residency**: every scheduled event is in exactly one of heap, wheel
  bucket, or run batch until it fires or its cancelled entry is
  dropped; ``pending_count()`` is exact at any instant, including from
  inside a firing callback.
* **Escape**: if a callback raises, the exception propagates with the
  clock left at the failing event's timestamp, that event counted as
  fired, and every remaining event still queued — a subsequent
  ``run_until`` resumes exactly where the run stopped.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.clock import SimClock
from repro.core.errors import SimulationError
from repro.observability.telemetry import current_telemetry

#: Bounds of the scheduling-horizon histogram (seconds of virtual
#: delay between scheduling an event and its fire time): sub-minute
#: timers up through the week-scale transfer cycle.
HORIZON_BOUNDS = (1.0, 10.0, 60.0, 600.0, 3600.0, 21600.0, 86400.0, 604800.0)

#: Default calendar-wheel tick width (seconds).  One hour keeps the
#: paper-scale fleet at ~20 events per bucket; the width is exactly
#: representable and its products with small tick indices are exact,
#: so the bucket-bound invariant holds without float surprises.
DEFAULT_TICK_WIDTH = 3600.0


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

    ``tick_width`` sizes the calendar wheel in front of the heap;
    ``0`` disables it entirely, leaving the pure-heap engine (the
    reference implementation the batch drain is differentially tested
    against).
    """

    #: Compact the queue once cancelled entries outnumber live ones
    #: (and the queue is big enough for a rebuild to be worth it).
    COMPACTION_MIN_SIZE = 64

    def __init__(
        self, start: float = 0.0, tick_width: float = DEFAULT_TICK_WIDTH
    ) -> None:
        self.clock = SimClock(start)
        self._start = self.clock._now
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._events_fired = 0
        self._cancelled_count = 0
        self._cancels_total = 0
        self._compactions = 0
        self._running = False
        if tick_width < 0:
            raise SimulationError(f"negative tick_width: {tick_width}")
        self._tick = float(tick_width)
        #: tick index -> unsorted bucket of entries strictly beyond the
        #: active tick.
        self._wheel: Dict[int, List[_HeapEntry]] = {}
        #: Min-heap of tick indices with (possibly stale) buckets.
        self._tick_heap: List[int] = []
        #: Entries resident in wheel buckets (not the run batch).
        self._wheel_count = 0
        #: The tick ``run_until`` is draining (or last drained);
        #: schedule_* routes entries at or before it to the heap.
        self._active_tick = self._bucket_index(self.clock._now) if self._tick else 0
        #: Reverse-sorted remainder of the active tick's bucket.  Kept
        #: on the instance so cancellation accounting and compaction
        #: see in-flight entries, and so a run stopped mid-tick (by
        #: ``t`` or an exception) resumes without re-sorting.
        self._run_batch: List[_HeapEntry] = []
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

    def _bucket_index(self, time: float) -> int:
        """Tick index of ``time``, consistent with the drain limits.

        ``//`` is the exact floor for well-behaved widths; the two
        guards repair any float rounding so the bucket-bound invariant
        (``b * tick <= time < (b + 1) * tick``) holds for *every*
        width, using the same products the drain loop compares against.
        """
        tick = self._tick
        b = int(time // tick)
        if (b + 1) * tick <= time:
            b += 1
        elif b * tick > time:
            b -= 1
        return b

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        Raises:
            SimulationError: if ``time`` is before the current clock.
        """
        time = float(time)
        if time < self.clock._now:
            raise SimulationError(
                f"cannot schedule in the past: now={self.clock._now}, t={time}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, fn, args)
        event._sim = self
        # _enqueue + _bucket_index inlined: this and schedule_after are
        # the two scheduling hot paths (~200k calls per paper campaign).
        tick = self._tick
        if tick:
            b = int(time // tick)
            if (b + 1) * tick <= time:
                b += 1
            elif b * tick > time:
                b -= 1
            if b > self._active_tick:
                bucket = self._wheel.get(b)
                if bucket is None:
                    self._wheel[b] = [(time, priority, seq, event)]
                    heapq.heappush(self._tick_heap, b)
                else:
                    bucket.append((time, priority, seq, event))
                self._wheel_count += 1
            else:
                heapq.heappush(self._heap, (time, priority, seq, event))
        else:
            heapq.heappush(self._heap, (time, priority, seq, event))
        hist = self._horizon_hist
        if hist is not None:
            hist.observe(time - self.clock._now)
        return event

    def schedule_after(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # Inlined schedule_at (now + a non-negative delay can never be
        # in the past, so its guard would be dead weight) and _enqueue —
        # this path runs ~100k times per campaign.
        time = self.clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, fn, args)
        event._sim = self
        tick = self._tick
        if tick:
            b = int(time // tick)
            if (b + 1) * tick <= time:
                b += 1
            elif b * tick > time:
                b -= 1
            if b > self._active_tick:
                bucket = self._wheel.get(b)
                if bucket is None:
                    self._wheel[b] = [(time, priority, seq, event)]
                    heapq.heappush(self._tick_heap, b)
                else:
                    bucket.append((time, priority, seq, event))
                self._wheel_count += 1
            else:
                heapq.heappush(self._heap, (time, priority, seq, event))
        else:
            heapq.heappush(self._heap, (time, priority, seq, event))
        hist = self._horizon_hist
        if hist is not None:
            hist.observe(delay)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        self._flush_calendar()
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` when idle."""
        self._flush_calendar()
        self._drop_cancelled()
        if not self._heap:
            return False
        time, _priority, _seq, event = heapq.heappop(self._heap)
        event._sim = None
        self.clock.advance_to(time)
        self._events_fired += 1
        event.fn(*event.args)
        return True

    def run_until(self, t: float) -> None:
        """Fire every event with ``time <= t``, then advance the clock to ``t``.

        This is the simulation's innermost loop; the selection path is
        inlined (no ``step``/``_drop_cancelled`` calls) because at
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
        """
        self._guard_reentry()
        t = float(t)
        clock = self.clock
        heap = self._heap  # _compact() rebuilds in place, alias stays valid
        heappop = heapq.heappop
        fired = 0  # folded into the counter on exit, even via exception
        try:
            tick = self._tick
            if not tick:
                # Reference pure-heap loop (tick_width=0).
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
                    # Inlined clock.advance_to: queue order guarantees
                    # the pop times are non-decreasing.
                    clock._now = entry[0]
                    fired += 1
                    event.fn(*event.args)
            else:
                end_tick = self._bucket_index(t)
                wheel = self._wheel
                while True:
                    k = self._active_tick
                    incoming = wheel.pop(k, None)
                    batch = self._run_batch
                    if incoming is not None:
                        self._wheel_count -= len(incoming)
                        if batch:
                            batch.extend(incoming)
                        else:
                            batch = self._run_batch = incoming
                        batch.sort(reverse=True)
                    final = k >= end_tick
                    limit = t if final else (k + 1) * tick
                    while True:
                        if batch:
                            entry = batch[-1]
                            if heap and heap[0] < entry:
                                entry = heap[0]
                                from_batch = False
                            else:
                                from_batch = True
                        elif heap:
                            entry = heap[0]
                            from_batch = False
                        else:
                            break
                        etime = entry[0]
                        if (etime > t) if final else (etime >= limit):
                            break
                        if from_batch:
                            batch.pop()
                        else:
                            heappop(heap)
                        event = entry[3]
                        if event.cancelled:
                            self._cancelled_count -= 1
                            continue
                        event._sim = None
                        clock._now = etime
                        fired += 1
                        event.fn(*event.args)
                        # A compaction from inside the callback may have
                        # replaced the run batch binding; re-read it.
                        batch = self._run_batch
                    if final:
                        break
                    # Jump to the next tick holding work: the earliest
                    # wheel bucket, the heap top's tick, or the target.
                    nk = end_tick
                    if heap:
                        hk = self._bucket_index(heap[0][0])
                        if hk < nk:
                            nk = hk
                    tick_heap = self._tick_heap
                    while tick_heap and tick_heap[0] <= k:
                        heappop(tick_heap)  # consumed or stale
                    if tick_heap and tick_heap[0] < nk:
                        nk = tick_heap[0]
                    self._active_tick = nk if nk > k else k + 1
        finally:
            self._events_fired += fired
            self._running = False
        clock.advance_to(t)

    def run(self) -> None:
        """Fire events until the queue drains completely."""
        self._guard_reentry()
        try:
            while self.step():
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
            for entries in (self._heap, self._run_batch, *self._wheel.values()):
                for entry in entries:
                    event = entry[3]
                    event._sim = None
                    event.fn = None
                    event.args = ()
            self._heap.clear()
            self._run_batch.clear()
            self._wheel.clear()
            self._tick_heap.clear()
            self._wheel_count = 0
            self._cancelled_count = 0
            self.clock._now = self._start
            self._active_tick = self._bucket_index(self.clock._now) if self._tick else 0
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of scheduled, non-cancelled events (O(1)).

        Exact at any instant, including from inside a firing callback:
        heap, wheel, and the in-flight run batch are all counted.
        """
        return (
            len(self._heap)
            + self._wheel_count
            + len(self._run_batch)
            - self._cancelled_count
        )

    def _guard_reentry(self) -> None:
        if self._running:
            raise SimulationError("simulator run loop is not re-entrant")
        self._running = True

    def _resident_count(self) -> int:
        """Entries physically queued, cancelled ones included."""
        return len(self._heap) + self._wheel_count + len(self._run_batch)

    def _note_cancelled(self) -> None:
        """A live queued entry was cancelled; compact when dead entries
        dominate the queue."""
        self._cancelled_count += 1
        self._cancels_total += 1
        if (
            self._resident_count() >= self.COMPACTION_MIN_SIZE
            and self._cancelled_count * 2 > self._resident_count()
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without cancelled entries.

        Safe at any point between event firings — even mid-``run_until``
        (a cancel from inside a firing callback can trigger it): the
        event order is total, so a re-heapified heap pops in exactly
        the same sequence; wheel buckets are unsorted until drained;
        and the run batch is filtered in place, preserving its
        reverse-sorted order, so the draining loop's alias stays valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        if self._wheel:
            count = 0
            for bucket in self._wheel.values():
                bucket[:] = [entry for entry in bucket if not entry[3].cancelled]
                count += len(bucket)
            # Empty buckets stay keyed; the drain loop pops them as
            # no-ops and the tick heap already tracks their indices.
            self._wheel_count = count
        batch = self._run_batch
        if batch:
            batch[:] = [entry for entry in batch if not entry[3].cancelled]
        self._cancelled_count = 0
        self._compactions += 1

    def _flush_calendar(self) -> None:
        """Fold wheel buckets and the run batch back into the heap.

        Cold-path helper for ``step``/``peek_time``/``run``: those need
        a single global minimum, which the heap alone provides.  The
        fold is semantically invisible — entries keep their keys, and
        the total order is the same wherever an entry resides.
        """
        heap = self._heap
        heappush = heapq.heappush
        batch = self._run_batch
        if batch:
            for entry in batch:
                heappush(heap, entry)
            batch.clear()
        if self._wheel:
            for bucket in self._wheel.values():
                for entry in bucket:
                    heappush(heap, entry)
            self._wheel.clear()
            self._tick_heap.clear()
            self._wheel_count = 0

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
