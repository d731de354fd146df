"""Same-instant batches and the engine's order contract.

Events are ordered by ``(time, priority, seq)`` (see the ``core.engine``
module docstring).  These tests pin that order where it is easiest to
get wrong: a batch of events sharing one timestamp, cancels and
compaction from inside a firing callback, re-entrant ``schedule_at(now)``,
the inclusive ``run_until`` limit, and ``peek_time``/``step``.  The
engine is then checked against two independent models of the contract:
a plain list kept sorted by ``(time, priority, seq)`` and popped from
the front (driven by hypothesis), and a lazy-cancelling ``heapq``
(driven by seeded random workloads).
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator

#: Clock origins the batch tests start the engine at: zero, a small
#: offset and an hour in.  Their event times are relative to the origin,
#: so the fire order must be the same at every origin.
ORIGINS = [0.0, 8.0, 3600.0]

# ---------------------------------------------------------------------------
# Same-timestamp ordering: priority, then scheduling sequence.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("origin", ORIGINS)
def test_same_timestamp_batch_fires_in_priority_then_seq_order(origin):
    sim = Simulator(origin)
    fired = []
    t = origin + 10.0
    # Scheduled out of priority order on purpose; seq is insertion order.
    sim.schedule_at(t, lambda: fired.append("p0-first"), priority=0)
    sim.schedule_at(t, lambda: fired.append("p-5"), priority=-5)
    sim.schedule_at(t, lambda: fired.append("p0-second"), priority=0)
    sim.schedule_at(t, lambda: fired.append("p3"), priority=3)
    # A later event must not leak into the batch.
    sim.schedule_at(t + 24.0, lambda: fired.append("later"))
    sim.run_until(t)
    assert fired == ["p-5", "p0-first", "p0-second", "p3"]
    sim.run_until(origin + 1000.0)
    assert fired[-1] == "later"


def test_batch_interleaves_with_heap_entries_in_total_order():
    # An event a firing callback schedules for later merges into the
    # events already queued by (time, priority, seq).
    sim = Simulator()
    fired = []
    sim.schedule_at(2.0, lambda: fired.append("early"))
    sim.schedule_at(9.0, lambda: fired.append("queued-1"))
    sim.schedule_at(11.0, lambda: fired.append("queued-2"))

    def schedule_between():
        sim.schedule_at(10.0, lambda: fired.append("mid"))

    sim.schedule_at(3.0, schedule_between)
    sim.run_until(40.0)
    assert fired == ["early", "queued-1", "mid", "queued-2"]


# ---------------------------------------------------------------------------
# Cancellation from inside a firing callback.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("origin", ORIGINS)
def test_cancel_later_event_from_inside_drained_batch(origin):
    sim = Simulator(origin)
    fired = []
    handles = {}

    def first():
        fired.append("first")
        handles["victim"].cancel()
        # Residency invariant: the cancelled entry is still physically
        # queued but pending_count is exact mid-drain.
        assert sim.pending_count() == 1  # only "survivor" remains live

    t = origin + 10.0
    sim.schedule_at(t, first)
    handles["victim"] = sim.schedule_at(t, lambda: fired.append("victim"))
    sim.schedule_at(t, lambda: fired.append("survivor"))
    sim.run_until(t + 10.0)
    assert fired == ["first", "survivor"]
    assert sim.events_cancelled == 1
    assert sim.pending_count() == 0


def test_cancel_own_batch_tail_then_compact_mid_drain():
    # A callback cancels everything behind it at the same instant and
    # forces a compaction; the drain loop must survive the heap being
    # rebuilt under its feet.
    sim = Simulator()
    fired = []
    tail = []

    def head():
        fired.append("head")
        for handle in tail:
            handle.cancel()
        sim._compact()

    t = 12.0
    sim.schedule_at(t, head)
    for i in range(5):
        tail.append(sim.schedule_at(t, lambda i=i: fired.append(i)))
    sim.schedule_at(t + 1.0, lambda: fired.append("after"))
    sim.run_until(16.0)
    assert fired == ["head", "after"]
    assert sim.pending_count() == 0
    assert sim.compactions >= 1


# ---------------------------------------------------------------------------
# Re-entrant schedule_at(now) from a firing callback.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("origin", ORIGINS)
def test_reentrant_schedule_at_now_merges_in_key_order(origin):
    sim = Simulator(origin)
    fired = []

    def opener():
        fired.append("opener")
        # Same timestamp, better priority than the queued remainder:
        # must fire before them.
        sim.schedule_at(sim.now, lambda: fired.append("urgent"), priority=-1)
        # Same timestamp, default priority: newest seq, fires last.
        sim.schedule_at(sim.now, lambda: fired.append("appended"))

    t = origin + 10.0
    sim.schedule_at(t, opener)
    sim.schedule_at(t, lambda: fired.append("queued-1"))
    sim.schedule_at(t, lambda: fired.append("queued-2"))
    sim.run_until(t)
    assert fired == ["opener", "urgent", "queued-1", "queued-2", "appended"]
    assert sim.now == t


def test_reentrant_chain_at_same_instant_drains_to_completion():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 25:
            sim.schedule_at(sim.now, chain, depth + 1)

    sim.schedule_at(3.0, chain, 0)
    sim.run_until(3.0)
    assert fired == list(range(26))
    assert sim.now == 3.0
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# The run_until limit, peek_time and step.
# ---------------------------------------------------------------------------


def test_event_exactly_at_the_run_until_limit_fires():
    sim = Simulator()
    fired = []
    sim.schedule_at(10.0, lambda: fired.append(sim.now))
    sim.run_until(9.999)
    assert fired == []
    sim.run_until(10.0)  # the limit is inclusive
    assert fired == [10.0]


def test_peek_and_step_agree():
    # peek_time names the event step fires next, the same global
    # minimum the run loop would pick.
    sim = Simulator()
    fired = []
    sim.schedule_at(25.0, lambda: fired.append("far"))
    sim.schedule_at(1.0, lambda: fired.append("near"))
    assert sim.peek_time() == 1.0
    assert sim.step() is True
    assert fired == ["near"]
    assert sim.peek_time() == 25.0
    sim.run()
    assert fired == ["near", "far"]


# ---------------------------------------------------------------------------
# The engine against a naive oracle.
# ---------------------------------------------------------------------------


class Boom(Exception):
    """Raised by a callback to exercise the escape state."""


class _OracleHandle:
    __slots__ = ("key", "code", "state")

    def __init__(self, key, code):
        self.key = key
        self.code = code
        self.state = "pending"


class ListOracle:
    """The order contract at its most naive: one list, re-sorted by
    ``(time, priority, seq)`` after every insert and popped from the
    front.  Cancelling removes the entry; rewind empties the list."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.events_scheduled = 0
        self.events_fired = 0
        self.events_cancelled = 0

    def schedule_at(self, time, fn, code, priority=0):
        if time < self.now:
            raise AssertionError("the driver never schedules in the past")
        handle = _OracleHandle((time, priority, self.events_scheduled), code)
        self.events_scheduled += 1
        self.queue.append((handle, fn))
        self.queue.sort(key=lambda item: item[0].key)
        return handle

    def schedule_after(self, delay, fn, code, priority=0):
        return self.schedule_at(self.now + delay, fn, code, priority=priority)

    def cancel(self, handle):
        if handle.state != "pending":
            return
        handle.state = "cancelled"
        self.events_cancelled += 1
        self.queue = [item for item in self.queue if item[0] is not handle]

    def run_until(self, t):
        while self.queue and self.queue[0][0].key[0] <= t:
            handle, fn = self.queue.pop(0)
            handle.state = "fired"
            self.now = handle.key[0]
            self.events_fired += 1
            fn(handle.code)
        self.now = t

    def rewind(self):
        for handle, _fn in self.queue:
            handle.state = "dropped"
        self.queue = []
        self.now = 0.0

    def pending_count(self):
        return len(self.queue)


class _EngineAdapter:
    """The same surface over the real engine."""

    def __init__(self):
        self.sim = Simulator()

    def __getattr__(self, name):
        return getattr(self.sim, name)

    def cancel(self, handle):
        handle.cancel()


def _drive(engine, ops):
    """Replay ``ops`` on ``engine``; return its trace of observations.

    Every event carries an integer ``code`` that decides what it does
    when it fires: nothing, a re-entrant ``schedule_at(now)``, a later
    ``schedule_after``, a cancel, or a raise.  Children get
    ``code // 5``, so every chain ends.
    """
    trace = []
    handles = []

    def fire(code):
        trace.append(("fire", code, engine.now))
        action, child = code % 5, code // 5
        if action == 1 and child:
            handles.append(
                engine.schedule_at(engine.now, fire, child, priority=child % 3 - 1)
            )
        elif action == 2 and child:
            handles.append(engine.schedule_after(child / 4.0, fire, child))
        elif action == 3 and handles:
            engine.cancel(handles[child % len(handles)])
        elif action == 4:
            raise Boom(code)

    for op, a, b in ops:
        if op == "at":
            handles.append(
                engine.schedule_at(engine.now + a / 4.0, fire, b, priority=b % 5 - 2)
            )
        elif op == "after":
            handles.append(engine.schedule_after(a / 4.0, fire, b))
        elif op == "cancel":
            if handles:
                engine.cancel(handles[a % len(handles)])
        elif op == "run":
            try:
                engine.run_until(engine.now + a / 4.0)
            except Boom as exc:
                trace.append(("raised", exc.args[0]))
        elif op == "rewind":
            engine.rewind()
        trace.append(
            (
                op,
                engine.now,
                engine.events_scheduled,
                engine.events_fired,
                engine.events_cancelled,
                engine.pending_count(),
            )
        )
    return trace


_ORACLE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["at", "after", "at", "after", "cancel", "run", "rewind"]),
        # Small offsets, so equal times and run_until limits that land
        # exactly on an event are common.
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=5**4),
    ),
    min_size=1,
    max_size=50,
)


@given(ops=_ORACLE_OPS)
@settings(max_examples=200, deadline=None)
def test_engine_matches_sorted_list_oracle(ops):
    assert _drive(_EngineAdapter(), ops) == _drive(ListOracle(), ops)


# ---------------------------------------------------------------------------
# The engine against a lazy-cancelling heap, on seeded random workloads.
# ---------------------------------------------------------------------------


class _HeapHandle:
    __slots__ = ("cancelled", "done")

    def __init__(self):
        self.cancelled = False
        self.done = False

    def cancel(self):
        if not self.done and not self.cancelled:
            self.cancelled = True


class HeapReference:
    """The order contract as a bare ``heapq`` of ``(time, priority, seq)``
    keys with lazy cancellation: cancelled entries stay queued and are
    skipped when popped.  Shares no code with the engine."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.handles = []
        self.seq = 0

    def schedule_at(self, time, fn, arg, priority=0):
        handle = _HeapHandle()
        self.handles.append(handle)
        heapq.heappush(self.heap, (time, priority, self.seq, handle, fn, arg))
        self.seq += 1
        return handle

    def schedule_after(self, delay, fn, arg, priority=0):
        return self.schedule_at(self.now + delay, fn, arg, priority=priority)

    def run_until(self, t):
        while self.heap and self.heap[0][0] <= t:
            time, _priority, _seq, handle, fn, arg = heapq.heappop(self.heap)
            if handle.cancelled:
                continue
            handle.done = True
            self.now = time
            fn(arg)
        self.now = t

    def pending_count(self):
        return sum(not entry[3].cancelled for entry in self.heap)

    @property
    def events_scheduled(self):
        return self.seq

    @property
    def events_cancelled(self):
        return sum(handle.cancelled for handle in self.handles)


def _run_seeded_workload(sim, seed):
    """Seeded random workload with re-entrant scheduling and cancels.

    Returns the fire trace.  Both sides replay the identical seed, and
    the RNG is consumed inside callbacks, so the first divergence in
    order changes everything after it and shows up as a trace mismatch.
    """
    rng = random.Random(seed)
    trace = []
    handles = []

    def fire(label):
        trace.append((sim.now, label))
        roll = rng.random()
        if roll < 0.25:
            # Re-entrant same-instant schedule.
            handles.append(
                sim.schedule_at(
                    sim.now, fire, f"{label}.now", priority=rng.randint(-2, 2)
                )
            )
        elif roll < 0.55:
            handles.append(
                sim.schedule_after(
                    rng.uniform(0.0, 32.0),
                    fire,
                    f"{label}.later",
                    priority=rng.randint(-2, 2),
                )
            )
        elif roll < 0.7 and handles:
            rng.choice(handles).cancel()

    for i in range(60):
        handles.append(
            sim.schedule_at(
                rng.uniform(0.0, 48.0), fire, f"seed{i}", priority=rng.randint(-2, 2)
            )
        )
    # Drain in several segments so run_until stop/resume mid-workload
    # is part of what is compared.
    horizon = 0.0
    while sim.pending_count():
        horizon += rng.uniform(0.5, 24.0)
        sim.run_until(horizon)
    return trace


@pytest.mark.parametrize("seed", [2005, 77, 9, 424242])
def test_batched_engine_matches_pure_heap_reference(seed):
    # The name dates from the calendar-wheel engine, which drained a
    # tick at a time into a batch; the reference is the same bare heap.
    engine = Simulator()
    reference = HeapReference()
    trace = _run_seeded_workload(engine, seed)
    assert trace == _run_seeded_workload(reference, seed)
    assert len(trace) > 60
    assert engine.events_fired == len(trace)
    assert engine.events_scheduled == reference.events_scheduled
    assert engine.events_cancelled == reference.events_cancelled
    assert engine.pending_count() == 0
    assert engine.now == reference.now
