"""Engine edge-case and accounting tests.

Covers the documented escape semantics of ``run_until`` (a raising
callback must leave the simulator resumable, not half-advanced), the
``ScheduledEvent`` lifecycle reporting, and a property test that
interleaved ``schedule_*``/``cancel``/``_compact``/``run_until``
sequences keep ``pending_count()``, ``events_cancelled`` and the
internal dead-entry counter exactly consistent — including cancels
fired from inside callbacks and compaction mid-``run_until``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ScheduledEvent, Simulator
from repro.core.errors import SimulationError

#: Clock origins the engine is started at: zero, a fractional offset and
#: an hour in.  Event times in the tests below are relative to the origin,
#: so every observation is the same whatever the origin.
STARTS = [0.0, 7.5, 3600.0]


# ---------------------------------------------------------------------------
# run_until escape semantics: fires, raises, resumes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", STARTS)
def test_run_until_fires_raises_resumes(start):
    sim = Simulator(start)
    order = []

    def boom():
        order.append("boom")
        # Work scheduled before the raise must survive the escape.
        sim.schedule_at(sim.now + 1.0, lambda: order.append("from-boom"))
        raise RuntimeError("injected")

    sim.schedule_at(start + 5.0, lambda: order.append("before"))
    sim.schedule_at(start + 15.0, boom)
    sim.schedule_at(start + 15.0, lambda: order.append("same-instant"))
    sim.schedule_at(start + 25.0, lambda: order.append("after"))

    with pytest.raises(RuntimeError, match="injected"):
        sim.run_until(start + 100.0)

    # Documented escape state: clock at the failing event's timestamp
    # (NOT advanced to t), the failing event counted as fired, every
    # survivor still queued, counters exact.
    assert order == ["before", "boom"]
    assert sim.now == start + 15.0
    assert sim.events_fired == 2
    assert sim.pending_count() == 3  # same-instant, from-boom, after

    # A fresh run_until resumes exactly where the drain stopped.
    sim.run_until(start + 100.0)
    assert order == ["before", "boom", "same-instant", "from-boom", "after"]
    assert sim.now == start + 100.0
    assert sim.pending_count() == 0
    assert sim.events_fired == 5
    # The re-entrancy latch was released by the escape path too.
    sim.schedule_at(start + 200.0, lambda: order.append("tail"))
    sim.run_until(start + 200.0)
    assert order[-1] == "tail"


def test_run_until_without_events_still_advances_clock():
    sim = Simulator()
    sim.run_until(42.0)
    assert sim.now == 42.0
    with pytest.raises(SimulationError):
        sim.run_until(41.0)  # clock cannot move backwards


# ---------------------------------------------------------------------------
# Refusals leave the books untouched.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_times_are_refused_before_they_are_counted(bad):
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append("a"))
    sim.schedule_at(2.0, lambda: fired.append("b"))
    for schedule in (sim.schedule_at, sim.schedule_after):
        with pytest.raises(SimulationError):
            schedule(bad, lambda: fired.append("bad"))
    # Nothing took a sequence number or a place in the queue.
    assert sim.events_scheduled == 2
    assert sim.pending_count() == 2
    assert len(sim._heap) == 2
    # A non-finite run limit fires nothing and leaves the clock alone.
    with pytest.raises(SimulationError):
        sim.run_until(bad)
    assert fired == [] and sim.now == 0.0 and sim.events_fired == 0
    sim.run_until(5.0)
    assert fired == ["a", "b"]
    assert sim.now == 5.0
    assert sim.events_fired == 2


def test_step_from_a_callback_is_refused():
    sim = Simulator()
    seen = []

    def step_inside():
        with pytest.raises(SimulationError):
            sim.step()
        # The next event did not fire nested: the clock stands still.
        seen.append(sim.now)

    sim.schedule_at(1.0, step_inside)
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    sim.run_until(10.0)
    assert seen == [1.0, 2.0]
    assert sim.events_fired == 2
    # Outside a run loop step works, and a refusal left no latch set.
    sim.schedule_at(11.0, lambda: seen.append(sim.now))
    assert sim.step() is True
    assert seen[-1] == 11.0


# ---------------------------------------------------------------------------
# ScheduledEvent lifecycle reporting.
# ---------------------------------------------------------------------------


def test_repr_reports_pending_fired_and_cancelled():
    sim = Simulator()
    handle = sim.schedule_at(10.0, lambda: None)
    assert repr(handle).endswith("pending)")
    sim.run_until(10.0)
    # The pre-fix __repr__ reported fired events as pending.
    assert repr(handle).endswith("fired)")

    cancelled = sim.schedule_at(20.0, lambda: None)
    cancelled.cancel()
    assert repr(cancelled).endswith("cancelled)")


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule_at(1.0, lambda: fired.append(1))
    sim.run_until(1.0)
    handle.cancel()
    assert not handle.cancelled  # it fired; cancel must not relabel it
    assert "fired" in repr(handle)
    assert sim.events_cancelled == 0
    assert sim.pending_count() == 0


def test_scheduled_event_defines_no_ordering():
    # Queue entries are (time, priority, seq, event) tuples and the
    # unique seq guarantees comparisons never reach the event object;
    # a stray __lt__ would silently mask key bugs, so its absence is
    # part of the contract.
    assert "__lt__" not in ScheduledEvent.__dict__
    a = ScheduledEvent(1.0, 0, 0, lambda: None, ())
    b = ScheduledEvent(2.0, 0, 1, lambda: None, ())
    with pytest.raises(TypeError):
        a < b


# ---------------------------------------------------------------------------
# Accounting property: pending_count / events_cancelled / dead entries.
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["sched_at", "sched_after", "cancel", "compact", "run"]
        ),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=60,
)


@given(ops=_OPS)
@settings(max_examples=150, deadline=None)
def test_interleaved_ops_keep_accounting_exact(ops):
    sim = Simulator()
    handles = []
    scheduled = 0
    fired_ids = []
    cancelled_ids = set()

    def note_cancel(handle):
        # cancel() is a no-op on fired or already-cancelled events;
        # mirror that in the model so events_cancelled stays exact.
        if handle._sim is not None and not handle.cancelled:
            cancelled_ids.add(id(handle))
        handle.cancel()

    def check():
        live = scheduled - len(fired_ids) - len(cancelled_ids)
        assert sim.pending_count() == live
        assert sim.events_scheduled == scheduled
        assert sim.events_fired == len(fired_ids)
        assert sim.events_cancelled == len(cancelled_ids)
        # The dead-entry counter is exactly the physically-resident
        # cancelled entries, and never negative.
        assert sim._cancelled_count == len(sim._heap) - live
        assert sim._cancelled_count >= 0

    def check_resident():
        # The subset of the books that is exact from *inside* a firing
        # callback: events_fired is folded in at run_until exit, but
        # residency and cancellation accounting are eager.
        live = scheduled - len(fired_ids) - len(cancelled_ids)
        assert sim.pending_count() == live
        assert sim.events_scheduled == scheduled
        assert sim.events_cancelled == len(cancelled_ids)
        assert sim._cancelled_count == len(sim._heap) - live
        assert sim._cancelled_count >= 0

    def fire(payload):
        fired_ids.append(payload)
        check_resident()
        action = payload % 4
        if action == 1 and handles:
            note_cancel(handles[payload % len(handles)])
        elif action == 2:
            nonlocal scheduled
            scheduled += 1
            handles.append(
                sim.schedule_after((payload % 300) / 10.0, fire, payload + 7)
            )
        elif action == 3:
            sim._compact()  # compaction mid-run_until
        check_resident()

    for op, a in ops:
        if op == "sched_at":
            scheduled += 1
            handles.append(
                sim.schedule_at(
                    sim.now + (a % 5000) / 10.0,
                    fire,
                    a,
                    priority=(a % 7) - 3,
                )
            )
        elif op == "sched_after":
            scheduled += 1
            handles.append(sim.schedule_after((a % 5000) / 10.0, fire, a))
        elif op == "cancel":
            if handles:
                note_cancel(handles[a % len(handles)])
        elif op == "compact":
            sim._compact()
        elif op == "run":
            sim.run_until(sim.now + (a % 3000) / 10.0)
        check()

    # Drain everything; the books must balance at quiescence too.
    sim.run()
    check()
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# rewind: one engine, many runs (the fleet runs its phones one by one).
# ---------------------------------------------------------------------------


def _phone_run(sim, log, tag, count=40):
    """A self-rescheduling chain plus one-shot timers, some past the
    horizon and some cancelled: a stand-in for one phone's events."""

    def tick(n):
        log.append((tag, "tick", n, sim.now))
        if n < count:
            sim.schedule_after(13.0 + n % 5, tick, n + 1, priority=n % 3 - 1)

    origin = sim.now
    sim.schedule_at(origin, tick, 0)
    handles = [
        sim.schedule_at(
            origin + 7.5 * k, lambda k=k: log.append((tag, "one", k, sim.now))
        )
        for k in range(60)
    ]
    for handle in handles[::4]:
        handle.cancel()
    return handles


@pytest.mark.parametrize("start", STARTS)
def test_rewind_runs_each_phone_as_on_its_own_engine(start):
    horizon = start + 300.0
    shared = Simulator(start)
    shared_log = []
    kept = []
    for tag in ("a", "b", "c"):
        kept.extend(_phone_run(shared, shared_log, tag))
        shared.run_until(horizon)
        shared.rewind()
        # Back at the engine's own origin, not at zero.
        assert shared.now == start and shared.pending_count() == 0
    own_log = []
    fired = scheduled = cancelled = 0
    for tag in ("a", "b", "c"):
        reference = Simulator(start)  # a fresh engine per phone
        _phone_run(reference, own_log, tag)
        reference.run_until(horizon)
        fired += reference.events_fired
        scheduled += reference.events_scheduled
        cancelled += reference.events_cancelled
    assert shared_log == own_log
    # The counters stay lifetime totals: dropped events are neither
    # fired nor cancelled.
    assert shared.events_fired == fired
    assert shared.events_scheduled == scheduled
    assert shared.events_cancelled == cancelled
    # A dropped handle is detached and holds no callback any more.
    dropped = [h for h in kept if h.time > horizon and not h.cancelled]
    assert dropped
    for handle in dropped:
        assert handle.fn is None and handle.args == ()
        handle.cancel()
        assert not handle.cancelled
    assert shared.events_cancelled == cancelled


@pytest.mark.parametrize("start", STARTS)
def test_rewind_from_a_callback_is_refused(start):
    sim = Simulator(start)
    errors = []

    def rewind_inside():
        try:
            sim.rewind()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule_at(start + 5.0, rewind_inside)
    sim.schedule_at(start + 9.0, lambda: None)
    sim.run_until(start + 10.0)
    assert len(errors) == 1
    assert sim.events_fired == 2
    assert sim.now == start + 10.0
