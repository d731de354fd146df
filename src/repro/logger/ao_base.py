"""Shared machinery for the logger's event-driven active objects.

Each logger AO follows the same Symbian idiom: issue a request
(``SetActive``), let the observed service complete it when something
happens, process the queued payloads in ``RunL``, re-issue.  The base
class implements that loop over an event-bus subscription; subclasses
provide :meth:`handle_payload`.

Delivery has an inline fast path: when the daemon's scheduler is
completely idle (no pending signals, no other ready AO) and this AO is
armed with an empty queue, completing the request and pumping the
scheduler can only ever dispatch *this* AO with *this* payload — so the
handler is invoked directly, skipping the complete→signal→run_one→
``RunL``-queue round trip.  The observable outcome (records written,
dispatch count, AO re-armed) is identical; at paper scale the round
trip would otherwise execute a quarter-million times per campaign.
The general path remains for every other interleaving.

The bus handler itself is a closure built once per AO instance: the
request status, scheduler, payload queue, and the bound payload handler
live in closure cells, so the per-event dispatch does no attribute
lookups on ``self`` beyond the one mutable ``is_active`` flag and no
bound-method allocation per event.  Hot subclasses may additionally
override :meth:`_fast_payload_handler` to hand the closure a fully
fused payload body (see :class:`repro.logger.runapp.RunningAppsDetector`);
``handle_payload`` remains the semantic reference implementation used
by the queued (``RunL``) path.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.core.events import EventBus
from repro.symbian.active import CActive, CActiveScheduler
from repro.symbian.errors import Leave


class SubscribingAO(CActive):
    """Active object fed by an event-bus subscription."""

    __slots__ = ("_queue", "_subscription")

    def __init__(
        self,
        scheduler: CActiveScheduler,
        bus: EventBus,
        topic: str,
        priority: int = 0,
        name: str = "",
    ) -> None:
        super().__init__(scheduler, priority=priority, name=name)
        self._queue: Deque[tuple] = deque()
        self._subscription = bus.subscribe(topic, self._make_on_event())
        self._issue()

    # -- AO protocol -----------------------------------------------------------

    def run_l(self) -> None:
        """Drain queued payloads, then re-issue the request."""
        while self._queue:
            payload = self._queue.popleft()
            self.handle_payload(*payload)
        self._issue()

    def do_cancel(self) -> None:
        """Nothing outstanding at a real service; the queue just stops."""

    def handle_payload(self, *payload: Any) -> None:
        """Process one observed event (subclass responsibility)."""
        raise NotImplementedError

    # -- lifecycle ----------------------------------------------------------------

    def detach(self) -> None:
        """Stop observing (daemon shutdown or freeze)."""
        self._subscription.cancel()
        self.retire()

    # -- internals -----------------------------------------------------------------

    def _issue(self) -> None:
        self.i_status.mark_pending()
        self.set_active()

    def _fast_payload_handler(self) -> Callable[..., None]:
        """The callable the inline fast path invokes per event.

        The default is the bound ``handle_payload`` (captured once, so
        the per-event dispatch allocates no method object).  Hot
        subclasses may return a fused closure instead; it MUST be
        observably equivalent to ``handle_payload``, which stays the
        reference implementation for the queued path.
        """
        return self.handle_payload

    def _make_on_event(self) -> Callable[..., None]:
        """Build the per-instance bus handler closure.

        ``i_status``, ``scheduler`` and ``_queue`` are assigned exactly
        once (in ``__init__``) for the life of the AO, which is what
        makes capturing them in cells sound.
        """
        self_ = self
        status = self.i_status
        scheduler = self.scheduler
        queue = self._queue
        handle = self._fast_payload_handler()

        def on_event(*payload: Any) -> None:
            if self_.is_active and status._pending:
                if not scheduler._signals and not scheduler._ready and not queue:
                    # Fast path: the scheduler is idle and this AO is
                    # the only one this completion can wake, so
                    # complete(0) + run_until_idle() would
                    # deterministically dispatch it right here.  Do
                    # exactly that, inline.
                    scheduler.dispatched += 1
                    try:
                        handle(*payload)
                    except Leave as leave:
                        # Mirror the general path's post-leave state:
                        # the request completed, the AO was dispatched
                        # (cleared) and RunL aborted before re-issuing.
                        status.value = 0
                        status._pending = False
                        self_.is_active = False
                        if not self_.run_error(leave.code):
                            scheduler.error(leave.code, self_)
                    # AO state is untouched on success: still armed,
                    # still pending — the same end state ``RunL`` +
                    # re-issue leaves.
                    return
                queue.append(payload)
                status.complete(0)
            else:
                queue.append(payload)
            # Pump the cooperative scheduler so the AO handles the
            # event now; on the real device the thread's wait loop
            # does this.
            scheduler.run_until_idle()

        return on_event
