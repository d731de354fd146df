"""Synchronous publish/subscribe bus for domain events.

Simulator components (kernel, servers, logger AOs) are decoupled through
topic-based subscription: the kernel publishes ``"panic"`` events, the
RDebug hook republishes them to the logger, the System Agent publishes
battery transitions, and so on.  Delivery is synchronous and in
subscription order, which keeps the whole simulation deterministic.

Dispatch is allocation-free on the hot path: handlers live in an
insertion-ordered table per topic and ``publish`` iterates that table
directly.  Snapshot semantics (handlers added or cancelled while
publishing do not affect the in-flight delivery) are preserved by
copy-on-write — a subscribe/cancel that lands while any delivery is in
progress replaces the table instead of mutating it, so the publisher
keeps iterating its original.  At paper scale this removes ~264k list
copies per campaign.  Removal is an O(1) dict delete keyed by the
subscription handle, so churn-heavy topics (one subscription per AO per
power cycle) never pay a linear scan.

Most topics in the simulated phone have exactly one subscriber (each
logger AO owns its event source), so the bus keeps a ``topic ->
handler`` cache of solo subscriptions and ``publish`` calls the cached
handler directly — no table iteration and no copy-on-write guard.
Skipping the guard is safe precisely because the solo path never
iterates a table: a subscribe/cancel from inside the handler mutates
tables nobody is walking (any *outer* multi-handler publish still holds
its own ``_delivering`` increment), and snapshot semantics hold because
the handler was chosen before it could mutate anything.

Every subscription is a reference cycle while it is live (the bus
holds the handle, the handle holds the bus, and the handler usually
holds its owner, which holds the handle).  Teardown breaks both ends:
a cancelled subscription drops its handler, and :meth:`EventBus.retire`
empties the topic tables, so a retired bus and everything subscribed to
it are freed by reference counting alone, with no cyclic garbage.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

Handler = Callable[..., None]


class Subscription:
    """Returned by :meth:`EventBus.subscribe`; call :meth:`cancel` to detach."""

    __slots__ = ("_bus", "_topic", "_handler", "_active")

    def __init__(self, bus: "EventBus", topic: str, handler: Handler) -> None:
        self._bus = bus
        self._topic = topic
        self._handler = handler
        self._active = True

    @property
    def handler(self) -> Optional[Handler]:
        """The subscribed handler (introspection/debugging); ``None``
        once cancelled."""
        return self._handler

    def cancel(self) -> None:
        """Detach the handler and drop it.  Cancelling twice is a no-op.

        An in-flight publish keeps delivering to it: delivery walks the
        bus's table snapshot, never ``_handler``.
        """
        if self._active:
            self._active = False
            self._handler = None
            self._bus._remove(self._topic, self)


class EventBus:
    """Topic string -> insertion-ordered subscription table."""

    __slots__ = (
        "_topics",
        "_solo",
        "_delivering",
        "publishes",
        "deliveries",
        "__weakref__",
    )

    def __init__(self) -> None:
        # topic -> {subscription: handler}; dicts preserve insertion
        # order, giving subscription-order delivery for free.
        self._topics: Dict[str, Dict[Subscription, Handler]] = {}
        # topic -> handler, only for topics with exactly one
        # subscription (the overwhelmingly common case).
        self._solo: Dict[str, Handler] = {}
        # Number of publishes currently on the stack (any topic).  While
        # non-zero, mutations copy-on-write instead of mutating tables.
        self._delivering = 0
        # Intrinsic lifetime stats, maintained like the simulator's own
        # event counters: plain int increments, sampled once at campaign
        # end (Fleet.sample_metrics) rather than pushed through registry
        # series on every publish — this path runs ~264k times per
        # campaign, so even one foreign float add per publish is a
        # measurable fraction of metrics-level overhead.
        self.publishes = 0
        self.deliveries = 0

    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Register ``handler`` for ``topic``; returns a cancellable handle."""
        subscription = Subscription(self, topic, handler)
        table = self._topics.get(topic)
        if table is None:
            self._topics[topic] = {subscription: handler}
            self._solo[topic] = handler
        elif self._delivering:
            table = dict(table)
            table[subscription] = handler
            self._topics[topic] = table
            self._solo.pop(topic, None)
        else:
            table[subscription] = handler
            self._solo.pop(topic, None)
        return subscription

    def publish(self, topic: str, *args: Any, **kwargs: Any) -> int:
        """Invoke every handler registered for ``topic``.

        Returns the number of handlers invoked.  Handlers added while
        publishing do not receive the current event; handlers cancelled
        while publishing still do (the delivery snapshot is fixed when
        the publish starts).
        """
        self.publishes += 1
        handler = self._solo.get(topic)
        if handler is not None:
            # Solo fast path — see module docstring for why skipping
            # the _delivering guard is sound here.
            self.deliveries += 1
            if kwargs:
                handler(*args, **kwargs)
            else:
                handler(*args)
            return 1
        table = self._topics.get(topic)
        if table is None:
            return 0
        self.deliveries += len(table)
        self._delivering += 1
        try:
            if kwargs:
                for handler in table.values():
                    handler(*args, **kwargs)
            else:
                # Hot path: a plain *args call avoids the slower
                # CALL_FUNCTION_EX dispatch that ``**kwargs`` forces.
                for handler in table.values():
                    handler(*args)
        finally:
            self._delivering -= 1
        return len(table)

    def handler_count(self, topic: str) -> int:
        """Number of handlers currently subscribed to ``topic`` (O(1))."""
        table = self._topics.get(topic)
        return len(table) if table else 0

    def retire(self) -> None:
        """Drop every subscription (the bus's power cycle ended).

        Emptying the tables breaks the bus <-> subscription cycles, so
        the bus and its subscribers' handlers are freed by refcount.
        Later ``cancel`` calls on old handles are no-ops.
        """
        # Fresh tables rather than clear(): a publish still walking one
        # keeps its snapshot.
        self._topics = {}
        self._solo = {}

    def _remove(self, topic: str, subscription: Subscription) -> None:
        table = self._topics.get(topic)
        if table is None or subscription not in table:
            return
        if self._delivering:
            table = dict(table)
            del table[subscription]
            if table:
                self._topics[topic] = table
            else:
                del self._topics[topic]
        else:
            del table[subscription]
            if not table:
                del self._topics[topic]
                table = None
        if table is not None and len(table) == 1:
            self._solo[topic] = next(iter(table.values()))
        else:
            self._solo.pop(topic, None)
