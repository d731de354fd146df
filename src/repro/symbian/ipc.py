"""Client/server message passing (the micro-kernel's IPC).

All Symbian system services are server applications; clients reach them
through kernel-supported message passing (§2 of the paper).  The model
implements sessions, messages, and the completion protocol — including
the USER 70 panic: *attempting to complete a client/server request when
the RMessagePtr is null* (0.76% of the paper's panics).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from repro.symbian.active import TRequestStatus
from repro.symbian.errors import (
    KERR_NONE,
    KERR_NOT_SUPPORTED,
    KERR_SERVER_TERMINATED,
    PanicRequest,
)
from repro.symbian.panics import USER_70


class RMessage:
    """A request captured by a server: function number plus arguments."""

    __slots__ = ("function", "args", "status", "_completed")

    def __init__(
        self,
        function: int,
        args: tuple,
        status: Optional[TRequestStatus] = None,
    ) -> None:
        self.function = function
        self.args = args
        self.status = status
        self._completed = False

    @property
    def completed(self) -> bool:
        return self._completed

    def complete(self, code: int) -> None:
        """Complete the client's request with ``code``."""
        if self._completed:
            raise PanicRequest(
                USER_70, f"double completion of message fn={self.function}"
            )
        self._completed = True
        if self.status is not None:
            self.status.complete(code)

    def __repr__(self) -> str:
        state = "completed" if self._completed else "open"
        return f"RMessage(fn={self.function}, {state})"


class RMessagePtr:
    """Nullable reference to an :class:`RMessage`.

    Server code often stashes a message pointer for later asynchronous
    completion; completing through a null pointer is the USER 70 defect.
    """

    __slots__ = ("_message",)

    def __init__(self, message: Optional[RMessage] = None) -> None:
        self._message = message

    @property
    def is_null(self) -> bool:
        return self._message is None

    def set(self, message: Optional[RMessage]) -> None:
        self._message = message

    def complete(self, code: int) -> None:
        """Complete the referenced message.

        Panics USER 70 when the pointer is null — the exact condition
        from the paper's Table 2.
        """
        if self._message is None:
            raise PanicRequest(USER_70, "complete through null RMessagePtr")
        message = self._message
        self._message = None
        message.complete(code)

    def __repr__(self) -> str:
        return f"RMessagePtr({'null' if self.is_null else self._message!r})"


HandlerFn = Callable[[RMessage], None]


class Server:
    """Base class for system servers.

    Subclasses register per-function handlers with :meth:`handler`.
    Messages are served synchronously by default (:meth:`serve_next` is
    called from :meth:`receive`); a server can opt into manual pumping
    for tests that exercise queue behaviour.
    """

    def __init__(self, name: str, auto_serve: bool = True) -> None:
        self.name = name
        self.auto_serve = auto_serve
        self.alive = True
        self._queue: Deque[RMessage] = deque()
        self._handlers: Dict[int, HandlerFn] = {}
        self.served = 0

    def handler(self, function: int, fn: HandlerFn) -> None:
        """Register the handler for message function ``function``."""
        self._handlers[function] = fn

    def receive(self, message: RMessage) -> None:
        """Accept a message from a session."""
        if not self.alive:
            message.complete(KERR_SERVER_TERMINATED)
            return
        self._queue.append(message)
        if self.auto_serve:
            self.serve_next()

    def serve_next(self) -> bool:
        """Dispatch one queued message; ``False`` when the queue is empty."""
        if not self._queue:
            return False
        message = self._queue.popleft()
        fn = self._handlers.get(message.function)
        if fn is None:
            message.complete(KERR_NOT_SUPPORTED)
            return True
        self.served += 1
        fn(message)
        if not message.completed:
            # Synchronous default: handlers that do not explicitly keep
            # the message for async completion get KErrNone completion.
            message.complete(KERR_NONE)
        return True

    def terminate(self) -> None:
        """Kill the server; queued and future requests fail.

        The handler table goes too: handlers are usually the server's
        own bound methods, a cycle that would outlive the server.
        """
        self.alive = False
        while self._queue:
            self._queue.popleft().complete(KERR_SERVER_TERMINATED)
        self._handlers = {}

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "terminated"
        return f"Server({self.name!r}, {state}, queued={self.queue_length})"


class RSessionBase:
    """Client-side session to a server."""

    def __init__(self, server: Server) -> None:
        self._server = server

    def send_receive(
        self, function: int, *args: Any, status: Optional[TRequestStatus] = None
    ) -> RMessage:
        """Send a request; returns the message (carries completion state)."""
        if status is not None:
            status.mark_pending()
        message = RMessage(function, args, status)
        self._server.receive(message)
        return message

    @property
    def server(self) -> Server:
        return self._server
