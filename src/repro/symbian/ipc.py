"""Client/server request completion (the micro-kernel's IPC).

All Symbian system services are server applications; clients reach them
through kernel-supported message passing (§2 of the paper).  A server
keeps a message pointer to a client's request and completes it later,
which signals the client's :class:`~repro.symbian.active.TRequestStatus`.
The model keeps that completion protocol and its guard: the USER 70
panic, *attempting to complete a client/server request when the
RMessagePtr is null* (0.76% of the paper's panics).
"""

from __future__ import annotations

from typing import Optional

from repro.symbian.active import TRequestStatus
from repro.symbian.errors import PanicRequest
from repro.symbian.panics import USER_70


class RMessagePtr:
    """Nullable reference to a client's outstanding request.

    Server code often stashes a message pointer for later asynchronous
    completion; completing through a null pointer is the USER 70 defect.
    """

    __slots__ = ("_status",)

    def __init__(self, status: Optional[TRequestStatus] = None) -> None:
        self._status = status

    @property
    def is_null(self) -> bool:
        return self._status is None

    def set(self, status: Optional[TRequestStatus]) -> None:
        self._status = status

    def complete(self, code: int) -> None:
        """Complete the referenced request and clear the pointer.

        Panics USER 70 when the pointer is null — the exact condition
        from the paper's Table 2.
        """
        if self._status is None:
            raise PanicRequest(USER_70, "complete through null RMessagePtr")
        status = self._status
        self._status = None
        status.complete(code)

    def __repr__(self) -> str:
        return f"RMessagePtr({'null' if self.is_null else self._status!r})"
