"""Tests for client/server request completion."""

import pytest

from repro.symbian.active import TRequestStatus
from repro.symbian.errors import KERR_NONE, PanicRequest
from repro.symbian.ipc import RMessagePtr
from repro.symbian.panics import USER_70


def pending_status() -> TRequestStatus:
    status = TRequestStatus()
    status.mark_pending()
    return status


class TestRMessagePtr:
    def test_null_by_default(self):
        assert RMessagePtr().is_null

    def test_complete_through_null_panics_user70(self):
        with pytest.raises(PanicRequest) as exc:
            RMessagePtr().complete(0)
        assert exc.value.panic_id == USER_70

    def test_complete_clears_pointer(self):
        status = pending_status()
        ptr = RMessagePtr(status)
        ptr.complete(KERR_NONE)
        assert ptr.is_null
        assert status.completed

    def test_second_complete_after_clear_panics(self):
        ptr = RMessagePtr(pending_status())
        ptr.complete(0)
        with pytest.raises(PanicRequest):
            ptr.complete(0)

    def test_set(self):
        ptr = RMessagePtr()
        ptr.set(pending_status())
        assert not ptr.is_null
