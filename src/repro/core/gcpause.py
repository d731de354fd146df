"""Cyclic-GC suspension for the allocation-heavy pipeline stages.

Simulating, parsing and reporting allocate hundreds of thousands of
long-lived, acyclic objects (events, records, per-phone streams).  Each
allocation burst triggers generation-2 passes over the growing object
graph that cost 10-25% of a stage's time while freeing almost nothing.
Suspending cyclic collection across those stages removes the passes;
reference counting still frees everything acyclic as usual.  Nor does
the simulator pile up cycles while collection is held: each retired
power cycle breaks its own (see ``OSRuntime.teardown``) and is freed by
refcount on the spot.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_suspended"]


@contextmanager
def gc_suspended(hold: bool = True) -> Iterator[None]:
    """Suspend cyclic garbage collection for the ``with`` body.

    Nests: an inner suspension inside an outer one is a no-op, and only
    the outermost re-enables collection.  ``hold=False`` makes the whole
    block a no-op.  There is no forced collection on exit; any cycles
    the body made are left to the next automatic pass.
    """
    held = hold and gc.isenabled()
    if held:
        gc.disable()
    try:
        yield
    finally:
        if held:
            gc.enable()
