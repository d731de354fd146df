#!/usr/bin/env python3
"""Anatomy of a memory leak — from forum complaint to Table 2 panic.

The §4 forum study blames "UI memory leaks" for unstable behaviour;
§2 describes the machinery Symbian provides against them.  This example
runs three versions of the same UI event handler on the substrate's
heap (``RHeap``) and cleanup stack (``CTrapCleanup``) and shows the
full causal chain::

    python examples/memory_leak_anatomy.py
"""

from typing import Callable, Tuple

from repro.core.rand import Stream
from repro.symbian.errors import KERR_NO_MEMORY, PanicRaised
from repro.symbian.kernel import KernelExecutive, Process

HEAP_WORDS = 4096
#: Payload words of the temporary buffer each UI event allocates.
CELL_WORDS = 8
LEAK_PROBABILITY = 0.25
MAX_OPERATIONS = 20_000


class TempBuffer:
    """A heap cell owned through the cleanup stack: ``destruct`` frees it."""

    def __init__(self, process: Process, address: int) -> None:
        self.process = process
        self.address = address

    def destruct(self) -> None:
        self.process.heap.free(self.address)


def alloc_or_leave(process: Process) -> int:
    """Allocate a temporary; on exhaustion ``User::Leave(KErrNoMemory)``,
    which unwinds to the nearest TRAP — or, with none installed, panics
    E32USER-CBase 69 in the cleanup stack's own guard."""
    address = process.heap.alloc(CELL_WORDS)
    if address is None:
        process.cleanup.leave(KERR_NO_MEMORY)
    return address


def disciplined_event(process: Process) -> None:
    """Push the temporary on the cleanup stack; pop-and-destroy frees it
    (and a leave anywhere in between would too)."""
    cleanup = process.cleanup
    cleanup.push(TempBuffer(process, alloc_or_leave(process)))
    cleanup.pop_and_destroy()


def leaky_event(process: Process, stream: Stream) -> None:
    """Free the temporary by hand — except on the path that forgets."""
    address = alloc_or_leave(process)
    if stream.random() >= LEAK_PROBABILITY:
        process.heap.free(address)


def drive_trapped(process: Process, event: Callable[[], None]) -> Tuple[int, int]:
    """Run UI events, each inside a TRAP, until one leaves.

    Returns the completed operations and the leave code (0 if none).
    """
    cleanup = process.cleanup
    for operations in range(MAX_OPERATIONS):
        with cleanup.trap() as result:
            event()
        if result.left:
            return operations, result.code
    return MAX_OPERATIONS, 0


def main() -> None:
    kernel = KernelExecutive()

    print("1) Disciplined app: cleanup stack + TRAP, every object freed.")
    process = kernel.create_process("GoodApp", heap_words=HEAP_WORDS)
    operations, code = drive_trapped(process, lambda: disciplined_event(process))
    print(f"   {operations} UI operations, live cells: "
          f"{process.heap.cell_count}, leave code: {code}")
    print("   -> bounded footprint forever.\n")

    print("2) Leaky app, but the failure path is trapped.")
    process = kernel.create_process("LeakyApp", heap_words=HEAP_WORDS)
    stream = Stream(7)
    operations, code = drive_trapped(process, lambda: leaky_event(process, stream))
    print(f"   exhausted the heap after {operations} operations "
          f"({process.heap.cell_count} leaked cells, leave code {code}).")
    print("   -> KErrNoMemory leave, caught: the app degrades.  The user")
    print("      sees an *output failure* — the forum study's complaint.\n")

    print("3) Leaky app with an untrapped failure path.")
    process = kernel.create_process("DoomedApp", heap_words=HEAP_WORDS)
    stream = Stream(7)
    done = {"operations": 0}

    def run_to_death() -> None:
        while True:
            leaky_event(process, stream)
            done["operations"] += 1

    try:
        kernel.execute(process, run_to_death)
    except PanicRaised as raised:
        print(f"   after {done['operations']} operations: "
              f"panic {raised.panic_id}")
        print("   -> the leave found no trap handler installed: "
              "E32USER-CBase 69,")
        print("      the third-largest panic class of the paper's Table 2.")
    print()
    print(f"kernel panic log: {[str(e.panic_id) for e in kernel.panic_log]}")


if __name__ == "__main__":
    main()
