#!/usr/bin/env python3
"""ViewSrv 11, mechanistically: how a busy handler kills an app.

The paper's Table 2 explains ViewSrv 11 as "one active object's event
handler monopolizes the thread's active scheduler loop and the
application's ViewSrv active object cannot respond in time".  This
example drives the View Server watchdog (``repro.symbian.servers.
viewsrv``) the way the fault model's ViewSrv 11 defect does: the app
reports how long its current event handler has been running, and the
server's periodic ping panics the app once that exceeds the deadline::

    python examples/viewsrv_starvation.py
"""

from repro.core.engine import Simulator
from repro.symbian.errors import PanicRaised
from repro.symbian.kernel import KernelExecutive
from repro.symbian.servers.viewsrv import ViewServer

PING_INTERVAL = 2.0
#: Idle time between two events of the app's event loop (seconds).
IDLE_GAP = 0.5


def scenario(handler_burst: float) -> str:
    """One app whose event handler computes ``handler_burst`` s per event."""
    sim = Simulator()
    kernel = KernelExecutive(time_fn=lambda: sim.now)
    viewsrv = ViewServer(kernel, deadline=10.0)
    process = kernel.create_process("BusyApp")
    viewsrv.register(process)

    # The app's event loop: handle an event (a CPU burst that holds the
    # active scheduler), then wait for the next one.  ``started`` is the
    # start of the running handler, ``None`` while the loop is idle and
    # the ViewSrv active object can answer.
    handler = {"started": None}
    outcome = {"result": "responsive"}

    def handle_event() -> None:
        if process.alive:
            handler["started"] = sim.now
            sim.schedule_after(handler_burst, handler_returned)

    def handler_returned() -> None:
        handler["started"] = None
        sim.schedule_after(IDLE_GAP, handle_event)

    def ping() -> None:
        started = handler["started"]
        busy = 0.0 if started is None else sim.now - started
        viewsrv.report_handler_duration(process, busy)
        try:
            viewsrv.ping(process)
        except PanicRaised as raised:
            outcome["result"] = f"panicked with {raised.panic_id} at t={sim.now:.0f}s"
            return
        sim.schedule_after(PING_INTERVAL, ping)

    sim.schedule_after(0.0, handle_event)
    sim.schedule_after(PING_INTERVAL, ping)
    sim.run_until(60.0)
    return outcome["result"]


def main() -> None:
    print("Well-behaved app (50 ms handler bursts):")
    print(f"  -> {scenario(handler_burst=0.05)}\n")
    print("Monopolizing app (30 s handler burst, the infinite-loop smell):")
    print(f"  -> {scenario(handler_burst=30.0)}\n")
    print(
        "The paper's advice stands: 'Clever use of Active Objects should\n"
        "help overcome this' — break long computations into short RunL\n"
        "slices so the ViewSrv active object gets its turn."
    )


if __name__ == "__main__":
    main()
