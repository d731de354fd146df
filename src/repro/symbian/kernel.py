"""The kernel executive: processes, panic dispatch, recovery policy.

This is where substrate faults become *panic events*.  Application code
runs through :meth:`KernelExecutive.execute`; any
:class:`~repro.symbian.errors.SymbianFault` escaping it is translated:

* :class:`AccessViolation`  -> KERN-EXEC 3 (unhandled exception),
* :class:`BadHandle`        -> KERN-EXEC 0 (object-index lookup failure),
* :class:`PanicRequest`     -> the requested panic verbatim.

Recovery follows the paper's observation (§6, Figure 5a): the kernel
terminates the offending application, *except* when the panicking
process is a system-critical server (the core Phone or Messaging
process), in which case the kernel reboots the phone — those panic
categories "always cause the self-shutdown".  Panic notifications are
published on the event bus, where the RDebug hook (and through it the
failure logger's Panic Detector) observes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.events import EventBus
from repro.observability.telemetry import current_telemetry
from repro.symbian.cleanup import CTrapCleanup
from repro.symbian.errors import (
    AccessViolation,
    BadHandle,
    PanicRaised,
    PanicRequest,
)
from repro.symbian.handles import ObjectIndex
from repro.symbian.heap import RHeap
from repro.symbian.memory import AddressSpace
from repro.symbian.panics import KERN_EXEC_0, KERN_EXEC_3, PanicId

#: Bus topic for panic notifications (consumed by RDebug).
TOPIC_PANIC = "kernel.panic"
#: Bus topic published when the kernel decides the phone must reboot.
TOPIC_REBOOT_REQUEST = "kernel.reboot_request"


@dataclass(slots=True, unsafe_hash=True)
class PanicEvent:
    """A panic as observed by the kernel (and notified to RDebug)."""

    time: float
    panic_id: PanicId
    process_name: str
    reason: str


class Thread:
    """A kernel thread.  Scheduling detail is out of scope; identity and
    liveness are what the failure study needs."""

    __slots__ = ("name", "process", "alive")

    def __init__(self, name: str, process: "Process") -> None:
        self.name = name
        self.process = process
        self.alive = True

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"Thread({self.name!r}, {state})"


class Process:
    """A process: address space, heap, object index, threads.

    ``critical=True`` marks core system processes (Phone.app host,
    message server) whose death forces a device reboot.

    The memory substrate (address space, heap, object index, cleanup
    stack) materializes on first access: a paper-scale campaign creates
    ~90k short-lived application processes and only the few hundred
    that a fault targets ever touch their heap, so eager construction
    was pure overhead on the hottest device path (``open_app``).
    """

    __slots__ = (
        "name",
        "kernel",
        "critical",
        "alive",
        "heap_words",
        "_space",
        "_heap",
        "_object_index",
        "_cleanup",
        "_threads",
    )

    def __init__(
        self,
        name: str,
        kernel: "KernelExecutive",
        critical: bool = False,
        heap_words: int = 64 * 1024,
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.critical = critical
        self.alive = True
        self.heap_words = heap_words
        self._space: Optional[AddressSpace] = None
        self._heap: Optional[RHeap] = None
        self._object_index: Optional[ObjectIndex] = None
        self._cleanup: Optional[CTrapCleanup] = None
        self._threads: Optional[List[Thread]] = None

    @property
    def threads(self) -> List[Thread]:
        """Thread list; the main thread materializes on first access
        (mirroring current liveness), like the memory substrate."""
        threads = self._threads
        if threads is None:
            main = Thread(f"{self.name}::main", self)
            main.alive = self.alive
            threads = self._threads = [main]
        return threads

    @property
    def space(self) -> AddressSpace:
        if self._space is None:
            self._space = AddressSpace(self.name)
        return self._space

    @property
    def heap(self) -> RHeap:
        if self._heap is None:
            self._heap = RHeap(
                self.space, max_words=self.heap_words, name=f"{self.name}.heap"
            )
        return self._heap

    @property
    def object_index(self) -> ObjectIndex:
        if self._object_index is None:
            self._object_index = ObjectIndex(self.name)
        return self._object_index

    @property
    def cleanup(self) -> CTrapCleanup:
        if self._cleanup is None:
            self._cleanup = CTrapCleanup()
        return self._cleanup

    @property
    def main_thread(self) -> Thread:
        return self.threads[0]

    def spawn_thread(self, name: str) -> Thread:
        thread = Thread(f"{self.name}::{name}", self)
        self.threads.append(thread)
        return thread

    def __repr__(self) -> str:
        state = "alive" if self.alive else "terminated"
        flags = ", critical" if self.critical else ""
        return f"Process({self.name!r}, {state}{flags})"


class KernelExecutive:
    """Process table plus the panic/recovery machinery."""

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.bus = bus if bus is not None else EventBus()
        self._time_fn = time_fn if time_fn is not None else (lambda: 0.0)
        self._processes: Dict[str, Process] = {}
        self.panic_log: List[PanicEvent] = []
        self.reboot_requested = False
        # Telemetry: kernels are per power cycle, counters accumulate
        # process-wide.  Panic delivery is cold (thousands per paper
        # campaign), so the labeled series lookup happens inline.
        tel = current_telemetry()
        self._telemetry = tel if tel.metrics else None
        self._panic_counter = (
            tel.registry.counter(
                "kernel.panics_total", help="panics by category and type"
            )
            if tel.metrics
            else None
        )
        self._reboot_series = (
            tel.registry.counter(
                "kernel.reboot_requests_total",
                help="kernel-initiated reboot requests",
            ).series()
            if tel.metrics
            else None
        )

    # -- process management ------------------------------------------------

    def create_process(
        self, name: str, critical: bool = False, heap_words: int = 64 * 1024
    ) -> Process:
        """Create and register a process.  Names are unique."""
        if name in self._processes:
            raise ValueError(f"process {name!r} already exists")
        process = Process(name, self, critical=critical, heap_words=heap_words)
        self._processes[name] = process
        return process

    def find_process(self, name: str) -> Optional[Process]:
        return self._processes.get(name)

    def processes(self) -> List[Process]:
        return list(self._processes.values())

    def terminate_process(self, process: Process) -> None:
        """Kill a process (graceful, no panic)."""
        process.alive = False
        if process._threads is not None:
            for thread in process._threads:
                thread.alive = False
        self._processes.pop(process.name, None)

    def shutdown(self) -> None:
        """Drop the process table (the phone powered off).

        Each registered process points back at its kernel; dropping the
        table breaks that cycle so the kernel is freed by refcount.
        """
        self._processes = {}

    # -- execution / fault translation ------------------------------------

    def execute(self, process: Process, fn: Callable[..., object], *args):
        """Run application code in ``process`` context.

        Substrate faults escaping ``fn`` become panics with the kernel's
        recovery applied; the resulting :class:`PanicRaised` propagates
        so callers (the fault injector, tests) can observe it.
        """
        if not process.alive:
            raise ValueError(f"cannot execute in terminated process {process.name!r}")
        try:
            return fn(*args)
        except AccessViolation as fault:
            self.panic(process, KERN_EXEC_3, str(fault))
        except BadHandle as fault:
            self.panic(process, KERN_EXEC_0, str(fault))
        except PanicRequest as fault:
            self.panic(process, fault.panic_id, fault.reason)

    def panic(self, process: Process, panic_id: PanicId, reason: str = "") -> None:
        """Raise a panic against ``process`` and apply recovery.

        Sequence mirrors the real flow: the panic is delivered to the
        kernel, notified to debug observers (RDebug -> Panic Detector),
        then the kernel decides the recovery action — application
        termination, or a system reboot when the process is critical.
        Always raises :class:`PanicRaised`.
        """
        event = PanicEvent(
            time=self._time_fn(),
            panic_id=panic_id,
            process_name=process.name,
            reason=reason,
        )
        self.panic_log.append(event)
        tel = self._telemetry
        if tel is not None:
            self._panic_counter.inc(
                category=panic_id.category, ptype=str(panic_id.ptype)
            )
            tel.instant(
                f"panic {panic_id.category} {panic_id.ptype}",
                category="kernel",
                track="panics",
                process=process.name,
                critical=process.critical,
            )
        self.bus.publish(TOPIC_PANIC, event)
        self.terminate_process(process)
        if process.critical:
            self.reboot_requested = True
            if self._reboot_series is not None:
                self._reboot_series.value += 1.0
            self.bus.publish(TOPIC_REBOOT_REQUEST, event)
        raise PanicRaised(panic_id, process.name, reason)

    def request_reboot(self, reason: str = "") -> None:
        """Kernel-initiated reboot without a panic (e.g. watchdog)."""
        self.reboot_requested = True
        if self._reboot_series is not None:
            self._reboot_series.value += 1.0
        self.bus.publish(TOPIC_REBOOT_REQUEST, reason)

    @property
    def now(self) -> float:
        return self._time_fn()

    def __repr__(self) -> str:
        return (
            f"KernelExecutive(processes={len(self._processes)}, "
            f"panics={len(self.panic_log)})"
        )
