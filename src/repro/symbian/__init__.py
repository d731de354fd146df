"""Symbian OS substrate.

A behavioural model, in Python, of the Symbian OS mechanisms that matter
to the paper's failure study: the kernel executive with its panic
machinery, the object index and handle semantics, 16-bit descriptors,
the heap with cleanup stack / TRAP-leave / two-phase construction,
active objects and the active scheduler, client/server request
completion, and the system servers the failure logger talks to
(Application Architecture, Database Log, System Agent, RDebug, View
Server).  Every module here is on the path of some fault-model defect
class: a mechanism no simulated phone runs is not part of the substrate
(``tests/test_substrate_reach.py`` checks that a campaign imports each
one).

Panics are *raised by the substrate's own guard code*, never emitted as
bare labels: dereferencing a null pointer goes through the address-space
model and comes back as KERN-EXEC 3; appending past a descriptor's
maximum length trips the bounds check inside ``TDes16.append`` and comes
back as USER 11; and so on for every panic type in the paper's Table 2.
"""

from repro.symbian.panics import (
    E32USER_CBASE,
    EIKCOCTL,
    EIKON_LISTBOX,
    KERN_EXEC,
    KERN_SVR,
    MMF_AUDIO_CLIENT,
    MSGS_CLIENT,
    PHONE_APP,
    USER,
    VIEW_SRV,
    PanicId,
    describe_panic,
    is_application_category,
    is_system_category,
    known_panics,
)
from repro.symbian.errors import (
    AccessViolation,
    BadHandle,
    Leave,
    PanicRaised,
    SymbianFault,
)
from repro.symbian.kernel import KernelExecutive, Process, Thread

__all__ = [
    "PanicId",
    "describe_panic",
    "known_panics",
    "is_system_category",
    "is_application_category",
    "KERN_EXEC",
    "KERN_SVR",
    "E32USER_CBASE",
    "USER",
    "VIEW_SRV",
    "EIKON_LISTBOX",
    "EIKCOCTL",
    "PHONE_APP",
    "MSGS_CLIENT",
    "MMF_AUDIO_CLIENT",
    "SymbianFault",
    "AccessViolation",
    "BadHandle",
    "Leave",
    "PanicRaised",
    "KernelExecutive",
    "Process",
    "Thread",
]
