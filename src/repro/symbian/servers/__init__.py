"""System servers the failure logger interacts with.

Each server mirrors the role the paper assigns it:

* :mod:`apparch`  — Application Architecture Server: the running-
  application list read by the Running Applications Detector.
* :mod:`logdb`    — Database Log Server: voice-call and message events
  read by the Log Engine.
* :mod:`sysagent` — System Agent Server: battery status read by the
  Power Manager.
* :mod:`rdebug`   — the RDebug panic-notification services used by the
  Panic Detector.
* :mod:`viewsrv`  — the View Server that panics unresponsive
  applications (ViewSrv 11).
"""

from repro.symbian.servers.apparch import AppArchServer
from repro.symbian.servers.logdb import LogDatabaseServer, LogEvent
from repro.symbian.servers.rdebug import RDebug
from repro.symbian.servers.sysagent import SystemAgent
from repro.symbian.servers.viewsrv import ViewServer

__all__ = [
    "AppArchServer",
    "LogDatabaseServer",
    "LogEvent",
    "SystemAgent",
    "RDebug",
    "ViewServer",
]
