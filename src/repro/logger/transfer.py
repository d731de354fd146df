"""Automated log transfer — the collection side of the study.

The paper mentions a software infrastructure for automated transfer of
log files from the phones (detailed in [1], Ascione et al., ISORC'06).
The model keeps a per-phone cursor so periodic syncs ship only new
entries, and the analysis pipeline ingests from the collection server —
never from simulator internals.

Transfers move as :class:`TransferBatch` objects carrying the index of
their first entry.  Over the default (perfect) link that is invisible;
over a faulty link (:class:`repro.robustness.injectors.FaultyLink`) the
protocol is what keeps the dataset intact:

* a failed delivery is retried with exponential backoff (modeled —
  delays are recorded in :class:`TransferStats`, never slept); a sync
  that exhausts its attempts leaves the client cursor unmoved, so the
  next sync naturally catches up with no loss and no duplication;
* the server reconciles batches idempotently by entry index: a
  re-delivered or overlapping batch is deduplicated, an out-of-order
  batch is buffered until the gap before it fills.

Entries ship in their stored form (record objects, or raw strings for
corrupted lines).  ``record_dataset()`` hands record streams to the
structured analysis fast path with zero serialization;  ``dataset()``
and ``export_to_dir()`` materialize the text contract on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.errors import ReproError
from repro.observability.telemetry import current_telemetry
from repro.logger.logfile import (
    LogEntry,
    LogStorage,
    entries_to_records,
    serialize_entry,
)

#: File extension used for exported per-phone log files.
LOG_EXTENSION = ".log"

#: Delivery attempts per sync before giving up until the next cycle.
DEFAULT_MAX_ATTEMPTS = 4
#: First retry delay (seconds, modeled); doubles per further attempt.
DEFAULT_BACKOFF_BASE = 30.0


class TransferError(ReproError):
    """A batch delivery failed (link down, transfer interrupted)."""


@dataclass
class TransferBatch:
    """One sync's payload: consecutive entries starting at ``start``."""

    phone_id: str
    #: Index (in the phone's log) of the first entry in this batch.
    start: int
    entries: List[LogEntry]

    @property
    def end(self) -> int:
        """Index one past the last entry in this batch."""
        return self.start + len(self.entries)


@dataclass
class TransferStats:
    """What the collection server observed and survived."""

    #: Extra delivery attempts beyond the first, across all syncs.
    retries: int = 0
    #: Total modeled backoff delay across all retries (seconds).
    backoff_seconds: float = 0.0
    #: Syncs that exhausted every attempt (the client will catch up).
    failed_syncs: int = 0
    #: Entries dropped because they had already been applied.
    duplicate_entries_dropped: int = 0
    #: Batches that arrived ahead of a gap and were buffered.
    out_of_order_batches: int = 0
    #: Buffered batches later stitched back into sequence.
    reassembled_batches: int = 0

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class CollectionServer:
    """Accumulates log entries shipped from the fleet.

    ``link`` is the transport: ``None`` models a perfect link (every
    batch applies directly — the exact legacy fast path), anything else
    must provide ``deliver(batch, receive)`` raising
    :class:`TransferError` on a failed attempt, and ``flush(receive)``
    to hand over any withheld batches at campaign end.
    """

    def __init__(
        self,
        link: Optional[object] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._entries: Dict[str, List[LogEntry]] = {}
        self._cursors: Dict[str, int] = {}
        #: Entries applied (deduplicated) per phone; the reconciliation
        #: watermark on the server side of the link.
        self._applied: Dict[str, int] = {}
        #: Out-of-order batches buffered per phone: start index -> batch.
        self._pending: Dict[str, Dict[int, TransferBatch]] = {}
        self._link = link
        self._max_attempts = max_attempts
        self._backoff_base = backoff_base
        self.stats = TransferStats()
        self.syncs = 0

    def sync(self, storage: LogStorage) -> int:
        """Ship entries written since the last acknowledged sync.

        Returns how many entries were handed to the link (0 when the
        sync failed outright; the cursor then stays put and the next
        sync retries the same span).
        """
        phone_id = storage.phone_id
        cursor = self._cursors.get(phone_id, 0)
        new_entries = storage.entries(cursor)
        self.syncs += 1
        if not new_entries:
            return 0
        if self._link is None:
            # Perfect link: apply in place, no batch machinery at all.
            self._entries.setdefault(phone_id, []).extend(new_entries)
            self._cursors[phone_id] = cursor + len(new_entries)
            self._applied[phone_id] = cursor + len(new_entries)
            return len(new_entries)
        batch = TransferBatch(phone_id, cursor, new_entries)
        if not self._deliver_with_retry(batch):
            self.stats.failed_syncs += 1
            return 0
        # Acknowledged: the client cursor covers the whole span even if
        # the link withheld (reordered) the batch — the server will
        # reconcile it when it finally lands.
        self._cursors[phone_id] = batch.end
        return len(new_entries)

    def finalize(self) -> None:
        """Flush the link's withheld batches (call at campaign end)."""
        if self._link is not None:
            self._link.flush(self._receive)

    # -- delivery (client side of the link) --------------------------------------

    def _deliver_with_retry(self, batch: TransferBatch) -> bool:
        delay = self._backoff_base
        tel = current_telemetry()
        dropped = (
            tel.registry.counter(
                "dropped_total", help="data discarded at except-and-continue sites"
            )
            if tel.metrics
            else None
        )
        for attempt in range(self._max_attempts):
            if attempt:
                self.stats.retries += 1
                self.stats.backoff_seconds += delay
                delay *= 2.0
            try:
                self._link.deliver(batch, self._receive)
                return True
            except TransferError:
                # The attempt's payload went nowhere; make the swallow
                # visible before the retry (or the give-up) happens.
                if dropped is not None:
                    dropped.inc(site="transfer.delivery_attempt")
                continue
        if dropped is not None:
            # Every attempt failed: the whole batch is withheld until
            # the next sync cycle catches the cursor up.
            dropped.inc(
                float(len(batch.entries)), site="transfer.sync_exhausted"
            )
        return False

    # -- reconciliation (server side of the link) ---------------------------------

    def _receive(self, batch: TransferBatch) -> None:
        """Apply a delivered batch idempotently.

        Duplicated and overlapping spans are dropped by index; a batch
        past the watermark is buffered until the gap before it fills.
        """
        phone_id = batch.phone_id
        applied = self._applied.get(phone_id, 0)
        if batch.end <= applied:
            self.stats.duplicate_entries_dropped += len(batch.entries)
            return
        if batch.start > applied:
            pending = self._pending.setdefault(phone_id, {})
            if batch.start not in pending:
                self.stats.out_of_order_batches += 1
                pending[batch.start] = batch
            else:
                self.stats.duplicate_entries_dropped += len(batch.entries)
            return
        entries = batch.entries
        if batch.start < applied:
            overlap = applied - batch.start
            self.stats.duplicate_entries_dropped += overlap
            entries = entries[overlap:]
        self._entries.setdefault(phone_id, []).extend(entries)
        self._applied[phone_id] = batch.end
        self._drain_pending(phone_id)

    def _drain_pending(self, phone_id: str) -> None:
        pending = self._pending.get(phone_id)
        while pending:
            applied = self._applied[phone_id]
            ready = [start for start in pending if start <= applied]
            if not ready:
                return
            batch = pending.pop(min(ready))
            self.stats.reassembled_batches += 1
            self._receive(batch)

    # -- telemetry -----------------------------------------------------------------

    def sample_metrics(self, registry) -> None:
        """Dump the transfer protocol's lifetime stats into ``registry``.

        Called once at campaign end (the server outlives every power
        cycle, so sampling beats per-sync increments on the hot path).
        """
        registry.counter(
            "transfer.syncs_total", help="sync attempts across the fleet"
        ).series().value += float(self.syncs)
        registry.counter(
            "transfer.entries_collected_total",
            help="log entries applied by the collection server",
        ).series().value += float(self.total_lines)
        stats = self.stats.to_dict()
        counter = registry.counter(
            "transfer.protocol_total",
            help="transfer protocol events (retries, backoff, reassembly)",
        )
        for name, value in stats.items():
            counter.series(event=name).value += float(value)

    # -- views --------------------------------------------------------------------

    def phone_ids(self) -> Tuple[str, ...]:
        """Phones that have shipped at least one entry, sorted."""
        return tuple(sorted(self._entries))

    def lines_for(self, phone_id: str) -> List[str]:
        """All collected lines for one phone, in write order."""
        return [serialize_entry(entry) for entry in self._entries.get(phone_id, ())]

    def dataset(self) -> Dict[str, List[str]]:
        """phone_id -> collected lines, as exported to disk."""
        return {
            phone_id: [serialize_entry(entry) for entry in entries]
            for phone_id, entries in self._entries.items()
        }

    def record_dataset(
        self, on_error: Optional[Callable[[str, str, Exception], None]] = None
    ) -> Dict[str, List[object]]:
        """phone_id -> collected records; what a campaign ingests.

        Raw (corrupted) entries go through the tolerant parser, exactly
        as ``repro analyze`` treats them after a disk round trip.
        ``on_error`` (phone_id, line, error) observes every quarantined
        line instead of letting it vanish silently.
        """
        out: Dict[str, List[object]] = {}
        # Sorted iteration keeps quarantine accounting byte-identical
        # to Dataset.from_lines, which ingests phones in sorted order.
        for phone_id in sorted(self._entries):
            entries = self._entries[phone_id]
            hook = None
            if on_error is not None:
                hook = (
                    lambda line, exc, pid=phone_id: on_error(pid, line, exc)
                )
            out[phone_id] = list(entries_to_records(entries, on_error=hook))
        return out

    @property
    def total_lines(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    # -- disk round trip ---------------------------------------------------------

    def export_to_dir(self, directory: str) -> int:
        """Write one ``<phone_id>.log`` file per phone; returns the
        number of files written.  This is the shape of the dataset a
        real campaign leaves on the analysis workstation."""
        os.makedirs(directory, exist_ok=True)
        for phone_id, entries in self._entries.items():
            path = os.path.join(directory, phone_id + LOG_EXTENSION)
            with open(path, "w", encoding="utf-8") as handle:
                for entry in entries:
                    handle.write(serialize_entry(entry))
                    handle.write("\n")
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"CollectionServer(phones={len(self._entries)}, "
            f"lines={self.total_lines})"
        )


def _log_file_lines(data: bytes) -> List[str]:
    """One log file's bytes as its non-blank lines.

    A valid UTF-8 file is decoded whole in one strict pass.  A file
    with undecodable bytes (flash corruption) is decoded with
    ``surrogateescape`` instead: only the bad bytes become lone
    surrogates, so the parser quarantines just the lines that hold them
    rather than the load failing.  Newlines are universal (CR LF and a
    lone CR end a line too), as when reading the file in text mode.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = data.decode("utf-8", "surrogateescape")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [line for line in text.split("\n") if line.strip()]


class _LogDirectory(Mapping[str, List[str]]):
    """The ``*.log`` files of one directory as phone_id -> lines.

    The directory is listed once, at construction.  Each lookup reads
    and decodes that phone's file again; nothing is cached, so a caller
    that visits phones one at a time holds one file's text at a time.
    """

    def __init__(self, directory: str) -> None:
        self._paths = {
            name[: -len(LOG_EXTENSION)]: os.path.join(directory, name)
            for name in sorted(os.listdir(directory))
            if name.endswith(LOG_EXTENSION)
        }

    def __getitem__(self, phone_id: str) -> List[str]:
        with open(self._paths[phone_id], "rb") as handle:
            return _log_file_lines(handle.read())

    def __contains__(self, phone_id: object) -> bool:
        return phone_id in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def load_lines_from_dir(directory: str) -> Mapping[str, List[str]]:
    """The phone-id -> lines mapping the analysis ingests, read from the
    ``*.log`` files in ``directory``.

    Phones iterate in sorted order.  The directory is listed here (an
    unreadable directory raises :class:`OSError` now), but a file is
    read only when its phone is looked up, and again on every lookup:
    :meth:`repro.analysis.ingest.Dataset.from_lines` thus reads, parses
    and drops one phone's log before reading the next.  ``len`` and
    ``in`` read no file.  Call ``dict(...)`` for every phone's lines at
    once.
    """
    return _LogDirectory(directory)
