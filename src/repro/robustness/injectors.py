"""Fault injectors: the machinery that executes a :class:`FaultPlan`.

Three injection surfaces, one per pipeline stage:

* :class:`FaultyLink` — sits between the phones' flash and the
  collection server, modeling both the storage layer (what flash gives
  back: truncated tails, garbled bytes, flash-full eviction) and the
  transfer layer (failed attempts, duplicated and withheld/reordered
  batches, per-phone clock skew);
* :class:`FaultyCampaignTask` — a drop-in shard task for the sweep
  runner that crashes or stalls on schedule;
* :func:`corrupt_cache_entry` — flips or truncates a committed shard
  file in a run directory under the ledger's feet.

Every roll comes from named streams derived from the plan's own seed
(:class:`repro.core.rand.RandomStreams`), per phone — so injection is
bit-for-bit reproducible and independent of the simulation's streams.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Optional

from repro.core.errors import ReproError
from repro.core.rand import RandomStreams, Stream, derive_seed
from repro.core.records import BootRecord, wire_time
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import ShardResult, ShardTask
from repro.logger.logfile import LogEntry, serialize_entry
from repro.logger.transfer import TransferBatch, TransferError
from repro.observability.telemetry import current_telemetry
from repro.robustness.plan import FaultPlan

#: Character written over a garbled byte (matches the corruption idiom
#: the analysis test-suite has always used).
GARBLE_CHAR = "#"


@dataclass
class InjectionStats:
    """What the injector actually did, for the robustness report."""

    truncated_entries: int = 0
    garbled_entries: int = 0
    evicted_entries: int = 0
    skewed_entries: int = 0
    failed_attempts: int = 0
    duplicated_batches: int = 0
    withheld_batches: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _shift_entry(entry: LogEntry, offset: float) -> LogEntry:
    """Copy ``entry`` with its device timestamps shifted by ``offset``.

    Raw (already-corrupted) strings pass through; records are copied —
    the originals are shared with the simulator and must not mutate.
    """
    if isinstance(entry, str):
        return entry
    if isinstance(entry, BootRecord):
        return replace(
            entry,
            time=wire_time(entry.time + offset),
            last_beat_time=wire_time(entry.last_beat_time + offset),
        )
    return replace(entry, time=wire_time(entry.time + offset))


class FaultyLink:
    """A transfer link that injects storage- and transfer-layer faults.

    Implements the link protocol :class:`~repro.logger.transfer.
    CollectionServer` expects: ``deliver(batch, receive)`` (raises
    :class:`TransferError` on a failed attempt) and ``flush(receive)``
    (hands over withheld batches at campaign end).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = InjectionStats()
        self._streams = RandomStreams(plan.seed)
        self._skew: Dict[str, float] = {}
        #: Per phone, batches withheld to be delivered after a later
        #: one of the same phone (reorder).  Keyed by phone, so a
        #: release never depends on how phones' syncs interleave.
        self._held: Dict[str, List[TransferBatch]] = {}

    def _record_fault(self, layer: str, kind: str, phone_id: str, count: int = 1) -> None:
        """Mirror one injection into the campaign telemetry.

        Resolved lazily: the link is usually constructed before the
        harness installs its telemetry, and injections are cold next to
        the event loop.  Every injected fault becomes a labeled counter
        increment and (at trace level) a sim-time instant, so drift
        reports can be joined against the faults that caused them.
        """
        tel = current_telemetry()
        if not tel.metrics:
            return
        tel.registry.counter(
            "robustness.faults_injected_total",
            help="injected collection-path faults by layer and kind",
        ).inc(float(count), layer=layer, kind=kind)
        tel.instant(
            f"fault {layer}.{kind}",
            category="robustness",
            track="faults",
            phone=phone_id,
            count=count,
        )

    # -- link protocol ---------------------------------------------------------

    def deliver(
        self, batch: TransferBatch, receive: Callable[[TransferBatch], None]
    ) -> None:
        """One delivery attempt; raises :class:`TransferError` on failure."""
        plan = self.plan
        transfer = self._streams.stream(f"transfer:{batch.phone_id}")
        if plan.sync_failure_rate and transfer.bernoulli(plan.sync_failure_rate):
            self.stats.failed_attempts += 1
            self._record_fault("transfer", "failed_attempt", batch.phone_id)
            raise TransferError(
                f"sync of {batch.phone_id} [{batch.start}:{batch.end}) failed"
            )
        prepared = self._prepare(batch)
        if plan.reorder_batch_rate and transfer.bernoulli(plan.reorder_batch_rate):
            # Withhold: the client gets its ack, but the batch lands
            # only after a later one — the server must reassemble.
            self.stats.withheld_batches += 1
            self._record_fault("transfer", "withheld_batch", batch.phone_id)
            self._held.setdefault(batch.phone_id, []).append(prepared)
            return
        receive(prepared)
        if plan.duplicate_batch_rate and transfer.bernoulli(
            plan.duplicate_batch_rate
        ):
            self.stats.duplicated_batches += 1
            self._record_fault("transfer", "duplicated_batch", batch.phone_id)
            receive(prepared)
        for late in self._held.pop(batch.phone_id, ()):
            receive(late)

    def flush(self, receive: Callable[[TransferBatch], None]) -> None:
        """Deliver every still-withheld batch (campaign teardown), phone
        by phone in the order phones first withheld one."""
        held, self._held = self._held, {}
        for batches in held.values():
            for late in batches:
                receive(late)

    # -- storage layer ---------------------------------------------------------

    def _prepare(self, batch: TransferBatch) -> TransferBatch:
        """What flash actually gives back for this batch.

        Applied once per sync (memoized on the batch) so retry attempts
        re-ship identical bytes, like a real spool file would.
        """
        prepared = getattr(batch, "_prepared", None)
        if prepared is not None:
            return prepared
        plan = self.plan
        phone_id = batch.phone_id
        storage = self._streams.stream(f"storage:{phone_id}")
        offset = self._skew_for(phone_id)
        entries = batch.entries
        if plan.flash_full_rate and len(entries) > 1 and storage.bernoulli(
            plan.flash_full_rate
        ):
            evict = storage.randint(1, max(1, len(entries) // 4))
            self.stats.evicted_entries += evict
            self._record_fault("storage", "evicted_entry", phone_id, evict)
            entries = entries[evict:]
        corrupt_band = plan.storage_truncate_rate + plan.storage_garble_rate
        out: List[LogEntry] = []
        for entry in entries:
            roll = storage.random() if corrupt_band else 1.0
            if roll < plan.storage_truncate_rate:
                line = serialize_entry(entry)
                out.append(line[: storage.randint(3, max(3, len(line) - 1))])
                self.stats.truncated_entries += 1
                self._record_fault("storage", "truncated_entry", phone_id)
            elif roll < corrupt_band:
                line = serialize_entry(entry)
                index = storage.randint(0, max(len(line) - 1, 0))
                out.append(line[:index] + GARBLE_CHAR + line[index + 1 :])
                self.stats.garbled_entries += 1
                self._record_fault("storage", "garbled_entry", phone_id)
            elif offset:
                out.append(_shift_entry(entry, offset))
                self.stats.skewed_entries += 1
            else:
                out.append(entry)
        prepared = TransferBatch(phone_id, batch.start, out)
        batch._prepared = prepared  # type: ignore[attr-defined]
        return prepared

    def _skew_for(self, phone_id: str) -> float:
        offset = self._skew.get(phone_id)
        if offset is None:
            bound = self.plan.clock_skew_max
            offset = (
                self._streams.stream(f"skew:{phone_id}").uniform(-bound, bound)
                if bound
                else 0.0
            )
            self._skew[phone_id] = offset
        return offset


# -- worker layer ---------------------------------------------------------------


class WorkerFaultError(ReproError):
    """An injected campaign-worker crash."""


class FaultyCampaignTask(ShardTask):
    """A sweep-runner shard task that crashes or stalls on schedule.

    Rolls are keyed on ``(plan seed, campaign seed, attempt)``, so a
    campaign that crashes on its first attempt usually succeeds on
    retry — exactly the transient-worker failure the executor's
    self-healing (per-campaign retry + watchdog) is built to absorb.
    Instances are picklable and cross the worker-process boundary.
    """

    #: The executor passes the attempt number to tasks that declare this.
    accepts_attempt = True

    def __init__(self, plan: FaultPlan) -> None:
        # The plan drives the worker faults only: the shard's own
        # collection path stays clean, so a healed run is bit-identical.
        super().__init__()
        self.worker_plan = plan

    def __call__(self, config: CampaignConfig, attempt: int = 0) -> ShardResult:
        plan = self.worker_plan
        stream = Stream(
            derive_seed(plan.seed, f"worker:{config.seed}:{attempt}")
        )
        if plan.worker_crash_rate and stream.bernoulli(plan.worker_crash_rate):
            raise WorkerFaultError(
                f"injected worker crash (seed {config.seed}, attempt {attempt})"
            )
        if plan.worker_hang_rate and stream.bernoulli(plan.worker_hang_rate):
            # A stall, not an infinite hang: long enough to trip any
            # sensible watchdog timeout, short enough for test suites.
            time.sleep(plan.worker_hang_seconds)
        return super().__call__(config)


# -- commit layer ---------------------------------------------------------------


def corrupt_cache_entry(
    cache,
    config: CampaignConfig,
    stream: Stream,
    truncate: bool = False,
) -> bool:
    """Corrupt the file ``cache`` committed for ``config``, if present.

    ``truncate`` chops the JSON mid-document (a torn write); otherwise
    a byte in the middle is garbled.  Returns whether a file existed.
    """
    path = cache.path_for(config)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return False
    if not text:
        return True
    if truncate:
        text = text[: stream.randint(0, max(len(text) - 1, 0))]
    else:
        index = stream.randint(0, len(text) - 1)
        text = text[:index] + GARBLE_CHAR + text[index + 1 :]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return True
