"""Sharded mega-fleet campaigns: one logical campaign, K workers.

A paper-scale campaign (25 phones) fits comfortably in one process; a
mega-fleet study (10k–1M phones) does not — the monolithic pipeline
holds every phone's parsed records in one :class:`Dataset` before
analysing, so memory grows with the whole fleet.  This module splits
one logical campaign into deterministic per-phone-range shards:

* :func:`plan_shards` slices ``[0, phone_count)`` into K contiguous
  ranges (near-even by default, ``weights`` for deliberately skewed
  plans), each expressed as the *same* campaign config with
  ``fleet.phone_range`` set — phone ids, per-phone random streams, and
  enrollment draws are exactly what the monolithic run would produce
  for the same indices (see :meth:`Fleet.build`);
* :class:`ShardTask` is the picklable unit of worker work: simulate
  the slice, ingest its logs, and reduce them to a
  :class:`~repro.analysis.streaming.CampaignAccumulator` — raw records
  never leave the worker, so peak memory is bounded by the largest
  shard, not the fleet;
* :func:`merge_shard_files` folds committed shard files, one at a
  time from disk, into one :class:`CampaignSummary` that is
  **bit-identical** to the summary a monolithic run of the same config
  produces, for *any* tiling of the fleet (the streaming accumulator
  replays the batch pipeline's aggregation orders exactly), keeping the
  parent's peak memory flat in shard count;
* the **committed-shard ledger** — :func:`read_committed_shard` (the
  one validator of a committed file) and :func:`adopt_disjoint` (the
  one rule choosing non-overlapping ranges) — is shared by the resume
  scan, the live fold (:mod:`repro.observability.live`), and the final
  merge;
* :func:`run_sharded_campaign` runs the shards on the work-queue
  executor (:mod:`repro.experiments.executors`), whose workers durably
  commit every shard *before* acknowledging it — which is what makes a
  mega-fleet run resumable: after ``kill -9`` mid-run, a restart
  replans around the committed ranges (:func:`scan_committed_shards`),
  recomputes only the gaps, and produces a bit-identical summary.

Telemetry is part of that contract.  Phones run one at a time, each
with its own transfer tick, so every ``sim.*`` and layer counter is a
sum over phones; the per-shard registries merge canonically into the
registry the monolithic run records, for any tiling.  A multi-seed
sweep is the same machinery: :mod:`repro.experiments.runner` runs each
seed as a one-shard campaign into one run directory.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.bursts import DEFAULT_BURST_GAP
from repro.analysis.ingest import IngestReport
from repro.analysis.shutdowns import SELF_SHUTDOWN_THRESHOLD
from repro.analysis.streaming import CampaignAccumulator
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import simulate_and_ingest
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    EXECUTOR_WORKQUEUE,
    ExecutorStats,
    WorkQueueExecutor,
    resolve_executor,
)
from repro.experiments.summary import SUMMARY_FORMAT_VERSION, CampaignSummary
from repro.observability.metrics import merge_registries
from repro.observability.telemetry import (
    TELEMETRY_METRICS,
    TELEMETRY_OFF,
    Telemetry,
)
from repro.phone.fleet import GROUND_TRUTH_KEYS, accumulate_ground_truth

#: Version stamp of the shard-result wire format (committed files).
#: v2 added ``events_fired`` and hardened the loader.
#: v3 added a live op-log linkage (the heartbeat stream id and its
#: final seq).  Heartbeats now carry cumulative state, so the live fold
#: no longer needs it (see :mod:`repro.observability.live`); the loader
#: ignores those two keys, so files written with them still load and
#: the stamp stays 3.
SHARD_FORMAT_VERSION = 3

_SHARD_KEYS = ("phone_range", "config", "accumulator", "ground_truth", "ingest")


def slice_config(config: CampaignConfig, start: int, stop: int) -> CampaignConfig:
    """The same campaign restricted to global phone indices [start, stop)."""
    from dataclasses import replace

    return replace(
        config, fleet=replace(config.fleet, phone_range=(start, stop))
    )


def plan_shards(
    config: CampaignConfig,
    shards: int,
    weights: Optional[Sequence[float]] = None,
) -> List[CampaignConfig]:
    """Slice one campaign into per-phone-range shard configs.

    Ranges are contiguous and near-even (the first ``phone_count %
    shards`` shards get one extra phone), so the plan is a pure
    function of ``(phone_count, shards)`` — identical plans produce
    identical commit paths run after run.  ``weights`` makes the sizes
    proportional instead (largest-remainder apportionment, every shard
    at least one phone) — the knob benchmarks use to build
    deliberately skewed long-tail plans.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if config.fleet.phone_range is not None:
        raise ValueError(
            f"cannot shard a config that is already a slice "
            f"(phone_range={config.fleet.phone_range!r})"
        )
    count = config.fleet.phone_count
    if shards > count:
        raise ValueError(
            f"cannot split {count} phones into {shards} shards"
        )
    if weights is None:
        base, extra = divmod(count, shards)
        sizes = [base + (1 if index < extra else 0) for index in range(shards)]
    else:
        if len(weights) != shards:
            raise ValueError(
                f"got {len(weights)} weights for {shards} shards"
            )
        if any(w <= 0 for w in weights):
            raise ValueError("shard weights must be positive")
        total = float(sum(weights))
        raw = [count * w / total for w in weights]
        sizes = [int(x) for x in raw]
        order = sorted(
            range(shards), key=lambda i: (-(raw[i] - sizes[i]), i)
        )
        for i in order[: count - sum(sizes)]:
            sizes[i] += 1
        while 0 in sizes:
            big = max(range(shards), key=lambda i: sizes[i])
            sizes[sizes.index(0)] += 1
            sizes[big] -= 1
    configs: List[CampaignConfig] = []
    start = 0
    for size in sizes:
        configs.append(slice_config(config, start, start + size))
        start += size
    return configs


def shard_config_size(config: CampaignConfig) -> int:
    """Phones in a shard config's slice — the work-stealing size metric."""
    start, stop = config.fleet.resolved_range()
    return stop - start


def split_shard_config(
    config: CampaignConfig,
) -> Optional[Tuple[CampaignConfig, CampaignConfig]]:
    """Halve a shard config's phone range (the work-stealing splitter).

    Returns ``None`` when the range is a single phone.  Any tiling of
    ``[0, phone_count)`` merges bit-identically, so splitting is always
    sound — it only changes which worker simulates which phones.
    """
    start, stop = config.fleet.resolved_range()
    if stop - start < 2:
        return None
    mid = (start + stop) // 2
    return slice_config(config, start, mid), slice_config(config, mid, stop)


@dataclass
class ShardResult:
    """One shard's complete output, as plain JSON-native data.

    Everything the merge needs and nothing the worker should keep: the
    streaming accumulator (analysis partials), the per-phone ground
    truth (simulator-side counters in phone-index order), the shard's
    quarantine accounting, the events the shard simulator fired, and
    an optional telemetry snapshot.
    """

    #: Half-open global phone-index range this shard covered.
    phone_range: Tuple[int, int]
    #: The shard's ``CampaignConfig.to_dict()`` (provenance only; the
    #: merged summary carries the *original* unsharded config).
    config: Dict[str, Any]
    accumulator: CampaignAccumulator
    #: Per-phone ground-truth partials, in global phone-index order.
    ground_truth: List[Dict[str, float]]
    ingest: IngestReport = field(default_factory=IngestReport)
    #: ``Telemetry.snapshot()`` of the worker ({} when telemetry off).
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: Simulator events the shard fired (aggregate throughput input).
    events_fired: int = 0
    format_version: int = SHARD_FORMAT_VERSION

    @property
    def phone_count(self) -> int:
        return self.accumulator.phone_count

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native snapshot (the committed-file / wire format)."""
        return {
            "format_version": self.format_version,
            "phone_range": list(self.phone_range),
            "config": self.config,
            "accumulator": self.accumulator.to_dict(),
            "ground_truth": self.ground_truth,
            "ingest": self.ingest.to_dict(),
            "telemetry": self.telemetry,
            "events_fired": self.events_fired,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardResult":
        """Inverse of :meth:`to_dict`, hardened against untrusted bytes.

        Raises :class:`ValueError` on any wire-format violation —
        wrong or missing format version, truncated payload (missing
        keys, ground truth shorter than the phone range), a malformed
        or empty range, a foreign payload — so the resume scan skips
        bad committed files instead of adopting them.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"shard payload is not an object (got {type(data).__name__})"
            )
        version = data.get("format_version")
        if version != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard format version {version!r} "
                f"(expected {SHARD_FORMAT_VERSION})"
            )
        missing = [key for key in _SHARD_KEYS if key not in data]
        if missing:
            raise ValueError(
                f"truncated shard payload: missing {', '.join(missing)}"
            )
        raw_range = data["phone_range"]
        if not isinstance(raw_range, (list, tuple)) or len(raw_range) != 2:
            raise ValueError(f"malformed phone_range {raw_range!r}")
        try:
            start, stop = int(raw_range[0]), int(raw_range[1])
        except (TypeError, ValueError):
            raise ValueError(f"malformed phone_range {raw_range!r}") from None
        if not 0 <= start < stop:
            raise ValueError(
                f"phone_range [{start}, {stop}) must be a non-empty "
                f"slice of [0, fleet)"
            )
        if not isinstance(data["config"], dict):
            raise ValueError("shard config is not an object")
        try:
            accumulator = CampaignAccumulator.from_dict(data["accumulator"])
        except Exception as exc:
            raise ValueError(f"bad shard accumulator: {exc}") from None
        ground_truth = data["ground_truth"]
        if not isinstance(ground_truth, list):
            raise ValueError("shard ground_truth is not a list")
        if len(ground_truth) != stop - start:
            raise ValueError(
                f"truncated shard payload: {len(ground_truth)} ground-truth "
                f"parts for {stop - start} phones"
            )
        for part in ground_truth:
            if not isinstance(part, dict) or any(
                key not in part for key in GROUND_TRUTH_KEYS
            ):
                raise ValueError("malformed ground-truth part")
        if accumulator.phone_count > stop - start:
            raise ValueError(
                f"accumulator covers {accumulator.phone_count} phones but "
                f"the range holds {stop - start}"
            )
        events = data.get("events_fired", 0)
        if not isinstance(events, int) or isinstance(events, bool) or events < 0:
            raise ValueError(f"malformed events_fired {events!r}")
        telemetry = data.get("telemetry", {})
        if not isinstance(telemetry, dict):
            raise ValueError("shard telemetry is not an object")
        try:
            ingest = IngestReport.from_dict(data["ingest"])
        except Exception as exc:
            raise ValueError(f"bad shard ingest report: {exc}") from None
        return cls(
            phone_range=(start, stop),
            config=dict(data["config"]),
            accumulator=accumulator,
            ground_truth=list(ground_truth),
            ingest=ingest,
            telemetry=dict(telemetry),
            events_fired=events,
        )


class ShardTask:
    """Picklable worker task: simulate + ingest + reduce one shard.

    The worker never builds a batch report; it folds each phone's log
    straight into the streaming accumulator, so its memory footprint
    is one shard's records plus constant-size partials.  With
    ``telemetry_level`` set, each invocation installs a fresh
    :class:`Telemetry` (workers never share registries) and the
    snapshot rides home inside the :class:`ShardResult`.
    """

    def __init__(
        self,
        telemetry_level: Optional[str] = None,
        plan: Optional[object] = None,
        live_dir: Optional[str] = None,
    ) -> None:
        self.telemetry_level = telemetry_level
        #: Optional :class:`~repro.robustness.plan.FaultPlan` injected
        #: into the shard's collection path.  Injection streams are
        #: derived per phone from the plan's own seed, so a sharded
        #: faulty campaign reproduces the monolithic one's faults.
        self.plan = plan
        #: When set, the worker heartbeats this shard's progress into
        #: the live op-log directory (one append-only file per worker
        #: process; see :mod:`repro.observability.live`).  A pure
        #: observer — the result is bit-identical either way.
        self.live_dir = live_dir

    def __call__(self, config: CampaignConfig) -> ShardResult:
        tel = Telemetry(
            self.telemetry_level
            if self.telemetry_level is not None
            else TELEMETRY_OFF
        )
        collector = None
        if self.plan is not None and getattr(self.plan, "enabled", False):
            # Imported lazily: robustness depends on experiments, so a
            # module-level import here would be circular.
            from repro.logger.transfer import CollectionServer
            from repro.robustness.injectors import FaultyLink

            collector = CollectionServer(link=FaultyLink(self.plan))
        writer = None
        previous_writer = None
        if self.live_dir is not None:
            from repro.observability.live import (
                install_live_writer,
                worker_writer,
            )

            writer = worker_writer(self.live_dir)
            writer.begin_stream(
                config.fleet.resolved_range(),
                config.fleet.duration,
                registry=tel.registry if tel.metrics else None,
            )
            previous_writer = install_live_writer(writer)
        try:
            result = self._run(config, tel, collector)
        finally:
            if writer is not None:
                from repro.observability.live import install_live_writer

                install_live_writer(previous_writer)
        if writer is not None:
            writer.end_stream(
                phone_range=list(result.phone_range),
                events_fired=result.events_fired,
            )
        return result

    def _run(
        self,
        config: CampaignConfig,
        tel: Telemetry,
        collector: Optional[object],
    ) -> ShardResult:
        fleet, dataset, accumulator, snapshot = simulate_and_ingest(
            config,
            tel,
            collector,
            span="shard",
            stage="reduce",
            analyse=lambda data: CampaignAccumulator.from_dataset(
                data, window=config.coalescence_window
            ),
            hold_gc=False,
            phone_range=list(config.fleet.resolved_range()),
        )
        return ShardResult(
            phone_range=config.fleet.resolved_range(),
            config=config.to_dict(),
            accumulator=accumulator,
            ground_truth=fleet.per_phone_ground_truth(),
            ingest=dataset.ingest_report,
            telemetry=snapshot,
            events_fired=fleet.sim.events_fired,
        )


# -- the committed-shard ledger (resume, live fold, final merge) ---------------


@dataclass(frozen=True)
class CommittedShard:
    """A durably committed shard file: its fleet slice and its path."""

    phone_range: Tuple[int, int]
    path: str


def load_shard_file(path: str) -> ShardResult:
    """Read one committed shard file back from disk.

    Raises :class:`ValueError` (with the path) on anything untrusted:
    unreadable bytes, a foreign or stale entry, a truncated payload.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        if entry.get("format_version") != SUMMARY_FORMAT_VERSION:
            raise ValueError(
                f"commit envelope format {entry.get('format_version')!r}"
            )
        return ShardResult.from_dict(entry["summary"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"unreadable shard file {path!r}: {exc}") from None


def _campaign_identity(config_dict: Dict[str, Any]) -> Dict[str, Any]:
    """A shard config dict with its slice erased — the campaign it serves."""
    identity = dict(config_dict)
    fleet = dict(identity.get("fleet") or {})
    fleet["phone_range"] = None
    identity["fleet"] = fleet
    return identity


def read_committed_shard(path: str, campaign: Dict[str, Any]) -> ShardResult:
    """Load a committed shard file that belongs to ``campaign``.

    ``campaign`` is the unsharded campaign's ``CampaignConfig.to_dict()``.
    The one validator every reader of committed shards goes through:
    raises :class:`ValueError` unless the file loads cleanly, its config
    with the slice erased *is* ``campaign`` (so another campaign's
    shards in the same directory are never adopted), its accumulator
    knobs are the ones :class:`ShardTask` folds that campaign with, its
    declared ``phone_range`` equals the payload's, and the range lies
    inside the fleet.  A rejected range simply stays uncovered and is
    recomputed, so a torn, foreign, or stale entry can never poison a
    result.
    """
    result = load_shard_file(path)
    _check_committed(result, path, campaign)
    return result


def _check_committed(
    result: ShardResult, path: str, campaign: Dict[str, Any]
) -> None:
    """:func:`read_committed_shard`'s checks on an already loaded file."""
    if _campaign_identity(result.config) != campaign:
        raise ValueError(f"shard file {path!r} belongs to another campaign")
    accumulator = result.accumulator
    expected = {
        "end_time": campaign["fleet"].get("duration"),
        "window": campaign.get("coalescence_window"),
        "gap": DEFAULT_BURST_GAP,
        "threshold": SELF_SHUTDOWN_THRESHOLD,
    }
    for knob, value in expected.items():
        if getattr(accumulator, knob) != value:
            raise ValueError(
                f"shard file {path!r} folded with {knob} "
                f"{getattr(accumulator, knob)!r}, not {value!r}"
            )
    declared = (result.config.get("fleet") or {}).get("phone_range")
    if declared != list(result.phone_range):
        raise ValueError(
            f"shard file {path!r} declares {declared!r} but holds "
            f"{result.phone_range!r}"
        )
    if result.phone_range[1] > campaign["fleet"]["phone_count"]:
        raise ValueError(
            f"shard file {path!r} covers {result.phone_range!r}, beyond "
            f"the fleet"
        )


def scan_run_dir(
    directory: str, configs: Sequence[CampaignConfig]
) -> List[List[CommittedShard]]:
    """Every committed shard of each of ``configs`` in ``directory``,
    by range start, in ``configs`` order.

    The directory is listed once and each file parsed once, then
    matched to the campaign its config names, so a sweep's resume scan
    costs one pass over the run directory however many campaigns share
    it.  Each match goes through :func:`read_committed_shard`'s checks
    and anything they reject is skipped.  A campaign's list may hold
    overlapping ranges (interrupted runs with different tilings);
    :func:`adopt_disjoint` picks among them.
    """
    campaigns = [config.to_dict() for config in configs]
    positions: Dict[str, List[int]] = {}
    for index, campaign in enumerate(campaigns):
        positions.setdefault(json.dumps(campaign, sort_keys=True), []).append(
            index
        )
    found: List[List[CommittedShard]] = [[] for _ in campaigns]
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return found
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            result = load_shard_file(path)
        except ValueError:
            continue
        identity = json.dumps(_campaign_identity(result.config), sort_keys=True)
        for index in positions.get(identity, ()):
            try:
                _check_committed(result, path, campaigns[index])
            except ValueError:
                continue
            found[index].append(CommittedShard(result.phone_range, path))
    for shards in found:
        shards.sort(key=lambda c: c.phone_range)
    return found


def scan_committed_shards(
    cache: CampaignCache, config: CampaignConfig
) -> List[CommittedShard]:
    """Every committed shard of ``config`` in ``cache``'s run directory,
    by range start (:func:`scan_run_dir` for one campaign)."""
    return scan_run_dir(cache.directory, [config])[0]


def adopt_disjoint(
    shards: Iterable[CommittedShard],
    taken: Sequence[Tuple[int, int]] = (),
) -> List[CommittedShard]:
    """The one adoption rule for committed ranges.

    Committed ranges may overlap across interrupted runs with different
    tilings (a steal-split half next to the full shard it came from).
    A greedy pass in earliest-start, longest-first order keeps each
    shard that overlaps neither ``taken`` nor an earlier pick, so every
    phone is folded at most once.  Returns the picks by range start.
    """
    ranges = list(taken)
    chosen: List[CommittedShard] = []
    for shard in sorted(
        shards, key=lambda c: (c.phone_range[0], -c.phone_range[1], c.path)
    ):
        start, stop = shard.phone_range
        if any(start < b_stop and b_start < stop for b_start, b_stop in ranges):
            continue
        ranges.append((start, stop))
        chosen.append(shard)
    return chosen


def resume_plan(
    committed: Sequence[CommittedShard], phone_count: int
) -> Tuple[List[CommittedShard], List[Tuple[int, int]]]:
    """Choose reusable committed shards and the gaps left to compute."""
    chosen = adopt_disjoint(committed)
    cursor = 0
    gaps: List[Tuple[int, int]] = []
    for shard in chosen:
        start, stop = shard.phone_range
        if start > cursor:
            gaps.append((cursor, start))
        cursor = stop
    if cursor < phone_count:
        gaps.append((cursor, phone_count))
    return chosen, gaps


def _plan_gap_ranges(
    gaps: Sequence[Tuple[int, int]], target_size: int
) -> List[Tuple[int, int]]:
    """Slice resume gaps into near-even chunks of about ``target_size``."""
    ranges: List[Tuple[int, int]] = []
    for start, stop in gaps:
        size = stop - start
        pieces = max(1, -(-size // max(1, target_size)))
        base, extra = divmod(size, pieces)
        cursor = start
        for index in range(pieces):
            step = base + (1 if index < extra else 0)
            ranges.append((cursor, cursor + step))
            cursor += step
    return ranges


# -- merging --------------------------------------------------------------------


@dataclass
class MegafleetResult:
    """What one sharded campaign produced, beyond the summary itself."""

    summary: CampaignSummary
    #: The shard tiling actually executed (finer than the plan when
    #: work stealing split a long-tailed range), in phone-index order.
    shard_ranges: List[Tuple[int, int]]
    #: Merged quarantine accounting across every shard.
    ingest: IngestReport
    #: Steal / retry / resume / restart tallies for the run (empty for
    #: a bare merge; :func:`run_sharded_campaign` attaches its own).
    stats: ExecutorStats = field(default_factory=ExecutorStats)
    #: Aggregate simulator events fired across every shard.
    events_fired: int = 0

    @property
    def shard_count(self) -> int:
        return len(self.shard_ranges)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "summary": self.summary.to_dict(),
            "shard_ranges": [list(r) for r in self.shard_ranges],
            "ingest": self.ingest.to_dict(),
            "counters": self.stats.to_dict(),
            "events_fired": self.events_fired,
        }


def _merge_stream(
    results: Iterable[ShardResult], config: CampaignConfig
) -> MegafleetResult:
    """Fold shard results — in ascending range order — one at a time.

    The single incremental pass behind every merge: tiling is
    validated as the cursor advances (no gap, no overlap, exact
    coverage of ``[0, phone_count)``), the accumulator merge is a
    left fold (order-independent by construction, see
    :mod:`repro.analysis.streaming`), and the ground-truth float fold
    continues in place so chunked folding is bit-identical to one big
    fold.  Peak memory is the merged accumulator plus **one** shard
    when ``results`` is lazy — never all K — which is what keeps the
    parent flat in shard count.
    """
    expected = 0
    accumulator: Optional[CampaignAccumulator] = None
    ground_truth = {key: 0.0 for key in GROUND_TRUTH_KEYS}
    ingest = IngestReport()
    snapshots: List[Dict[str, Any]] = []
    ranges: List[Tuple[int, int]] = []
    events = 0
    for result in results:
        start, stop = result.phone_range
        if start != expected:
            raise ValueError(
                f"shard ranges do not tile the fleet: expected a shard "
                f"starting at {expected}, got {result.phone_range!r}"
            )
        expected = stop
        ranges.append((start, stop))
        accumulator = (
            result.accumulator
            if accumulator is None
            else accumulator.merge(result.accumulator)
        )
        accumulate_ground_truth(result.ground_truth, into=ground_truth)
        ingest = ingest.merge(result.ingest)
        if result.telemetry:
            snapshots.append(result.telemetry)
        events += result.events_fired
    if accumulator is None:
        raise ValueError("no shard results to merge")
    if expected != config.fleet.phone_count:
        raise ValueError(
            f"shard ranges cover [0, {expected}) but the fleet has "
            f"{config.fleet.phone_count} phones"
        )
    telemetry: Dict[str, Any] = {}
    if snapshots:
        telemetry = {
            "level": TELEMETRY_METRICS,
            "metrics": merge_registries(
                snapshot.get("metrics", {}) for snapshot in snapshots
            ).to_dict(),
            "spans": [],
        }
    summary = CampaignSummary(
        config=config.to_dict(),
        ground_truth=ground_truth,
        sections=accumulator.sections(),
        telemetry=telemetry,
    )
    return MegafleetResult(
        summary=summary,
        shard_ranges=ranges,
        ingest=ingest,
        events_fired=events,
    )


def merge_shard_files(
    shard_files: Sequence[CommittedShard], config: CampaignConfig
) -> MegafleetResult:
    """Streaming (spill-to-disk) merge: fold shard files one at a time.

    Each committed file is read — through the ledger's
    :func:`read_committed_shard`, so a file of another campaign or of
    another range than listed is refused — only when the cursor
    reaches its range, and dropped as soon as it is folded in, so
    parent peak RSS is flat in shard count — the property
    ``BENCH_megafleet.json`` pins across K ∈ {8, 32}.
    """
    campaign = config.to_dict()
    ordered = sorted(shard_files, key=lambda c: c.phone_range)

    def load() -> Iterator[ShardResult]:
        for committed in ordered:
            result = read_committed_shard(committed.path, campaign)
            if result.phone_range != tuple(committed.phone_range):
                raise ValueError(
                    f"shard file {committed.path!r} holds "
                    f"{result.phone_range!r}, not {committed.phone_range!r}"
                )
            yield result

    return _merge_stream(load(), config)


def _announce_campaign(
    live_dir: str,
    config: CampaignConfig,
    shards: int,
    workers: int,
) -> None:
    """Write the campaign-identity record the monitor keys off."""
    from repro.observability.live import OpLogWriter

    writer = OpLogWriter(live_dir, role="campaign")
    try:
        writer.campaign(
            phones=config.fleet.phone_count,
            shards=shards,
            workers=workers,
            seed=config.seed,
            duration=config.fleet.duration,
            config=config.to_dict(),
        )
    finally:
        writer.close()


def run_sharded_campaign(
    config: CampaignConfig,
    shards: int,
    workers: int = 1,
    plan: Optional[object] = None,
    telemetry_level: Optional[str] = None,
    retries: int = 0,
    executor: Union[str, WorkQueueExecutor] = EXECUTOR_WORKQUEUE,
    spill_dir: Optional[str] = None,
    weights: Optional[Sequence[float]] = None,
    live: bool = False,
    progress: Optional[Callable[[object], None]] = None,
) -> MegafleetResult:
    """Run one logical campaign as ``shards`` independent slices.

    The shards run on the work-queue executor (``executor`` is
    ``"workqueue"`` or a configured :class:`WorkQueueExecutor`):
    ``workers`` processes steal from long-tailed ranges, and every
    completed shard is durably committed to the run directory *before*
    it is acknowledged, so ``kill -9`` mid-run loses only in-flight
    shards.  The merge folds the committed files one at a time
    (:func:`merge_shard_files`), so parent peak RSS is flat in shard
    count, and the merged summary is bit-identical to the monolithic
    run, its telemetry registry included (see module docs).

    ``spill_dir`` is the run directory.  Every run on it first scans
    for shards of this campaign already committed there by an earlier
    (possibly killed) run, adopts them as resumed, and computes only
    the uncovered gaps — a restart after a crash converges on the same
    bit-identical summary as an uninterrupted run.  The ledger's
    identity check (:func:`read_committed_shard`) keeps other
    campaigns' files and torn commits out, so any directory is safe and
    a fresh one adopts nothing.  Without ``spill_dir`` a private temp
    dir is used and removed after the merge.

    ``live=True`` turns on the live telemetry plane: workers heartbeat
    into a durable op-log under ``<run-dir>/live/``, the coordinator
    folds it into rolling KPIs (invoking ``progress`` with each
    :class:`~repro.observability.live.LiveSnapshot` and writing a
    ``metrics.prom`` exposition snapshot), and ``repro monitor`` can
    watch the run — or its corpse — from another terminal.  Live mode
    observes intrinsic state only; the merged result is bit-identical
    to a non-live run.
    """
    backend = resolve_executor(executor, workers)
    task_configs = plan_shards(config, shards, weights=weights)
    temp_dir: Optional[str] = None
    if spill_dir is None:
        run_dir = temp_dir = tempfile.mkdtemp(prefix="repro-shards-")
    else:
        run_dir = spill_dir
    try:
        commits = CampaignCache(run_dir)
        committed, gaps = resume_plan(
            scan_committed_shards(commits, config), config.fleet.phone_count
        )
        if committed:
            backend.stats.resumed_shards += len(committed)
            target = -(-config.fleet.phone_count // shards)
            task_configs = [
                slice_config(config, start, stop)
                for start, stop in _plan_gap_ranges(gaps, target)
            ]
        live_dir: Optional[str] = None
        if live:
            from repro.observability.live import live_dir_for

            live_dir = live_dir_for(run_dir)
            _announce_campaign(live_dir, config, shards, backend.workers)
        outcome = backend.run(
            [((0, cfg.fleet.resolved_range()), cfg) for cfg in task_configs],
            ShardTask(
                telemetry_level=telemetry_level, plan=plan, live_dir=live_dir
            ),
            run_dir,
            retries=retries,
            splitter=split_shard_config,
            size_fn=shard_config_size,
            live_dir=live_dir,
            progress=progress,
        )
        failures = outcome.failures()
        if failures:
            raise failures[0].error()
        result = merge_shard_files(
            committed
            + [
                CommittedShard(rng, commits.path_for(cfg))
                for (_campaign, rng), cfg in outcome.completed.items()
            ],
            config,
        )
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    result.stats = backend.stats
    return result
