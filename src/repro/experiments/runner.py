"""Multi-seed campaign sweeps: every seed a committed shard campaign.

Every multi-seed study used to loop :func:`run_campaign` serially at
several seconds per paper-scale run.  :func:`run_campaigns` runs each
config as a one-shard campaign of :mod:`repro.experiments.shard`
instead, all on **one** work-queue executor run (see
:mod:`repro.experiments.executors`):

* idle workers take any campaign's pending shard, and a long campaign
  can be split by work stealing like any mega-fleet shard; the task key
  ``(campaign position, phone range)`` keeps every split attached to
  its campaign;
* workers commit each shard to the run directory before acknowledging
  it, and a campaign's summary is :func:`merge_shard_files` of its
  committed ranges — **bit-identical** to
  ``CampaignSummary.from_result(run_campaign(config))``, telemetry
  registry included — returned in **deterministic config order**
  regardless of completion order;
* ``run_dir`` is the run directory: a rerun on it adopts every
  committed shard through the committed-shard ledger (one scan of the
  directory per sweep), so a repeated sweep executes nothing and a
  ``kill -9``-ed one resumes from its last commit.  Without it a
  private temp dir is used and removed afterwards;
* a failing task surfaces as :class:`CampaignExecutionError` carrying
  the failing config's seed, position, attempt count, the phone range
  in flight, and the worker's full traceback;
* ``workers=1`` (or an environment where worker processes cannot start
  — sandboxes, restricted interpreters) runs in-process with identical
  results;
* ``retries`` re-runs a failed shard (transient worker crashes heal
  without losing the sweep), and ``timeout`` arms a watchdog that
  reclaims hung workers instead of blocking the whole sweep — both
  under the executor's one retry policy;
* :func:`run_campaigns_resilient` returns a :class:`SweepManifest` —
  partial results plus a structured failure manifest — instead of
  aborting the entire sweep on one bad campaign.

Determinism holds because each campaign derives every random stream
from its own config's seed and per-phone streams — worker scheduling
and tiling cannot reorder anything inside a run — so a healed or
resumed sweep is bit-for-bit identical to one that never failed
(given a deterministic task).
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.cache import CampaignCache
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    EXECUTOR_WORKQUEUE,
    CampaignExecutionError,
    CampaignFailure,
    TaskKey,
    WorkQueueExecutor,
    resolve_executor,
)
from repro.experiments.shard import (
    CommittedShard,
    ShardTask,
    resume_plan,
    slice_config,
    merge_shard_files,
    scan_run_dir,
    shard_config_size,
    split_shard_config,
)
from repro.experiments.summary import CampaignSummary

__all__ = [
    "CampaignExecutionError",
    "CampaignFailure",
    "SweepManifest",
    "run_campaigns",
    "run_campaigns_resilient",
]


@dataclass
class SweepManifest:
    """Partial results of a sweep plus its structured failure manifest.

    ``summaries`` matches the input config order; failed slots hold
    ``None`` and are described in ``failures`` (ordered by index).
    ``recovered`` counts campaigns that failed at least once and then
    succeeded on retry — the self-healing the manifest makes visible.
    ``resumed`` counts campaigns adopted whole from shards an earlier
    run committed to the run directory (nothing of them executed).
    """

    summaries: List[Optional[CampaignSummary]]
    failures: List[CampaignFailure] = field(default_factory=list)
    recovered: int = 0
    resumed: int = 0

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> List[int]:
        return [failure.index for failure in self.failures]

    def summaries_or_raise(self) -> List[CampaignSummary]:
        """Every summary, in config order; raises the first failure
        as a :class:`CampaignExecutionError` if there is one."""
        if self.failures:
            raise self.failures[0].error()
        return self.summaries  # type: ignore[return-value]

    def completed_summaries(self) -> List[CampaignSummary]:
        """The summaries that exist, in config order."""
        return [summary for summary in self.summaries if summary is not None]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": len(self.summaries),
            "completed": sum(1 for s in self.summaries if s is not None),
            "recovered": self.recovered,
            "resumed": self.resumed,
            "failures": [failure.to_dict() for failure in self.failures],
        }


def run_campaigns(
    configs: Sequence[CampaignConfig],
    workers: int = 1,
    run_dir: Optional[str] = None,
    task: ShardTask = ShardTask(),
    retries: int = 0,
    timeout: Optional[float] = None,
    executor: Union[str, WorkQueueExecutor] = EXECUTOR_WORKQUEUE,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> List[CampaignSummary]:
    """Run many campaigns, fanned out over ``workers`` processes.

    Args:
        configs: the campaigns to run (whole fleets, not slices); the
            result list matches this order exactly.
        workers: process count; ``1`` runs in-process.
        run_dir: the run directory every shard is committed to.  A
            rerun on it adopts what an earlier (possibly killed) run
            committed and executes only the rest.  ``None`` uses a
            private temp dir, removed afterwards.
        task: the per-shard work, a :class:`ShardTask` (e.g.
            ``ShardTask(telemetry_level="metrics")`` to record each
            campaign's metrics registry).  Must be picklable when
            ``workers > 1``.  A task with an ``accepts_attempt``
            attribute is called as ``task(config, attempt=n)``.
        retries: extra attempts per failed shard (0 = fail fast).
        timeout: per-shard watchdog in seconds for worker processes; a
            worker that commits nothing in time is treated as hung and
            the shard is retried or reported.  In-process execution
            cannot be preempted, so the watchdog only arms worker
            processes.
        executor: ``"workqueue"`` or a configured
            :class:`WorkQueueExecutor` (which then ignores
            ``workers``).
        on_complete: observer called once per campaign as
            ``on_complete(index, summary)`` the moment its last range
            commits — resumed campaigns included — in completion order.
            Powers live sweep progress; a raising observer is a bug in
            the caller, not the sweep.

    Raises:
        CampaignExecutionError: when any shard fails after its retries;
            ``.seed``, ``.index``, ``.attempts``, ``.phone_range``, and
            ``.traceback`` identify and explain the failing config.
    """
    return _execute(
        configs, workers, run_dir, task, retries, timeout, executor, on_complete
    ).summaries_or_raise()


def run_campaigns_resilient(
    configs: Sequence[CampaignConfig],
    workers: int = 1,
    run_dir: Optional[str] = None,
    task: ShardTask = ShardTask(),
    retries: int = 1,
    timeout: Optional[float] = None,
    executor: Union[str, WorkQueueExecutor] = EXECUTOR_WORKQUEUE,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> SweepManifest:
    """Like :func:`run_campaigns`, but never aborts the sweep.

    Every shard gets ``1 + retries`` attempts; whatever still fails is
    reported in the returned :class:`SweepManifest` alongside the
    summaries that did complete.  A sweep hit by transient faults
    degrades to partial results with a diagnosis, not an exception.
    """
    return _execute(
        configs, workers, run_dir, task, retries, timeout, executor, on_complete
    )


def _execute(
    configs: Sequence[CampaignConfig],
    workers: int,
    run_dir: Optional[str],
    task: ShardTask,
    retries: int,
    timeout: Optional[float],
    executor: Union[str, WorkQueueExecutor],
    on_complete: Optional[Callable[[int, CampaignSummary], None]],
) -> SweepManifest:
    backend = resolve_executor(executor, workers)
    configs = list(configs)
    for config in configs:
        if config.fleet.phone_range is not None:
            raise ValueError(
                f"cannot sweep a config that is already a slice "
                f"(phone_range={config.fleet.phone_range!r})"
            )
    temp_dir: Optional[str] = None
    if run_dir is None:
        run_dir = temp_dir = tempfile.mkdtemp(prefix="repro-sweep-")
    try:
        commits = CampaignCache(run_dir)
        summaries: List[Optional[CampaignSummary]] = [None] * len(configs)
        shards: List[List[CommittedShard]] = []
        #: Phones of each campaign not yet committed.
        missing: List[int] = []
        items = []
        for index, found in enumerate(scan_run_dir(run_dir, configs)):
            config = configs[index]
            adopted, gaps = resume_plan(found, config.fleet.phone_count)
            backend.stats.resumed_shards += len(adopted)
            shards.append(adopted)
            missing.append(sum(stop - start for start, stop in gaps))
            items += [((index, gap), slice_config(config, *gap)) for gap in gaps]

        def finish(index: int) -> None:
            """Merge a campaign the moment its last range commits."""
            summary = merge_shard_files(shards[index], configs[index]).summary
            summaries[index] = summary
            if on_complete is not None:
                on_complete(index, summary)

        resumed = [index for index, left in enumerate(missing) if not left]
        for index in resumed:
            finish(index)

        def done(key: TaskKey, config: CampaignConfig) -> None:
            index, phone_range = key
            shards[index].append(
                CommittedShard(phone_range, commits.path_for(config))
            )
            missing[index] -= shard_config_size(config)
            if not missing[index]:
                finish(index)

        outcome = backend.run(
            items,
            task,
            run_dir,
            retries=retries,
            timeout=timeout,
            on_done=done,
            splitter=split_shard_config,
            size_fn=shard_config_size,
        )
    finally:
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    retried = {key[0] for key, walls in outcome.walls.items() if len(walls) > 1}
    return SweepManifest(
        summaries=summaries,
        failures=outcome.failures(),
        recovered=sum(1 for index in retried if summaries[index] is not None),
        resumed=len(resumed),
    )
