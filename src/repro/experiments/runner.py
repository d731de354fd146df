"""Parallel multi-seed campaign runner with self-healing execution.

Every multi-seed study used to loop :func:`run_campaign` serially at
several seconds per paper-scale run.  :func:`run_campaigns` fans the
runs out over the work-queue executor instead (see
:mod:`repro.experiments.executors`):

* results come back as picklable :class:`CampaignSummary` objects, in
  **deterministic config order** regardless of completion order;
* a failing worker surfaces as :class:`CampaignExecutionError` carrying
  the failing config's seed, position, attempt count, phone range (for
  sharded slices), and the worker's full traceback;
* ``workers=1`` (or an environment where worker processes cannot start
  — sandboxes, restricted interpreters) runs in-process with identical
  results;
* an optional :class:`~repro.experiments.cache.CampaignCache` makes
  repeated sweeps free: cached configs are never dispatched at all,
  and every fresh result is **committed to the cache the moment it
  completes** — a killed sweep resumes from its last completed
  campaign, not from scratch;
* ``retries`` re-runs a failed campaign (transient worker crashes heal
  without losing the sweep), and ``timeout`` arms a watchdog that
  reclaims hung workers instead of blocking the whole sweep — both
  under the executor's one retry policy;
* :func:`run_campaigns_resilient` returns a :class:`SweepManifest` —
  partial results plus a structured failure manifest — instead of
  aborting the entire sweep on one bad campaign.

Determinism holds because each campaign derives every random stream
from its own config's seed — worker scheduling cannot reorder anything
inside a run, and the output list is ordered by input position — so a
healed sweep is bit-for-bit identical to one that never failed (given
a deterministic task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    EXECUTOR_WORKQUEUE,
    CampaignExecutionError,
    WorkQueueExecutor,
    resolve_executor,
)
from repro.experiments.summary import CampaignSummary
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry

__all__ = [
    "CampaignExecutionError",
    "CampaignFailure",
    "SweepManifest",
    "TelemetryTask",
    "run_campaigns",
    "run_campaigns_resilient",
    "summarize_campaign",
]


@dataclass
class CampaignFailure:
    """Manifest entry for one campaign that exhausted its attempts."""

    index: int
    seed: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    #: Executor-observed wall seconds of each attempt, in attempt
    #: order.  A hung worker shows up as an attempt pinned near the
    #: watchdog deadline.
    attempt_wall_seconds: List[float] = field(default_factory=list)
    #: The watchdog deadline armed for this campaign's worker-process
    #: attempts; ``None`` when it ran in-process (never preemptible).
    watchdog_seconds: Optional[float] = None
    #: The fleet slice the config covered (sharded campaigns), so a
    #: failure names exactly which phone range was in flight.
    phone_range: Optional[Tuple[int, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "seed": self.seed,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "attempt_wall_seconds": [
                round(wall, 6) for wall in self.attempt_wall_seconds
            ],
            "watchdog_seconds": self.watchdog_seconds,
            "phone_range": (
                list(self.phone_range) if self.phone_range is not None else None
            ),
        }


@dataclass
class SweepManifest:
    """Partial results of a sweep plus its structured failure manifest.

    ``summaries`` matches the input config order; failed slots hold
    ``None`` and are described in ``failures`` (ordered by index).
    ``recovered`` counts campaigns that failed at least once and then
    succeeded on retry — the self-healing the manifest makes visible.
    """

    summaries: List[Optional[CampaignSummary]]
    failures: List[CampaignFailure] = field(default_factory=list)
    recovered: int = 0

    @property
    def complete(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> List[int]:
        return [failure.index for failure in self.failures]

    def completed_summaries(self) -> List[CampaignSummary]:
        """The summaries that exist, in config order."""
        return [summary for summary in self.summaries if summary is not None]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": len(self.summaries),
            "completed": sum(1 for s in self.summaries if s is not None),
            "recovered": self.recovered,
            "failures": [failure.to_dict() for failure in self.failures],
        }



def summarize_campaign(config: CampaignConfig) -> CampaignSummary:
    """Run one campaign and snapshot it — the unit of worker work.

    Module-level (not a closure) so it pickles across the process
    boundary regardless of start method.
    """
    return CampaignSummary.from_result(run_campaign(config))


class TelemetryTask:
    """A picklable worker task that runs its campaign under telemetry.

    Each invocation installs a fresh :class:`Telemetry` at ``level``
    for the duration of its campaign, so workers never share
    registries; the snapshot rides back to the runner inside the
    summary (plain JSON, no pickling of live telemetry objects), where
    :func:`~repro.observability.metrics.merge_registries` folds the fleet
    back together.
    """

    def __init__(self, level: str = TELEMETRY_METRICS) -> None:
        self.level = level

    def __call__(self, config: CampaignConfig) -> CampaignSummary:
        return CampaignSummary.from_result(
            run_campaign(config, telemetry=Telemetry(self.level))
        )


def run_campaigns(
    configs: Sequence[CampaignConfig],
    workers: int = 1,
    cache: Optional[object] = None,
    task: Callable[[CampaignConfig], CampaignSummary] = summarize_campaign,
    retries: int = 0,
    timeout: Optional[float] = None,
    executor: Union[str, WorkQueueExecutor] = EXECUTOR_WORKQUEUE,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> List[CampaignSummary]:
    """Run many campaigns, fanned out over ``workers`` processes.

    Args:
        configs: the campaigns to run; the result list matches this
            order exactly.
        workers: process count; ``1`` runs in-process.
        cache: an object with ``get(config)``/``put(config, summary)``
            (see :class:`~repro.experiments.cache.CampaignCache`);
            hits skip execution entirely, fresh results are committed
            as soon as they complete.
        task: the per-config work function.  Must be picklable when
            ``workers > 1``.  A task with an ``accepts_attempt``
            attribute is called as ``task(config, attempt=n)``.
        retries: extra attempts per failed campaign (0 = fail fast).
        timeout: per-campaign watchdog in seconds for worker
            processes; a worker that produces no result in time is
            treated as hung and the campaign is retried or reported.
            In-process execution cannot be preempted, so the watchdog
            only arms worker processes.
        executor: ``"workqueue"`` or a configured
            :class:`WorkQueueExecutor` (which then ignores
            ``workers``).
        on_complete: observer called once per campaign as
            ``on_complete(index, summary)`` the moment its result is
            available — cache hits included — in completion order.
            Powers live sweep progress; a raising observer is a bug in
            the caller, not the sweep.

    Raises:
        CampaignExecutionError: when any run fails after its retries;
            ``.seed``, ``.index``, ``.attempts``, ``.phone_range``, and
            ``.traceback`` identify and explain the failing config.
    """
    manifest = _execute(
        configs, workers, cache, task, retries, timeout, executor, on_complete
    )
    if manifest.failures:
        first = manifest.failures[0]
        raise CampaignExecutionError(
            first.index,
            first.seed,
            f"{first.error_type}: {first.message}",
            traceback=first.traceback,
            attempts=first.attempts,
            phone_range=first.phone_range,
        )
    return manifest.summaries  # type: ignore[return-value]


def run_campaigns_resilient(
    configs: Sequence[CampaignConfig],
    workers: int = 1,
    cache: Optional[object] = None,
    task: Callable[[CampaignConfig], CampaignSummary] = summarize_campaign,
    retries: int = 1,
    timeout: Optional[float] = None,
    executor: Union[str, WorkQueueExecutor] = EXECUTOR_WORKQUEUE,
    on_complete: Optional[Callable[[int, CampaignSummary], None]] = None,
) -> SweepManifest:
    """Like :func:`run_campaigns`, but never aborts the sweep.

    Every campaign gets ``1 + retries`` attempts; whatever still fails
    is reported in the returned :class:`SweepManifest` alongside the
    summaries that did complete.  A sweep hit by transient faults
    degrades to partial results with a diagnosis, not an exception.
    """
    return _execute(
        configs, workers, cache, task, retries, timeout, executor, on_complete
    )


def _execute(
    configs: Sequence[CampaignConfig],
    workers: int,
    cache: Optional[object],
    task: Callable[..., CampaignSummary],
    retries: int,
    timeout: Optional[float],
    executor: Union[str, WorkQueueExecutor],
    on_complete: Optional[Callable[[int, CampaignSummary], None]],
) -> SweepManifest:
    backend = resolve_executor(executor, workers)
    configs = list(configs)
    results: List[Optional[CampaignSummary]] = [None] * len(configs)
    pending: List[Tuple[int, CampaignConfig]] = []
    for index, config in enumerate(configs):
        hit = cache.get(config) if cache is not None else None
        if hit is None:
            pending.append((index, config))
            continue
        results[index] = hit
        if on_complete is not None:
            on_complete(index, hit)

    def done(index: int, config: CampaignConfig, summary: CampaignSummary) -> None:
        """Store one completed campaign the moment it lands."""
        results[index] = summary
        if cache is not None:
            cache.put(config, summary)
        if on_complete is not None:
            on_complete(index, summary)

    outcome = backend.run(
        pending, task, retries=retries, timeout=timeout, on_done=done
    )
    failures = [
        CampaignFailure(
            index=index,
            seed=config.seed,
            error_type=info[0],
            message=info[1],
            traceback=info[2],
            attempts=attempts,
            attempt_wall_seconds=outcome.walls.get(index, []),
            watchdog_seconds=outcome.watchdog,
            phone_range=config.fleet.phone_range,
        )
        for index, (config, info, attempts) in sorted(outcome.failed.items())
    ]
    recovered = sum(
        1 for index in outcome.completed if len(outcome.walls[index]) > 1
    )
    return SweepManifest(
        summaries=results, failures=failures, recovered=recovered
    )
