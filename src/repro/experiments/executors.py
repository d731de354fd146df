"""The campaign executor: one coordinator-scheduled work queue.

Every multi-campaign run — a seed sweep through
:func:`~repro.experiments.runner.run_campaigns` or the shards of one
sharded campaign through
:func:`~repro.experiments.shard.run_sharded_campaign` — executes on a
:class:`WorkQueueExecutor`: N long-lived worker processes pulling tasks
from a coordinator-managed queue.

* **Dynamic balance.**  A worker that finishes early just pulls the
  next task, so an uneven plan never pins wall time to the unluckiest
  static assignment.
* **Work stealing.**  For sharded campaigns the coordinator halves the
  largest pending phone range at dispatch time (split via
  ``FleetConfig.phone_range``) until it fits the current fair share,
  so one long-tailed shard ends as several chunks spread over idle
  workers.
* **One retry/watchdog policy.**  The coordinator owns every retry.  A
  task gets ``1 + retries`` attempts against its own failures (an
  exception, or a hang reclaimed by the per-task watchdog); a worker
  that dies mid-task (``kill -9``, OOM) is detected by liveness polling,
  respawned, and its task re-dispatched at least once, so a single kill
  never takes a run down.  Each dispatch carries its attempt number.
* **Durable commit.**  With a ``commit_dir``, workers commit each
  result to a :class:`~repro.experiments.cache.CampaignCache` (atomic
  temp file + rename) *before* acknowledging it — the property that
  makes mega-fleet runs resumable after ``kill -9`` of the whole
  process tree — and only a tiny acknowledgement crosses the queue,
  keeping the parent's memory flat in shard count.
* **In-process path.**  With ``workers == 1``, or where worker
  processes cannot start (sandboxes, restricted interpreters), the same
  tasks run in the calling process with the same retry and commit
  semantics; only the watchdog is off, since an in-process attempt
  cannot be preempted.

Counters: every steal, task retry, worker restart, and watchdog fire is
tallied in an :class:`ExecutorStats` (always, so reports and benchmarks
can quote them with telemetry off) and mirrored into the ambient
:class:`~repro.observability.telemetry.Telemetry` registry as labeled
counters (``executor.steals_total`` etc.) when metrics are enabled.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.cache import CampaignCache
from repro.experiments.config import CampaignConfig
from repro.observability.telemetry import Telemetry, current_telemetry

EXECUTOR_WORKQUEUE = "workqueue"

#: Never steal below this many phones: a split that produces slivers
#: costs more in per-shard overhead than it recovers in balance.
DEFAULT_MIN_SPLIT_PHONES = 32

#: Dispatch-time split target: chunks aim for
#: ``remaining / (workers * oversubscribe)`` phones, so the tail of the
#: run always has a few chunks per worker to balance over.
DEFAULT_OVERSUBSCRIBE = 4

#: Coordinator poll interval (seconds) while waiting for worker acks;
#: bounds how quickly dead workers and watchdog deadlines are noticed.
DEFAULT_POLL_INTERVAL = 0.05


class CampaignExecutionError(RuntimeError):
    """A campaign run failed; carries which config it was and why.

    ``traceback`` holds the worker-side traceback text (including the
    remote traceback when the failure crossed a process boundary) and
    ``attempts`` how many tries the executor made, so a failed sweep
    member is diagnosable without re-running it.  ``phone_range`` pins
    the exact fleet slice that was in flight when a sharded run took
    the campaign down.
    """

    def __init__(
        self,
        index: int,
        seed: int,
        cause: str,
        traceback: str = "",
        attempts: int = 1,
        phone_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        where = f"campaign #{index} (seed {seed}"
        if phone_range is not None:
            where += f", phones [{phone_range[0]}, {phone_range[1]})"
        super().__init__(
            f"{where}) failed after "
            f"{attempts} attempt{'s' if attempts != 1 else ''}: {cause}"
        )
        self.index = index
        self.seed = seed
        self.cause = cause
        self.traceback = traceback
        self.attempts = attempts
        self.phone_range = phone_range


#: (error type name, message, formatted traceback) for one failed attempt.
FailureInfo = Tuple[str, str, str]


def format_failure(exc: BaseException) -> FailureInfo:
    text = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    return type(exc).__name__, str(exc), text


@dataclass
class ExecutorStats:
    """Plain-integer tallies of one executor run.

    Kept outside the telemetry registry so reports and benchmark
    snapshots can always quote them — telemetry defaults to off — and
    mirrored into labeled counters via :meth:`sample` when metrics are
    enabled.
    """

    backend: str = EXECUTOR_WORKQUEUE
    #: Dispatch-time splits of the largest pending phone range — each
    #: one is an idle worker stealing half of a long-tailed shard.
    steals: int = 0
    #: Tasks re-dispatched after a failure, worker death, or hang.
    task_retries: int = 0
    #: Committed shards skipped at (re)planning time — the resume path.
    resumed_shards: int = 0
    #: Dead or hung workers replaced with a fresh process.
    worker_restarts: int = 0
    #: Hung tasks reclaimed by the per-task watchdog.
    watchdog_fires: int = 0
    #: Values already mirrored into the registry — :meth:`sample` incs
    #: only the delta, so repeated sampling never double-counts.
    _mirrored: Dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "executor.steals_total": self.steals,
            "executor.task_retries_total": self.task_retries,
            "executor.resumed_shards_total": self.resumed_shards,
            "executor.worker_restarts_total": self.worker_restarts,
            "executor.watchdog_fires_total": self.watchdog_fires,
        }

    def sample(self, tel: Telemetry) -> None:
        """Mirror the tallies into labeled registry counters.

        Only the delta since the last mirror is added, so sampling at
        every layer boundary (executor, sharded campaign) is safe — the
        counters converge on the plain-integer tallies.
        """
        if not tel.metrics:
            return
        for name, help_text, value in (
            ("executor.steals_total", "phone ranges split for idle workers", self.steals),
            ("executor.task_retries_total", "tasks re-dispatched after failure", self.task_retries),
            ("executor.resumed_shards_total", "committed shards skipped at replan", self.resumed_shards),
            ("executor.worker_restarts_total", "workers replaced after death or hang", self.worker_restarts),
            ("executor.watchdog_fires_total", "hung tasks reclaimed by the watchdog", self.watchdog_fires),
        ):
            delta = value - self._mirrored.get(name, 0)
            if delta:
                tel.registry.counter(name, help=help_text).inc(
                    float(delta), backend=self.backend
                )
                self._mirrored[name] = value


def _attempt(
    task: Callable[..., Any],
    config: CampaignConfig,
    attempt: int,
    cache: Optional[CampaignCache],
) -> Any:
    """Run one attempt; with ``cache`` commit the result, return ``None``.

    A task that declares ``accepts_attempt`` is called as
    ``task(config, attempt=n)`` with the 0-based attempt number.
    """
    if getattr(task, "accepts_attempt", False):
        result = task(config, attempt=attempt)
    else:
        result = task(config)
    if cache is None:
        return result
    cache.put(config, result)
    return None


def _worker_main(wid, task, commit_dir, inbox, outbox):
    """Worker loop: pull a task, run it, (commit), acknowledge.

    With ``commit_dir`` the result is durably written to the cache
    *before* the acknowledgement is sent — the coordinator never learns
    of a shard that is not already safe on disk — and never crosses the
    queue.  Module-level so it pickles under any start method.
    """
    cache = CampaignCache(commit_dir) if commit_dir is not None else None
    outbox.put(("ready", wid, None, None))
    while True:
        message = inbox.get()
        if message[0] == "stop":
            return
        _kind, task_id, config, attempt = message
        try:
            result = _attempt(task, config, attempt, cache)
        except Exception as exc:
            outbox.put(("error", wid, task_id, format_failure(exc)))
        else:
            outbox.put(("done", wid, task_id, result))


class _QueueStartupError(RuntimeError):
    """Worker processes could not start; run in-process instead."""


@dataclass
class _InFlight:
    key: Any
    config: CampaignConfig
    started_at: float


@dataclass
class RunOutcome:
    """What one executor run produced, keyed by task key."""

    #: Completed tasks' configs (a stolen split is its own key).
    completed: Dict[Any, CampaignConfig] = field(default_factory=dict)
    #: ``(config, failure, attempts)`` for tasks out of attempts.
    failed: Dict[Any, Tuple[CampaignConfig, FailureInfo, int]] = field(
        default_factory=dict
    )
    #: Wall seconds of every attempt, in attempt order.
    walls: Dict[Any, List[float]] = field(default_factory=dict)
    #: The per-task watchdog deadline armed for worker-process attempts;
    #: ``None`` when tasks ran in-process (nothing can preempt them).
    watchdog: Optional[float] = None


#: Splits one task config into two halves, or ``None`` when it cannot.
Splitter = Callable[
    [CampaignConfig], Optional[Tuple[CampaignConfig, CampaignConfig]]
]


class WorkQueueExecutor:
    """Coordinator-scheduled worker processes with work stealing.

    The coordinator owns the pending task list and dispatches one task
    per idle worker; workers acknowledge over a shared upstream queue.
    See the module docstring for balance, stealing, the retry policy,
    durable commits, and the in-process path.
    """

    name = EXECUTOR_WORKQUEUE

    def __init__(
        self,
        workers: int = 4,
        steal: bool = True,
        min_split_phones: int = DEFAULT_MIN_SPLIT_PHONES,
        oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        worker_restarts: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.stats = ExecutorStats(backend=self.name)
        self.steal = steal
        self.min_split_phones = max(1, min_split_phones)
        self.oversubscribe = max(1, oversubscribe)
        self.poll_interval = poll_interval
        #: Total worker respawns allowed per run (dead or hung workers).
        self.worker_restarts = (
            worker_restarts if worker_restarts is not None else 2 * workers
        )

    def run(
        self,
        items: Sequence[Tuple[Any, CampaignConfig]],
        task: Callable[..., Any],
        retries: int = 0,
        timeout: Optional[float] = None,
        commit_dir: Optional[str] = None,
        on_done: Optional[Callable[[Any, CampaignConfig, Any], None]] = None,
        splitter: Optional[Splitter] = None,
        size_fn: Optional[Callable[[CampaignConfig], int]] = None,
        live_dir: Optional[str] = None,
        progress: Optional[Callable[[Any], None]] = None,
    ) -> RunOutcome:
        """Run ``(key, config)`` tasks to completion or exhaustion.

        Never raises for per-task failures — those land in
        :attr:`RunOutcome.failed`.  ``on_done(key, config, payload)``
        fires the moment each task completes (``payload`` is ``None``
        when ``commit_dir`` committed it).  ``timeout`` arms the
        per-task watchdog for worker-process attempts.  ``splitter``
        and ``size_fn`` enable work stealing (when :attr:`steal`).

        With ``live_dir`` set, the coordinator heartbeats executor
        state into the op-log and periodically folds the whole log
        into a rolling :class:`~repro.observability.live.LiveSnapshot`
        (writing ``metrics.prom`` and invoking ``progress``), with one
        final fold when the run ends.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        tel = current_telemetry()
        live = None
        if live_dir is not None:
            from repro.observability.live import LiveCoordinator

            live = LiveCoordinator(live_dir, stats=self.stats, progress=progress)
        try:
            with tel.span(
                "executor.run",
                category="executor",
                track="executor",
                workers=self.workers,
                tasks=len(items),
            ):
                outcome = None
                if self.workers > 1 and items:
                    try:
                        outcome = self._run_workers(
                            list(items), task, retries, timeout, commit_dir,
                            on_done, splitter if self.steal else None,
                            size_fn, live, tel,
                        )
                    except _QueueStartupError:
                        pass
                if outcome is None:
                    outcome = self._run_inline(
                        items, task, retries, commit_dir, on_done, live
                    )
        finally:
            if live is not None:
                try:
                    live.tick(force=True)
                finally:
                    live.close()
        self.stats.sample(tel)
        return outcome

    def execute_shards(
        self,
        items: Sequence[Tuple[Tuple[int, int], CampaignConfig]],
        task: Callable[..., Any],
        commit_dir: str,
        retries: int = 0,
        timeout: Optional[float] = None,
        splitter: Optional[Splitter] = None,
        size_fn: Optional[Callable[[CampaignConfig], int]] = None,
        live_dir: Optional[str] = None,
        progress: Optional[Callable[[Any], None]] = None,
    ) -> List[Tuple[Tuple[int, int], CampaignConfig]]:
        """Run shard tasks to durable completion; returns the tiling.

        Every returned ``(phone_range, config)`` pair has its result
        committed in ``commit_dir`` (commit-before-acknowledge).  The
        returned ranges may be *finer* than the submitted ones when
        stealing split a long-tailed shard.  Raises
        :class:`CampaignExecutionError` (with the offending
        ``phone_range``) when a task exhausts its attempts.
        """
        outcome = self.run(
            items,
            task,
            retries=retries,
            timeout=timeout,
            commit_dir=commit_dir,
            splitter=splitter,
            size_fn=size_fn,
            live_dir=live_dir,
            progress=progress,
        )
        if outcome.failed:
            config, info, attempts = outcome.failed[min(outcome.failed)]
            raise CampaignExecutionError(
                index=-1,
                seed=config.seed,
                cause=f"{info[0]}: {info[1]}",
                traceback=info[2],
                attempts=attempts,
                phone_range=config.fleet.phone_range,
            )
        return [(key, outcome.completed[key]) for key in sorted(outcome.completed)]

    # -- in-process path -------------------------------------------------

    def _run_inline(
        self,
        items: Sequence[Tuple[Any, CampaignConfig]],
        task: Callable[..., Any],
        retries: int,
        commit_dir: Optional[str],
        on_done: Optional[Callable[[Any, CampaignConfig, Any], None]],
        live: Optional[Any],
    ) -> RunOutcome:
        """Every task in the calling process, retried in place."""
        cache = CampaignCache(commit_dir) if commit_dir is not None else None
        outcome = RunOutcome()
        for position, (key, config) in enumerate(items):
            if live is not None:
                live.tick(pending=len(items) - position - 1, inflight=1, workers=1)
            walls = outcome.walls.setdefault(key, [])
            for attempt in range(retries + 1):
                start = perf_counter()
                try:
                    payload = _attempt(task, config, attempt, cache)
                except Exception as exc:
                    walls.append(perf_counter() - start)
                    if attempt < retries:
                        self.stats.task_retries += 1
                        continue
                    outcome.failed[key] = (config, format_failure(exc), attempt + 1)
                else:
                    walls.append(perf_counter() - start)
                    outcome.completed[key] = config
                    if on_done is not None:
                        on_done(key, config, payload)
                break
        return outcome

    # -- the coordinator ------------------------------------------------

    def _run_workers(
        self,
        items: List[Tuple[Any, CampaignConfig]],
        task: Callable[..., Any],
        retries: int,
        timeout: Optional[float],
        commit_dir: Optional[str],
        on_done: Optional[Callable[[Any, CampaignConfig, Any], None]],
        splitter: Optional[Splitter],
        size_fn: Optional[Callable[[CampaignConfig], int]],
        live: Optional[Any],
        tel: Telemetry,
    ) -> RunOutcome:
        import multiprocessing
        from queue import Empty

        context = multiprocessing.get_context()
        outcome = RunOutcome(watchdog=timeout)
        pending: List[Tuple[Any, CampaignConfig]] = list(items)
        inboxes: Dict[int, Any] = {}
        processes: Dict[int, Any] = {}

        def spawn(wid: int) -> None:
            inboxes[wid] = context.Queue()
            proc = context.Process(
                target=_worker_main,
                args=(wid, task, commit_dir, inboxes[wid], outbox),
                daemon=True,
            )
            proc.start()
            processes[wid] = proc

        worker_count = min(self.workers, len(pending))
        try:
            outbox = context.Queue()
            for wid in range(worker_count):
                spawn(wid)
        except Exception:
            for proc in processes.values():
                proc.kill()
            raise _QueueStartupError("worker processes could not start")

        inflight: Dict[int, _InFlight] = {}
        idle: List[int] = []
        #: Dispatches so far per key — the next attempt number.
        dispatches: Dict[Any, int] = {}
        #: Failed attempts per key that count against ``retries``.
        failures: Dict[Any, int] = {}
        #: Worker deaths per key, each allowed at least one re-dispatch.
        deaths: Dict[Any, int] = {}
        restarts_left = self.worker_restarts
        next_wid = worker_count

        def dispatch(wid: int) -> None:
            if size_fn is not None:
                best = max(
                    range(len(pending)), key=lambda i: size_fn(pending[i][1])
                )
            else:
                best = 0
            key, config = pending.pop(best)
            if splitter is not None and size_fn is not None and key not in dispatches:
                remaining = size_fn(config) + sum(
                    size_fn(c) for _k, c in pending
                ) + sum(size_fn(f.config) for f in inflight.values())
                target = max(
                    self.min_split_phones,
                    -(-remaining // (max(1, len(processes)) * self.oversubscribe)),
                )
                while (
                    size_fn(config) > target
                    and size_fn(config) >= 2 * self.min_split_phones
                ):
                    halves = splitter(config)
                    if halves is None:
                        break
                    config, other = halves
                    key = config.fleet.phone_range
                    pending.append((other.fleet.phone_range, other))
                    self.stats.steals += 1
                    tel.instant(
                        "steal split",
                        category="executor",
                        track="executor",
                        key=str(key),
                        stolen=str(other.fleet.phone_range),
                    )
            attempt = dispatches.get(key, 0)
            dispatches[key] = attempt + 1
            inboxes[wid].put(("task", key, config, attempt))
            inflight[wid] = _InFlight(key, config, perf_counter())

        def requeue(wid: int, reason: str, info: FailureInfo) -> None:
            """A worker lost its task; retry it or record the failure."""
            flight = inflight.pop(wid)
            outcome.walls.setdefault(flight.key, []).append(
                perf_counter() - flight.started_at
            )
            tel.instant(
                "task requeue",
                category="executor",
                track="executor",
                key=str(flight.key),
                reason=reason,
            )
            if reason == "died":
                deaths[flight.key] = deaths.get(flight.key, 0) + 1
                retry = deaths[flight.key] <= max(1, retries)
            else:
                failures[flight.key] = failures.get(flight.key, 0) + 1
                retry = failures[flight.key] <= retries
            if retry:
                self.stats.task_retries += 1
                pending.append((flight.key, flight.config))
            else:
                outcome.failed[flight.key] = (
                    flight.config, info, dispatches[flight.key]
                )

        def respawn(dead_wid: int) -> None:
            nonlocal restarts_left, next_wid
            processes.pop(dead_wid, None)
            inboxes.pop(dead_wid, None)
            if restarts_left <= 0 or not (pending or inflight):
                return
            if processes and len(processes) >= len(pending) + len(inflight):
                return  # plenty of survivors for the remaining work
            restarts_left -= 1
            self.stats.worker_restarts += 1
            tel.instant(
                "worker respawn",
                category="executor",
                track="executor",
                dead=dead_wid,
            )
            wid = next_wid
            next_wid += 1
            try:
                spawn(wid)
            except Exception:
                inboxes.pop(wid, None)

        try:
            while pending or inflight:
                if not processes:
                    # Every worker is gone and nothing can respawn:
                    # surface whatever was still queued as failures.
                    for key, config in pending:
                        outcome.failed.setdefault(
                            key,
                            (
                                config,
                                (
                                    "WorkerDied",
                                    "all workers died and the restart "
                                    "budget is exhausted",
                                    "",
                                ),
                                dispatches.get(key, 0),
                            ),
                        )
                    pending.clear()
                    break
                while idle and pending:
                    dispatch(idle.pop())
                if live is not None:
                    live.tick(
                        pending=len(pending),
                        inflight=len(inflight),
                        workers=len(processes),
                    )
                try:
                    kind, wid, _task_id, payload = outbox.get(
                        timeout=self.poll_interval
                    )
                except Empty:
                    now = perf_counter()
                    for wid in list(inflight):
                        proc = processes.get(wid)
                        flight = inflight[wid]
                        if proc is None or not proc.is_alive():
                            requeue(
                                wid,
                                "died",
                                (
                                    "WorkerDied",
                                    f"worker exited mid-task (phones "
                                    f"{flight.key!r})",
                                    "",
                                ),
                            )
                            respawn(wid)
                        elif (
                            timeout is not None
                            and now - flight.started_at > timeout
                        ):
                            self.stats.watchdog_fires += 1
                            tel.instant(
                                "watchdog fire",
                                category="executor",
                                track="executor",
                                key=str(flight.key),
                            )
                            proc.kill()
                            proc.join(timeout=1.0)
                            requeue(
                                wid,
                                "timeout",
                                (
                                    "WorkerTimeout",
                                    f"no result within {timeout}s "
                                    f"(hung worker)",
                                    "",
                                ),
                            )
                            respawn(wid)
                    for wid in [w for w in idle if not processes.get(w) or not processes[w].is_alive()]:
                        idle.remove(wid)
                        respawn(wid)
                    continue
                if wid not in processes:
                    continue  # a reclaimed worker's late message
                if kind == "done":
                    flight = inflight.pop(wid)
                    outcome.walls.setdefault(flight.key, []).append(
                        perf_counter() - flight.started_at
                    )
                    outcome.completed[flight.key] = flight.config
                    if on_done is not None:
                        on_done(flight.key, flight.config, payload)
                elif kind == "error":
                    requeue(wid, "error", payload)
                if pending:
                    dispatch(wid)
                else:
                    idle.append(wid)
        finally:
            for wid in processes:
                try:
                    inboxes[wid].put(("stop",))
                except Exception:
                    pass
            for proc in processes.values():
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
        return outcome


def resolve_executor(
    executor: Union[str, WorkQueueExecutor], workers: int
) -> WorkQueueExecutor:
    """An ``executor=`` argument as an executor: an instance is used as
    given (``workers`` is then ignored), the name ``"workqueue"`` builds
    one with ``workers`` workers, and any other name is rejected."""
    if isinstance(executor, WorkQueueExecutor):
        return executor
    if executor != EXECUTOR_WORKQUEUE:
        raise ValueError(
            f"unknown executor {executor!r}; the only backend is "
            f"{EXECUTOR_WORKQUEUE!r}"
        )
    return WorkQueueExecutor(workers)
