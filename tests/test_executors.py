"""The work-queue executor: stealing, retries, and crash healing.

:mod:`repro.experiments.executors` promises that *how* campaigns run —
in-process or on work-stealing queue workers — never changes *what*
they produce.  These tests pin executor resolution, the bit-identity of
worker processes against the in-process oracle, dispatch-time work
stealing, failure identity (which phone range was in flight), and the
coordinator's healing when a worker process is killed outright.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.clock import MONTH
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    EXECUTOR_WORKQUEUE,
    CampaignExecutionError,
    ExecutorStats,
    WorkQueueExecutor,
    resolve_executor,
)
from repro.experiments.runner import run_campaigns
from repro.experiments.shard import (
    ShardTask,
    merge_shard_files,
    plan_shards,
    shard_config_size,
    split_shard_config,
)
from repro.experiments.summary import CampaignSummary
from repro.observability.telemetry import (
    TELEMETRY_METRICS,
    TELEMETRY_OFF,
    Telemetry,
)
from repro.phone.fleet import FleetConfig

SEEDS = [7, 8, 9]


def tiny_config(seed: int) -> CampaignConfig:
    return CampaignConfig(
        fleet=FleetConfig(phone_count=3, duration=1.0 * MONTH), seed=seed
    )


def small_campaign(seed: int = 1234, phones: int = 12) -> CampaignConfig:
    fleet = FleetConfig(
        phone_count=phones,
        duration=0.5 * MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.1,
    )
    return CampaignConfig(fleet=fleet, seed=seed)


def canonical(summary: CampaignSummary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def serial_summaries():
    return run_campaigns([tiny_config(seed) for seed in SEEDS], workers=1)


# -- backend resolution ---------------------------------------------------------


def test_executor_spec_resolution():
    queue = resolve_executor(EXECUTOR_WORKQUEUE, 2)
    assert isinstance(queue, WorkQueueExecutor) and queue.workers == 2
    # Instances pass through untouched (caller-configured executors).
    custom = WorkQueueExecutor(2, min_split_phones=4)
    assert resolve_executor(custom, 8) is custom
    for name in ("pool", "serial", "threads", None):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor(name, 4)
    with pytest.raises(ValueError, match="unknown executor"):
        run_campaigns([tiny_config(7)], workers=2, executor="pool")
    with pytest.raises(ValueError, match="workers"):
        WorkQueueExecutor(0)


def test_executor_stats_shape_and_delta_sampling():
    stats = ExecutorStats()
    stats.steals = 3
    stats.task_retries = 2
    assert set(stats.to_dict()) == {
        "executor.steals_total",
        "executor.task_retries_total",
        "executor.resumed_shards_total",
        "executor.worker_restarts_total",
        "executor.watchdog_fires_total",
    }
    tel = Telemetry(TELEMETRY_METRICS)
    stats.sample(tel)
    stats.sample(tel)  # repeated sampling must not double-count
    totals = tel.registry.counter_totals()
    assert totals["executor.steals_total"] == 3.0
    assert totals["executor.task_retries_total"] == 2.0
    # One executor, so the counters carry no backend label.
    assert tel.registry.counter("executor.steals_total").value() == 3.0
    stats.resumed_shards = 5
    stats.sample(tel)
    assert (
        tel.registry.counter_totals()["executor.resumed_shards_total"] == 5.0
    )
    # Telemetry off: sampling is a no-op, the plain ints still serve.
    stats_off = ExecutorStats()
    stats_off.steals = 1
    stats_off.sample(Telemetry(TELEMETRY_OFF))


# -- bit-identity: worker processes vs in-process --------------------------------


def test_workqueue_runner_matches_serial(serial_summaries):
    configs = [tiny_config(seed) for seed in SEEDS]
    summaries = run_campaigns(
        configs, workers=2, executor=EXECUTOR_WORKQUEUE
    )
    assert [canonical(s) for s in summaries] == [
        canonical(s) for s in serial_summaries
    ]


def test_executor_instance_accepted_by_runner(serial_summaries):
    configs = [tiny_config(seed) for seed in SEEDS]
    summaries = run_campaigns(
        configs, workers=1, executor=WorkQueueExecutor(2, steal=False)
    )
    assert [canonical(s) for s in summaries] == [
        canonical(s) for s in serial_summaries
    ]


# -- splitting / stealing -------------------------------------------------------


def test_split_shard_config_halves_and_bottoms_out():
    config = small_campaign(phones=9)
    [whole] = plan_shards(config, 1)
    assert shard_config_size(whole) == 9
    left, right = split_shard_config(whole)
    assert left.fleet.phone_range == (0, 4)
    assert right.fleet.phone_range == (4, 9)
    assert shard_config_size(left) + shard_config_size(right) == 9
    single = left
    while shard_config_size(single) > 1:
        single, _ = split_shard_config(single)
    assert split_shard_config(single) is None


def test_workqueue_steals_from_skewed_plan(tmp_path):
    """A deliberately long-tailed plan gets split at dispatch time, the
    executed tiling is finer than the planned one, and the merged
    summary still matches the monolithic run bit for bit."""
    config = small_campaign(phones=12)
    from repro.experiments.campaign import run_campaign

    mono = CampaignSummary.from_result(run_campaign(config))
    plan = plan_shards(config, 2, weights=[11, 1])
    backend = WorkQueueExecutor(2, min_split_phones=2)
    completed = execute(
        backend,
        plan,
        ShardTask(),
        str(tmp_path),
        splitter=split_shard_config,
        size_fn=shard_config_size,
    )
    assert backend.stats.steals >= 1
    assert len(completed) > len(plan)
    merged = merge_shard_files(
        [
            type(
                "C", (), {"phone_range": rng, "path": _commit_path(tmp_path, cfg)}
            )()
            for rng, cfg in completed
        ],
        config,
    )
    assert json.dumps(merged.summary.to_dict(), sort_keys=True) == canonical(
        mono
    )
    assert merged.events_fired > 0


def _commit_path(tmp_path, config):
    from repro.experiments.cache import CampaignCache

    return CampaignCache(str(tmp_path)).path_for(config)


def execute(backend, plan, task, commit_dir, **options):
    """Run one campaign's shard plan; returns the committed tiling as
    ``(phone_range, config)`` pairs, raising on the first failure."""
    outcome = backend.run(
        [((0, c.fleet.resolved_range()), c) for c in plan],
        task,
        commit_dir,
        **options,
    )
    failures = outcome.failures()
    if failures:
        raise failures[0].error()
    assert all(campaign == 0 for campaign, _rng in outcome.completed)
    return [(rng, cfg) for (_c, rng), cfg in sorted(outcome.completed.items())]


# -- failure identity -----------------------------------------------------------


class ExplodeRange(ShardTask):
    """Fails permanently for one phone range, succeeds elsewhere."""

    def __init__(self, victim_start: int) -> None:
        super().__init__()
        self.victim_start = victim_start

    def __call__(self, config):
        if config.fleet.resolved_range()[0] == self.victim_start:
            raise RuntimeError("shard detonated")
        return super().__call__(config)


def test_workqueue_failure_carries_phone_range(tmp_path):
    config = small_campaign(phones=12)
    plan = plan_shards(config, 3)
    victim = plan[1].fleet.phone_range
    backend = WorkQueueExecutor(2, steal=False)
    with pytest.raises(CampaignExecutionError) as excinfo:
        execute(backend, plan, ExplodeRange(victim[0]), str(tmp_path), retries=1)
    err = excinfo.value
    assert err.phone_range == victim
    assert f"phones [{victim[0]}, {victim[1]})" in str(err)
    assert "shard detonated" in str(err)
    assert backend.stats.task_retries >= 1


# -- worker-death healing -------------------------------------------------------


class MurderousTask(ShardTask):
    """SIGKILLs its own worker process once per victim phone range.

    One flag file per victim makes each murder one-shot: the
    re-dispatched attempt (in a respawned worker) finds the flag and
    completes normally.  Never fires in the parent process, so an
    in-process fallback cannot take the test runner down.
    """

    def __init__(self, victim_starts, flag_path: str, parent_pid: int):
        super().__init__()
        self.victim_starts = set(victim_starts)
        self.flag_path = flag_path
        self.parent_pid = parent_pid

    def __call__(self, config):
        start = config.fleet.resolved_range()[0]
        flag = f"{self.flag_path}.{start}"
        if (
            start in self.victim_starts
            and os.getpid() != self.parent_pid
            and not os.path.exists(flag)
        ):
            with open(flag, "w", encoding="utf-8") as handle:
                handle.write("murdered once\n")
            os.kill(os.getpid(), signal.SIGKILL)
        return super().__call__(config)


def _processes_work() -> bool:
    try:
        proc = multiprocessing.get_context().Process(target=int)
        proc.start()
        proc.join(5)
        return proc.exitcode == 0
    except Exception:
        return False


def test_workqueue_heals_killed_worker(tmp_path):
    """kill -9 of a worker mid-shard: the coordinator detects the death,
    re-dispatches the in-flight shard, respawns a worker, and the run
    completes bit-identically — with the healing visible in stats."""
    if not _processes_work():
        pytest.skip("multiprocessing unavailable in this environment")
    config = small_campaign(phones=12)
    from repro.experiments.campaign import run_campaign

    mono = CampaignSummary.from_result(run_campaign(config))
    plan = plan_shards(config, 4)
    victims = [plan[0].fleet.phone_range[0], plan[1].fleet.phone_range[0]]
    flag = str(tmp_path / "murdered.flag")
    # Both workers die on their first shard, so there are no survivors
    # and healing *must* go through a respawn (with one victim a
    # survivor may soak up the requeued shard and no restart is needed).
    backend = WorkQueueExecutor(2, steal=False)
    completed = execute(
        backend,
        plan,
        MurderousTask(victims, flag, os.getpid()),
        str(tmp_path / "commits"),
        retries=0,
    )
    for start in victims:
        assert os.path.exists(f"{flag}.{start}"), "a murder never happened"
    assert backend.stats.worker_restarts >= 1
    assert backend.stats.task_retries >= 1
    assert sorted(rng for rng, _cfg in completed) == sorted(
        c.fleet.phone_range for c in plan
    )
    from repro.experiments.cache import CampaignCache
    from repro.experiments.shard import CommittedShard

    commits = CampaignCache(str(tmp_path / "commits"))
    merged = merge_shard_files(
        [
            CommittedShard(rng, commits.path_for(cfg))
            for rng, cfg in completed
        ],
        config,
    )
    assert json.dumps(merged.summary.to_dict(), sort_keys=True) == canonical(
        mono
    )


class HangOnce(ShardTask):
    """Sleeps forever for one range until the flag file exists."""

    def __init__(self, victim_start: int, flag_path: str, parent_pid: int):
        super().__init__()
        self.victim_start = victim_start
        self.flag_path = flag_path
        self.parent_pid = parent_pid

    def __call__(self, config):
        if (
            config.fleet.resolved_range()[0] == self.victim_start
            and os.getpid() != self.parent_pid
            and not os.path.exists(self.flag_path)
        ):
            with open(self.flag_path, "w", encoding="utf-8") as handle:
                handle.write("hung once\n")
            time.sleep(600)
        return super().__call__(config)


def test_workqueue_watchdog_reclaims_hung_worker(tmp_path):
    if not _processes_work():
        pytest.skip("multiprocessing unavailable in this environment")
    config = small_campaign(phones=8)
    plan = plan_shards(config, 2)
    victim = plan[1].fleet.phone_range
    flag = str(tmp_path / "hung.flag")
    backend = WorkQueueExecutor(2, steal=False)
    completed = execute(
        backend,
        plan,
        HangOnce(victim[0], flag, os.getpid()),
        str(tmp_path / "commits"),
        retries=1,
        timeout=2.0,
    )
    assert backend.stats.watchdog_fires >= 1
    assert sorted(rng for rng, _cfg in completed) == sorted(
        c.fleet.phone_range for c in plan
    )
