"""Differential oracle: sharded campaigns reproduce the monolithic run.

The whole point of :mod:`repro.experiments.shard` is that splitting one
campaign into K per-phone-range shards changes *nothing* about the
result — not one bit of the :class:`CampaignSummary`.  These tests pin
that contract against a monolithic baseline for K ∈ {1, 3, 7, 25},
on worker processes, resumed from a run directory, and with collection-path
fault injection enabled.  (Text ingest of a shard equals record ingest
at the dataset level; ``test_pipeline_equivalence.py`` pins that.)
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis.streaming import STREAMING_FORMAT_VERSION
from repro.core.clock import MONTH
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import WorkQueueExecutor
from repro.experiments.shard import (
    CommittedShard,
    ShardResult,
    ShardTask,
    merge_shard_files,
    plan_shards,
    run_sharded_campaign,
)
from repro.experiments.summary import CampaignSummary, headline_figures
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry
from repro.phone.fleet import FleetConfig
from repro.robustness.experiment import run_faulty_campaign
from repro.robustness.plan import FaultPlan
from tests.helpers import reseal_commit


def make_config(seed: int = 4242) -> CampaignConfig:
    """The oracle campaign: 25 phones, 1 month, early enrollment."""
    fleet = FleetConfig(
        phone_count=25,
        duration=MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.15,
    )
    return CampaignConfig(fleet=fleet, seed=seed)


def canonical(summary_dict: dict) -> str:
    return json.dumps(summary_dict, sort_keys=True)


@pytest.fixture(scope="module")
def config() -> CampaignConfig:
    return make_config()


@pytest.fixture(scope="module")
def monolithic_result(config):
    """The batch-pipeline run, computed once for the module."""
    return run_campaign(config)


@pytest.fixture(scope="module")
def monolithic(monolithic_result) -> CampaignSummary:
    """The batch-pipeline baseline summary."""
    return CampaignSummary.from_result(monolithic_result)


@pytest.fixture(scope="module")
def monolithic_metrics(config) -> CampaignSummary:
    """The baseline recorded at metrics level (its registry rides in the
    summary's telemetry)."""
    return CampaignSummary.from_result(
        run_campaign(config, telemetry=Telemetry(TELEMETRY_METRICS))
    )


@pytest.mark.parametrize(
    "shards,telemetry_level",
    [pytest.param(k, None, id=f"K={k}") for k in (1, 3, 7, 25)]
    + [
        pytest.param(k, TELEMETRY_METRICS, id=f"K={k}-metrics")
        for k in (1, 3, 7)
    ],
)
def test_sharded_summary_is_bit_identical(
    shards, telemetry_level, config, monolithic, request
):
    """Any tiling reproduces the monolithic summary — with metrics on,
    the merged per-shard registries included, since every counter is
    a sum over phones."""
    if telemetry_level is not None:
        monolithic = request.getfixturevalue("monolithic_metrics")
        assert monolithic.telemetry["metrics"]
    result = run_sharded_campaign(
        config, shards=shards, telemetry_level=telemetry_level
    )
    assert canonical(result.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
    assert headline_figures(result.summary.sections) == headline_figures(
        monolithic.sections
    )
    assert result.shard_count == shards
    starts = [start for start, _stop in result.shard_ranges]
    assert starts == sorted(starts)


@pytest.mark.parametrize("shards", [1, 3, 7], ids=lambda k: f"K={k}")
def test_sharded_extended_report_is_byte_identical(
    shards, config, monolithic_result
):
    """The extension sections (downtime, reliability, variability,
    trends) read only the per-phone partials, so the merged report of
    any tiling renders the monolithic ``--extended`` text byte for
    byte."""
    result = run_sharded_campaign(config, shards=shards)
    report = result.report
    assert report.accumulator == monolithic_result.report.accumulator
    assert report.to_dict() == result.summary.sections
    assert report.render_extended() == (
        monolithic_result.report.render_extended()
    )


def test_worker_process_shards_match_monolithic(config, monolithic):
    result = run_sharded_campaign(config, shards=4, workers=2)
    assert canonical(result.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )


def test_faulty_campaign_shards_match_monolithic(config):
    """Fault injection is per-phone-seeded, so it shards bit-for-bit:
    same summary, same quarantine accounting."""
    plan = FaultPlan.mild(seed=777)
    outcome = run_faulty_campaign(config, plan)
    result = run_sharded_campaign(config, shards=5, plan=plan)
    assert canonical(result.summary.to_dict()) == canonical(
        outcome.summary.to_dict()
    )
    assert result.ingest.quarantined == outcome.ingest["quarantined"]
    assert result.ingest.to_dict()["by_class"] == outcome.ingest["by_class"]
    assert result.ingest.to_dict()["by_phone"] == outcome.ingest["by_phone"]


def test_spill_dir_rerun_resumes_every_shard(
    tmp_path, monkeypatch, config, monolithic
):
    """A second run on the same run directory adopts every committed
    shard, executes no task, and is still bit-identical."""
    first = run_sharded_campaign(config, shards=3, spill_dir=str(tmp_path))
    assert first.stats.resumed_shards == 0

    def no_task(self, shard_config):
        raise AssertionError(f"executed {shard_config.fleet.phone_range}")

    monkeypatch.setattr(ShardTask, "__call__", no_task)
    second = run_sharded_campaign(config, shards=3, spill_dir=str(tmp_path))
    assert second.stats.resumed_shards == 3
    assert second.shard_ranges == first.shard_ranges
    assert canonical(second.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
    assert canonical(first.summary.to_dict()) == canonical(
        second.summary.to_dict()
    )


def test_plan_shards_tiles_exactly(config):
    for shards in (1, 2, 3, 7, 24, 25):
        configs = plan_shards(config, shards)
        assert len(configs) == shards
        expected = 0
        for shard_config in configs:
            start, stop = shard_config.fleet.phone_range
            assert start == expected
            assert stop > start
            expected = stop
        assert expected == config.fleet.phone_count
        sizes = [
            stop - start
            for start, stop in (c.fleet.phone_range for c in configs)
        ]
        assert max(sizes) - min(sizes) <= 1


def test_plan_shards_rejects_bad_plans(config):
    with pytest.raises(ValueError, match="shards must be >= 1"):
        plan_shards(config, 0)
    with pytest.raises(ValueError, match="cannot split"):
        plan_shards(config, config.fleet.phone_count + 1)
    sliced = plan_shards(config, 2)[0]
    with pytest.raises(ValueError, match="already a slice"):
        plan_shards(sliced, 2)


def commit_shards(directory, shard_configs) -> list:
    """Run each shard and commit its file, as an executor worker does."""
    cache = CampaignCache(str(directory))
    task = ShardTask()
    return [
        CommittedShard(c.fleet.phone_range, cache.put(c, task(c)))
        for c in shard_configs
    ]


def test_merge_rejects_incomplete_or_overlapping_tilings(tmp_path, config):
    committed = commit_shards(tmp_path, plan_shards(config, 3))
    with pytest.raises(ValueError, match="shard ranges"):
        merge_shard_files(committed[:-1], config)
    with pytest.raises(ValueError, match="shard ranges"):
        merge_shard_files(committed + [committed[-1]], config)
    with pytest.raises(ValueError, match="no shard results"):
        merge_shard_files([], config)
    full = merge_shard_files(committed, config).summary
    reordered = merge_shard_files(list(reversed(committed)), config).summary
    assert full.to_dict() == reordered.to_dict()


def test_shard_result_wire_round_trip(config):
    result = ShardTask()(plan_shards(config, 25)[0])
    revived = ShardResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert revived.phone_range == result.phone_range
    assert revived.accumulator == result.accumulator
    assert revived.ground_truth == result.ground_truth
    assert revived.ingest.to_dict() == result.ingest.to_dict()


def test_shard_result_rejects_bad_payloads(config):
    result = ShardTask()(plan_shards(config, 25)[0])
    payload = result.to_dict()
    stale = dict(payload, format_version=999)
    with pytest.raises(ValueError, match="format version"):
        ShardResult.from_dict(stale)
    broken = json.loads(json.dumps(payload))
    broken["accumulator"]["format_version"] = 999
    with pytest.raises(ValueError, match="bad shard accumulator"):
        ShardResult.from_dict(broken)
    with pytest.raises((ValueError, KeyError, TypeError)):
        ShardResult.from_dict({"summary": "foreign"})


def test_shard_result_wire_format_hardening(config):
    """Every way a committed shard file can rot maps to a ValueError,
    never to a silently misread shard."""
    result = ShardTask()(plan_shards(config, 5)[1])
    pristine = json.loads(json.dumps(result.to_dict()))

    def corrupt(**changes):
        payload = json.loads(json.dumps(pristine))
        payload.update(changes)
        return payload

    assert ShardResult.from_dict(pristine).events_fired == result.events_fired
    # A file written while the wire still carried the op-log linkage
    # (stream id + final heartbeat seq) loads unchanged.
    linked = corrupt(stream="4-8@4242.1700000000000.1.1", delta_seq=3)
    assert ShardResult.from_dict(linked).to_dict() == pristine

    with pytest.raises(ValueError, match="not an object"):
        ShardResult.from_dict(["not", "a", "dict"])
    # Wrong or missing format version.
    with pytest.raises(ValueError, match="format version"):
        ShardResult.from_dict(corrupt(format_version=1))
    missing_version = json.loads(json.dumps(pristine))
    del missing_version["format_version"]
    with pytest.raises(ValueError, match="format version"):
        ShardResult.from_dict(missing_version)
    # Truncation: every required key, one at a time.
    for key in ("phone_range", "config", "accumulator", "ground_truth", "ingest"):
        truncated = json.loads(json.dumps(pristine))
        del truncated[key]
        with pytest.raises(ValueError, match=f"missing.*{key}"):
            ShardResult.from_dict(truncated)
    # Malformed or empty phone ranges.
    for bad in ([3], [1, 2, 3], "0:5", [None, 5], [5, 5], [7, 3], [-1, 4]):
        with pytest.raises(ValueError, match="phone_range"):
            ShardResult.from_dict(corrupt(phone_range=bad))
    # Ground truth shorter than the range (a torn write).
    with pytest.raises(ValueError, match="truncated"):
        ShardResult.from_dict(
            corrupt(ground_truth=pristine["ground_truth"][:-1])
        )
    with pytest.raises(ValueError, match="ground-truth"):
        ShardResult.from_dict(
            corrupt(
                ground_truth=[{"boots": 1.0}]
                * len(pristine["ground_truth"])
            )
        )
    # Event counter must be a non-negative integer.
    for bad_events in (-1, "many", 1.5, True):
        with pytest.raises(ValueError, match="events_fired"):
            ShardResult.from_dict(corrupt(events_fired=bad_events))
    with pytest.raises(ValueError, match="telemetry"):
        ShardResult.from_dict(corrupt(telemetry=["x"]))
    with pytest.raises(ValueError, match="config"):
        ShardResult.from_dict(corrupt(config="not an object"))


def test_merge_rejects_duplicated_phone_range(tmp_path, config):
    """The same range twice is an overlap, even with identical data."""
    committed = commit_shards(tmp_path, plan_shards(config, 3))
    duplicated = [committed[0]] + committed
    with pytest.raises(ValueError, match="shard ranges"):
        merge_shard_files(duplicated, config)


# -- the executor ---------------------------------------------------------------


def test_workqueue_streaming_matches_monolithic(config, monolithic):
    """Worker processes with the spill-to-disk merge and the in-process
    path are the exact same campaign: both emit the monolithic summary
    bit for bit."""
    streamed = run_sharded_campaign(
        config, shards=3, workers=2, executor="workqueue"
    )
    assert canonical(streamed.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
    in_process = run_sharded_campaign(config, shards=3)
    assert canonical(in_process.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
    assert streamed.events_fired == in_process.events_fired > 0


def test_other_executor_names_are_rejected(config):
    with pytest.raises(ValueError, match="unknown executor"):
        run_sharded_campaign(config, shards=2, executor="pool")


def test_skewed_plan_with_stealing_matches_monolithic(config, monolithic):
    """A deliberately long-tailed plan plus an eager splitter produces a
    finer executed tiling — and the identical summary."""
    backend = WorkQueueExecutor(2, min_split_phones=2)
    result = run_sharded_campaign(
        config,
        shards=3,
        executor=backend,
        weights=[20, 1, 1],
    )
    assert result.stats.steals >= 1
    assert result.shard_count > 3
    assert canonical(result.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )


def test_plan_shards_weights_tile_exactly(config):
    configs = plan_shards(config, 4, weights=[8, 1, 1, 2])
    ranges = [c.fleet.phone_range for c in configs]
    assert ranges[0][1] - ranges[0][0] > ranges[1][1] - ranges[1][0]
    expected = 0
    for start, stop in ranges:
        assert start == expected and stop > start
        expected = stop
    assert expected == config.fleet.phone_count
    with pytest.raises(ValueError, match="weights"):
        plan_shards(config, 3, weights=[1, 2])
    with pytest.raises(ValueError, match="positive"):
        plan_shards(config, 2, weights=[1, 0])


# -- crash resume ---------------------------------------------------------------


def test_resume_from_committed_shards(tmp_path, config, monolithic):
    """Kill a run after some shards committed (simulated by deleting
    part of the run directory): the restart adopts the committed shards,
    counts them as resumed, recomputes only the gaps, and lands on the
    same bits."""
    run_dir = str(tmp_path)
    first = run_sharded_campaign(
        config, shards=5, workers=2, executor="workqueue", spill_dir=run_dir
    )
    assert canonical(first.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
    files = sorted(
        name for name in os.listdir(tmp_path) if name.endswith(".json")
    )
    assert len(files) == 5
    # Lose two shards — a crash that happened mid-run.
    for name in files[:2]:
        os.remove(tmp_path / name)
    resumed = run_sharded_campaign(
        config, shards=5, workers=2, executor="workqueue", spill_dir=run_dir
    )
    assert resumed.stats.resumed_shards == 3
    assert canonical(resumed.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
    # A fully committed run directory resumes everything, runs nothing.
    full = run_sharded_campaign(
        config, shards=5, workers=2, executor="workqueue", spill_dir=run_dir
    )
    assert full.stats.resumed_shards == 5
    assert canonical(full.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )


def test_in_process_run_resumes_worker_commits(tmp_path, config, monolithic):
    """Committed shards do not depend on where they ran: an in-process
    run adopts what worker processes left behind."""
    run_sharded_campaign(
        config, shards=4, workers=2, executor="workqueue",
        spill_dir=str(tmp_path),
    )
    result = run_sharded_campaign(config, shards=4, spill_dir=str(tmp_path))
    assert result.stats.resumed_shards == 4
    assert canonical(result.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )


def test_corrupt_committed_shard_is_recomputed(tmp_path, config, monolithic):
    """A torn commit (truncated JSON), a foreign payload (a campaign
    summary where a shard result belongs), a shard whose accumulator
    is an older wire format and one whose accumulator was folded with
    another knob than the campaign's are skipped at scan time — their
    ranges are recomputed, never trusted.  The last three carry valid
    checksums, so the ledger's own checks are what refuse them."""
    run_sharded_campaign(
        config, shards=4, workers=2, executor="workqueue",
        spill_dir=str(tmp_path),
    )
    commits = CampaignCache(str(tmp_path))
    shard_configs = plan_shards(config, 4)
    torn = commits.path_for(shard_configs[1])
    with open(torn, "r", encoding="utf-8") as handle:
        head = handle.read()[:200]
    with open(torn, "w", encoding="utf-8") as handle:
        handle.write(head)
    foreign = commits.path_for(shard_configs[2])
    reseal_commit(
        foreign, lambda entry: entry.update(summary={"not": "a shard result"})
    )
    # A format-1 accumulator: one phone map per report section.
    stale = commits.path_for(shard_configs[3])
    with open(stale, "r", encoding="utf-8") as handle:
        accumulator = json.load(handle)["summary"]["accumulator"]

    def format_1(entry):
        entry["summary"]["accumulator"] = {
            "format_version": 1,
            **{
                knob: accumulator[knob]
                for knob in ("end_time", "window", "gap", "threshold")
            },
            "sections": {
                "availability": {
                    "phones": {
                        pid: {
                            "start_time": part["start_time"],
                            "records": part["records"],
                        }
                        for pid, part in accumulator["phones"].items()
                    }
                }
            },
        }

    reseal_commit(stale, format_1)
    # A valid accumulator whose self-shutdown threshold is not the one
    # the campaign folds with: merging it would abort the whole run.
    knob = commits.path_for(shard_configs[0])
    reseal_commit(
        knob,
        lambda entry: entry["summary"]["accumulator"].update(threshold=200.0),
    )
    resumed = run_sharded_campaign(
        config, shards=4, workers=2, executor="workqueue",
        spill_dir=str(tmp_path),
    )
    assert resumed.stats.resumed_shards == 0
    with open(knob, "r", encoding="utf-8") as handle:
        planted = json.load(handle)["summary"]["accumulator"]
    assert planted["threshold"] == 360.0
    # The stale range ran again and its commit now holds the current format.
    with open(stale, "r", encoding="utf-8") as handle:
        rerun = json.load(handle)["summary"]["accumulator"]
    assert rerun["format_version"] == STREAMING_FORMAT_VERSION
    assert rerun["phones"].keys() == accumulator["phones"].keys()
    assert canonical(resumed.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )


_KILL9_CHILD = textwrap.dedent(
    """
    import sys

    from repro.core.clock import MONTH
    from repro.experiments.config import CampaignConfig
    from repro.experiments.shard import run_sharded_campaign
    from repro.phone.fleet import FleetConfig

    fleet = FleetConfig(
        phone_count=25,
        duration=MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.15,
    )
    config = CampaignConfig(fleet=fleet, seed=4242)
    run_sharded_campaign(
        config,
        shards=5,
        workers=2,
        executor="workqueue",
        spill_dir=sys.argv[1],
    )
    """
)


def test_kill9_mid_run_then_resume_is_bit_identical(
    tmp_path, config, monolithic
):
    """The headline durability claim: SIGKILL the whole process tree
    mid-run, restart, and the resumed campaign is bit-identical with at
    least one shard adopted from the run directory."""
    run_dir = str(tmp_path / "run")
    os.makedirs(run_dir)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _KILL9_CHILD, run_dir],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        committed = 0
        while time.monotonic() < deadline:
            committed = sum(
                1 for n in os.listdir(run_dir) if n.endswith(".json")
            )
            if committed >= 2 or child.poll() is not None:
                break
            time.sleep(0.005)
        if child.poll() is None:
            # kill -9 the whole session: coordinator and workers alike.
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
    survivors = sum(1 for n in os.listdir(run_dir) if n.endswith(".json"))
    assert survivors >= 1, "no shard committed before the kill"
    resumed = run_sharded_campaign(
        config, shards=5, workers=2, executor="workqueue",
        spill_dir=run_dir,
    )
    assert resumed.stats.resumed_shards >= 1
    assert canonical(resumed.summary.to_dict()) == canonical(
        monolithic.to_dict()
    )
