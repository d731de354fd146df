"""Determinism suite for the parallel campaign runner.

The acceptance bar: parallel execution must be bit-for-bit identical
to serial execution (compared through ``CampaignSummary.to_dict()``),
a rerun on the same run directory must not execute anything, and a
poisoned worker must surface its seed in the raised error.
"""

import json
import os
import time

import pytest

from repro.core.clock import MONTH
from repro.experiments.cache import CampaignCache, campaign_cache_key
from repro.experiments.config import CampaignConfig
from repro.experiments.runner import (
    CampaignExecutionError,
    run_campaigns,
    run_campaigns_resilient,
)
from repro.experiments.shard import (
    ShardResult,
    ShardTask,
    load_shard_file,
    plan_shards,
    scan_committed_shards,
    slice_config,
)
from repro.experiments.summary import (
    SECTION_KEYS,
    SUMMARY_FORMAT_VERSION,
    CampaignSummary,
)
from repro.phone.fleet import FleetConfig

SEEDS = [7, 8, 9]


def tiny_config(seed: int) -> CampaignConfig:
    """A 3-phone, 1-month campaign: fast, but every mechanism runs."""
    return CampaignConfig(
        fleet=FleetConfig(phone_count=3, duration=1 * MONTH), seed=seed
    )


def whole(config: CampaignConfig) -> CampaignConfig:
    """The one-shard slice a sweep commits ``config`` under."""
    return slice_config(config, 0, config.fleet.phone_count)


class PoisonTask(ShardTask):
    """Worker task that fails on seed 8 (module-level: picklable)."""

    def __call__(self, config: CampaignConfig) -> ShardResult:
        if config.seed == 8:
            raise ValueError("poisoned campaign")
        return super().__call__(config)


poison_task = PoisonTask()


class ExplodeTask(ShardTask):
    """Worker task that always fails — proves resumed runs never execute."""

    def __call__(self, config: CampaignConfig) -> ShardResult:
        raise AssertionError(f"should not have executed seed {config.seed}")


explode_task = ExplodeTask()


class FlakyTask(ShardTask):
    """Fails seed 8's first attempt, then heals (picklable instance)."""

    accepts_attempt = True

    def __call__(self, config: CampaignConfig, attempt: int = 0):
        if config.seed == 8 and attempt == 0:
            raise ValueError("transient worker fault")
        return super().__call__(config)


class HangTask(ShardTask):
    """Stalls seed 8's first attempt past any sub-second watchdog."""

    accepts_attempt = True

    def __call__(self, config: CampaignConfig, attempt: int = 0):
        if config.seed == 8 and attempt == 0:
            time.sleep(3.0)
        return super().__call__(config)


@pytest.fixture(scope="module")
def serial_summaries():
    return run_campaigns([tiny_config(seed) for seed in SEEDS], workers=1)


class TestDeterminism:
    def test_parallel_identical_to_serial(self, serial_summaries):
        parallel = run_campaigns(
            [tiny_config(seed) for seed in SEEDS], workers=4
        )
        assert [s.to_dict() for s in parallel] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_results_in_config_order(self, serial_summaries):
        assert [s.seed for s in serial_summaries] == SEEDS
        reversed_order = run_campaigns(
            [tiny_config(seed) for seed in reversed(SEEDS)], workers=4
        )
        assert [s.seed for s in reversed_order] == list(reversed(SEEDS))

    def test_rerun_is_identical(self, serial_summaries):
        again = run_campaigns([tiny_config(seed) for seed in SEEDS], workers=1)
        assert [s.to_dict() for s in again] == [
            s.to_dict() for s in serial_summaries
        ]


class TestSummary:
    def test_sections_present(self, serial_summaries):
        for summary in serial_summaries:
            assert set(summary.sections) == set(SECTION_KEYS)
            assert summary.format_version == SUMMARY_FORMAT_VERSION

    def test_matches_live_report(self):
        config = tiny_config(7)
        from repro.experiments.campaign import run_campaign

        result = run_campaign(config)
        summary = CampaignSummary.from_result(result)
        report = result.report
        assert summary.seed == 7
        assert summary.ground_truth == result.ground_truth
        assert (
            summary.availability["freeze_count"]
            == report.availability.freeze_count
        )
        assert summary.panics["total"] == report.panic_table.total
        assert summary.hl["related_percent"] == report.hl.related_percent
        assert (
            summary.runapps["modal_app_count"]
            == report.runapps.modal_app_count
        )

    def test_json_round_trip_exact(self, serial_summaries):
        for summary in serial_summaries:
            data = summary.to_dict()
            reloaded = CampaignSummary.from_dict(json.loads(json.dumps(data)))
            assert reloaded.to_dict() == data

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing keys"):
            CampaignSummary.from_dict({"config": {}})

    def test_summary_is_json_native(self, serial_summaries):
        # No tuples, dataclasses, or non-string dict keys anywhere.
        def check(value):
            if isinstance(value, dict):
                for key, val in value.items():
                    assert isinstance(key, str), key
                    check(val)
            elif isinstance(value, list):
                for item in value:
                    check(item)
            else:
                assert value is None or isinstance(
                    value, (str, int, float, bool)
                ), repr(value)

        check(serial_summaries[0].to_dict())


class TestFailurePropagation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_worker_surfaces_seed(self, workers):
        configs = [tiny_config(seed) for seed in SEEDS]
        with pytest.raises(CampaignExecutionError, match="seed 8") as info:
            run_campaigns(configs, workers=workers, task=poison_task)
        assert info.value.seed == 8
        assert info.value.index == 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_campaigns([tiny_config(7)], workers=0)

    def test_invalid_retry_count_rejected(self):
        with pytest.raises(ValueError):
            run_campaigns([tiny_config(7)], retries=-1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_carries_worker_traceback(self, workers):
        configs = [tiny_config(seed) for seed in SEEDS]
        with pytest.raises(CampaignExecutionError) as info:
            run_campaigns(configs, workers=workers, task=poison_task)
        assert "poisoned campaign" in info.value.traceback
        assert "ValueError" in info.value.traceback
        assert info.value.attempts == 1
        assert "seed 8" in str(info.value)

    def test_error_reports_attempt_count_after_retries(self):
        configs = [tiny_config(seed) for seed in SEEDS]
        with pytest.raises(CampaignExecutionError, match="3 attempts") as info:
            run_campaigns(configs, workers=1, task=poison_task, retries=2)
        assert info.value.attempts == 3


class TestSelfHealing:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_heals_transient_fault(self, workers, serial_summaries):
        manifest = run_campaigns_resilient(
            [tiny_config(seed) for seed in SEEDS],
            workers=workers,
            task=FlakyTask(),
            retries=1,
        )
        assert manifest.complete
        assert manifest.recovered == 1
        # The healed sweep is bit-identical to one that never failed.
        assert [s.to_dict() for s in manifest.summaries] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_run_campaigns_with_retries_succeeds(self, serial_summaries):
        summaries = run_campaigns(
            [tiny_config(seed) for seed in SEEDS],
            workers=1,
            task=FlakyTask(),
            retries=1,
        )
        assert [s.to_dict() for s in summaries] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_resilient_manifest_reports_partial_results(self):
        manifest = run_campaigns_resilient(
            [tiny_config(seed) for seed in SEEDS],
            workers=1,
            task=poison_task,
            retries=1,
        )
        assert not manifest.complete
        assert manifest.failed_indices == [1]
        assert [
            None if s is None else s.seed for s in manifest.summaries
        ] == [7, None, 9]
        assert [s.seed for s in manifest.completed_summaries()] == [7, 9]
        failure = manifest.failures[0]
        assert failure.seed == 8
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2
        assert "poisoned campaign" in failure.traceback
        data = manifest.to_dict()
        assert data["total"] == 3 and data["completed"] == 2
        assert data["failures"][0]["seed"] == 8
        json.dumps(data)  # manifest must be JSON-native

    def test_watchdog_reclaims_hung_worker_and_retry_heals(
        self, serial_summaries
    ):
        manifest = run_campaigns_resilient(
            [tiny_config(seed) for seed in SEEDS],
            workers=2,
            task=HangTask(),
            retries=1,
            timeout=1.0,
        )
        assert manifest.complete
        assert manifest.recovered == 1
        assert [s.to_dict() for s in manifest.summaries] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_watchdog_without_retries_reports_hung_worker(self):
        manifest = run_campaigns_resilient(
            [tiny_config(seed) for seed in SEEDS],
            workers=2,
            task=HangTask(),
            retries=0,
            timeout=1.0,
        )
        assert manifest.failed_indices == [1]
        assert manifest.failures[0].error_type == "WorkerTimeout"
        assert "hung worker" in manifest.failures[0].message


class TestCacheIntegration:
    """The run directory: a sweep rerun adopts its committed shards."""

    def test_cached_rerun_hits_and_skips_execution(
        self, tmp_path, serial_summaries
    ):
        configs = [tiny_config(seed) for seed in SEEDS]
        first = run_campaigns_resilient(configs, run_dir=str(tmp_path))
        assert first.resumed == 0
        # Second run: everything committed — the exploding task proves
        # no shard executes, and the results are still identical.
        second = run_campaigns_resilient(
            configs, run_dir=str(tmp_path), task=explode_task, retries=0
        )
        assert second.resumed == len(SEEDS)
        assert [s.to_dict() for s in second.summaries_or_raise()] == [
            s.to_dict() for s in first.summaries_or_raise()
        ]
        assert [s.to_dict() for s in first.summaries] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_partial_cache_runs_only_misses(self, tmp_path):
        run_campaigns([tiny_config(7)], workers=1, run_dir=str(tmp_path))
        manifest = run_campaigns_resilient(
            [tiny_config(seed) for seed in SEEDS], run_dir=str(tmp_path)
        )
        assert [s.seed for s in manifest.summaries_or_raise()] == SEEDS
        assert manifest.resumed == 1
        assert len(os.listdir(tmp_path)) == len(SEEDS)

    def test_rerun_executes_no_task(
        self, tmp_path, monkeypatch, serial_summaries
    ):
        """The same property through the real task class: with
        ``ShardTask.__call__`` disabled, the rerun still returns every
        summary, bit-identical to the first run."""
        configs = [tiny_config(seed) for seed in SEEDS]
        first = run_campaigns(configs, workers=2, run_dir=str(tmp_path))

        def no_task(self, shard_config):
            raise AssertionError(f"executed seed {shard_config.seed}")

        monkeypatch.setattr(ShardTask, "__call__", no_task)
        second = run_campaigns(configs, workers=1, run_dir=str(tmp_path))
        assert [s.to_dict() for s in second] == [s.to_dict() for s in first]
        assert [s.to_dict() for s in first] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_foreign_files_are_never_adopted(self, tmp_path, serial_summaries):
        """A run dir that also holds a summary-cache entry written before
        sweeps committed shards, a torn commit, and another seed's shards
        gives the same summaries, adopting none of those files."""
        configs = [tiny_config(seed) for seed in SEEDS]
        commits = CampaignCache(str(tmp_path))
        # A pre-change summary-cache entry for seed 7, keyed on the
        # unsliced config as that cache did.
        legacy = commits.path_for(configs[0])
        with open(legacy, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "key": campaign_cache_key(configs[0]),
                    "format_version": SUMMARY_FORMAT_VERSION,
                    "summary": serial_summaries[0].to_dict(),
                },
                handle,
            )
        # A torn commit of seed 8's whole-fleet shard.
        torn = commits.put(whole(configs[1]), ShardTask()(whole(configs[1])))
        with open(torn, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        # Another seed's committed shards.
        run_campaigns([tiny_config(99)], run_dir=str(tmp_path))
        other = commits.path_for(whole(tiny_config(99)))
        manifest = run_campaigns_resilient(configs, run_dir=str(tmp_path))
        assert manifest.resumed == 0  # nothing of seeds 7-9 was adoptable
        assert [s.to_dict() for s in manifest.summaries_or_raise()] == [
            s.to_dict() for s in serial_summaries
        ]
        # Each campaign now holds exactly its own fresh commit (the torn
        # one rewritten in place); the foreign files are left alone.
        for config in configs:
            assert [
                shard.path for shard in scan_committed_shards(commits, config)
            ] == [commits.path_for(whole(config))]
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(path)
            for path in [legacy, other]
            + [commits.path_for(whole(config)) for config in configs]
        )


class TestCache:
    """The commit store and what the ledger accepts from it."""

    def test_put_get_round_trip(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = whole(tiny_config(7))
        result = ShardTask()(config)
        path = cache.put(config, result)
        assert path == cache.path_for(config)
        assert load_shard_file(path).to_dict() == result.to_dict()

    def test_put_commits_the_json_dumps_text(self, tmp_path):
        """A commit is one ``json.dumps`` of the entry (the C encoder),
        byte for byte; shard results are committed through ``put`` too."""
        cache = CampaignCache(str(tmp_path))
        config = plan_shards(tiny_config(7), 3)[0]
        result = ShardTask()(config)
        path = cache.put(config, result)
        entry = {
            "key": campaign_cache_key(config),
            "format_version": SUMMARY_FORMAT_VERSION,
            "summary": result.to_dict(),
        }
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == json.dumps(entry)

    def test_key_depends_on_seed_and_config(self):
        base = campaign_cache_key(tiny_config(7))
        assert campaign_cache_key(tiny_config(8)) != base
        other = CampaignConfig(
            fleet=FleetConfig(phone_count=4, duration=1 * MONTH), seed=7
        )
        assert campaign_cache_key(other) != base
        assert campaign_cache_key(tiny_config(7)) == base

    def test_key_covers_analysis_knobs(self):
        windowed = CampaignConfig(
            fleet=FleetConfig(phone_count=3, duration=1 * MONTH),
            seed=7,
            coalescence_window=600.0,
        )
        assert campaign_cache_key(windowed) != campaign_cache_key(tiny_config(7))

    def test_empty_cache_misses(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        assert scan_committed_shards(cache, tiny_config(7)) == []

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = whole(tiny_config(7))
        cache.put(config, ShardTask()(config))
        with open(cache.path_for(config), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert scan_committed_shards(cache, tiny_config(7)) == []

    def test_corrupt_entry_is_evicted_from_disk(self, tmp_path):
        """A sweep rerun recomputes a garbled commit and writes the fresh
        one over it, so the bad bytes cannot shadow the recompute."""
        configs = [tiny_config(7)]
        first = run_campaigns(configs, run_dir=str(tmp_path))
        path = CampaignCache(str(tmp_path)).path_for(whole(configs[0]))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        second = run_campaigns_resilient(configs, run_dir=str(tmp_path))
        assert second.resumed == 0
        assert second.summaries_or_raise()[0].to_dict() == first[0].to_dict()
        assert os.listdir(tmp_path) == [os.path.basename(path)]
        assert load_shard_file(path).phone_range == (0, 3)

    def test_truncated_entry_is_evicted(self, tmp_path):
        configs = [tiny_config(7)]
        first = run_campaigns(configs, run_dir=str(tmp_path))
        path = CampaignCache(str(tmp_path)).path_for(whole(configs[0]))
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])  # torn write
        second = run_campaigns_resilient(configs, run_dir=str(tmp_path))
        assert second.resumed == 0
        assert second.summaries_or_raise()[0].to_dict() == first[0].to_dict()
        assert load_shard_file(path).phone_range == (0, 3)

    def test_runner_recomputes_through_evicted_entry(self, tmp_path):
        configs = [tiny_config(seed) for seed in SEEDS]
        first = run_campaigns(configs, workers=1, run_dir=str(tmp_path))
        path = CampaignCache(str(tmp_path)).path_for(whole(configs[1]))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"key": "garbage"')
        second = run_campaigns_resilient(
            configs, workers=1, run_dir=str(tmp_path)
        )
        assert second.resumed == 2  # the two untouched commits
        assert [s.to_dict() for s in second.summaries_or_raise()] == [
            s.to_dict() for s in first
        ]
        # The recomputed commit landed back in a clean slot.
        assert load_shard_file(path).phone_range == (0, 3)

    def test_format_version_mismatch_is_miss(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = whole(tiny_config(7))
        path = cache.put(config, ShardTask()(config))
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["format_version"] = SUMMARY_FORMAT_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert scan_committed_shards(cache, tiny_config(7)) == []

    def test_garbled_partial_key_is_miss(self, tmp_path):
        """A commit that still parses but whose phone partial lost a key
        is refused by the ledger instead of crashing the merge."""
        cache = CampaignCache(str(tmp_path))
        config = whole(tiny_config(7))
        path = cache.put(config, ShardTask()(config))
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text.count('"report_kinds"') == 3
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"report_kinds"', '"rep#rt_kinds"', 1))
        assert scan_committed_shards(cache, tiny_config(7)) == []
