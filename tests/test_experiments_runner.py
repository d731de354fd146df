"""Determinism suite for the parallel campaign runner.

The acceptance bar: parallel execution must be bit-for-bit identical
to serial execution (compared through ``CampaignSummary.to_dict()``),
cached re-runs must not execute anything, and a poisoned worker must
surface its seed in the raised error.
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
    summarize_campaign,
)
from repro.experiments.shard import ShardTask, plan_shards
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


def poison_task(config: CampaignConfig) -> CampaignSummary:
    """Worker task that fails on seed 8 (module-level: picklable)."""
    if config.seed == 8:
        raise ValueError("poisoned campaign")
    return summarize_campaign(config)


def explode_task(config: CampaignConfig) -> CampaignSummary:
    """Worker task that always fails — proves cached runs never execute."""
    raise AssertionError(f"should not have executed seed {config.seed}")


class FlakyTask:
    """Fails seed 8's first attempt, then heals (picklable instance)."""

    accepts_attempt = True

    def __call__(self, config: CampaignConfig, attempt: int = 0):
        if config.seed == 8 and attempt == 0:
            raise ValueError("transient worker fault")
        return summarize_campaign(config)


class HangTask:
    """Stalls seed 8's first attempt past any sub-second watchdog."""

    accepts_attempt = True

    def __call__(self, config: CampaignConfig, attempt: int = 0):
        if config.seed == 8 and attempt == 0:
            time.sleep(3.0)
        return summarize_campaign(config)


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
    def test_cached_rerun_hits_and_skips_execution(
        self, tmp_path, serial_summaries
    ):
        cache = CampaignCache(str(tmp_path))
        configs = [tiny_config(seed) for seed in SEEDS]
        first = run_campaigns(configs, workers=1, cache=cache)
        assert cache.misses == len(SEEDS) and cache.hits == 0
        assert len(cache) == len(SEEDS)
        # Second run: everything cached — the exploding task proves no
        # campaign executes, and the results are still identical.
        second = run_campaigns(configs, workers=1, cache=cache, task=explode_task)
        assert cache.hits == len(SEEDS)
        assert [s.to_dict() for s in second] == [s.to_dict() for s in first]
        assert [s.to_dict() for s in first] == [
            s.to_dict() for s in serial_summaries
        ]

    def test_partial_cache_runs_only_misses(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        run_campaigns([tiny_config(7)], workers=1, cache=cache)
        summaries = run_campaigns(
            [tiny_config(seed) for seed in SEEDS], workers=1, cache=cache
        )
        assert [s.seed for s in summaries] == SEEDS
        assert cache.hits == 1
        assert len(cache) == len(SEEDS)


class TestCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(7)
        summary = summarize_campaign(config)
        cache.put(config, summary)
        loaded = cache.get(config)
        assert loaded is not None
        assert loaded.to_dict() == summary.to_dict()

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
        assert cache.get(tiny_config(7)) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(7)
        cache.put(config, summarize_campaign(config))
        with open(cache.path_for(config), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(config) is None

    def test_corrupt_entry_is_evicted_from_disk(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(7)
        summary = summarize_campaign(config)
        cache.put(config, summary)
        path = cache.path_for(config)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(config) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)  # cannot shadow the recompute
        cache.put(config, summary)
        reloaded = cache.get(config)
        assert reloaded is not None
        assert reloaded.to_dict() == summary.to_dict()

    def test_truncated_entry_is_evicted(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(7)
        cache.put(config, summarize_campaign(config))
        path = cache.path_for(config)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])  # torn write
        assert cache.get(config) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_missing_file_is_plain_miss_not_eviction(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        assert cache.get(tiny_config(7)) is None
        assert cache.evictions == 0

    def test_runner_recomputes_through_evicted_entry(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        configs = [tiny_config(seed) for seed in SEEDS]
        first = run_campaigns(configs, workers=1, cache=cache)
        with open(cache.path_for(configs[1]), "w", encoding="utf-8") as handle:
            handle.write('{"key": "garbage"')
        second = run_campaigns(configs, workers=1, cache=cache)
        assert cache.evictions == 1
        assert cache.hits == 2  # the two untouched entries
        assert [s.to_dict() for s in second] == [s.to_dict() for s in first]
        # The recomputed entry landed back in a clean slot.
        assert os.path.exists(cache.path_for(configs[1]))

    def test_format_version_mismatch_is_miss(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(7)
        cache.put(config, summarize_campaign(config))
        path = cache.path_for(config)
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["format_version"] = SUMMARY_FORMAT_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert cache.get(config) is None

    def test_clear(self, tmp_path):
        cache = CampaignCache(str(tmp_path))
        config = tiny_config(7)
        cache.put(config, summarize_campaign(config))
        assert cache.clear() == 1
        assert len(cache) == 0
