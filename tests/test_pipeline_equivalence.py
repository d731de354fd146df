"""Record ingest vs text ingest — the contract behind the campaign's
shortcut.

A campaign hands the collection server's record objects straight to
the analysis (:meth:`Dataset.from_collector`); ``repro analyze`` parses
the same entries as text (:meth:`Dataset.from_lines`, the on-disk
contract).  These tests pin the invariant that makes the shortcut
legal:

* line level — for every phone, parsing the serialized log lines yields
  records equal to the collected entries (writers quantize timestamps
  to wire precision at construction, so the round trip is lossless);
* dataset level — for one fleet, the two ingest paths build equal
  datasets: same logs, same end time, same quarantine accounting and
  ingest counters, on a clean link and under ``FaultPlan.mild``.
  Everything downstream of the dataset (report, shard reduce) is shared
  code, so equal datasets mean equal results;
* the RUNAPPS dedupe knob drops redundant snapshots without changing
  any analysis result (Table 4 included).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.ingest import (
    CORRUPTION_BAD_VALUE,
    CORRUPTION_FIELD_COUNT,
    CORRUPTION_UNKNOWN_TAG,
    Dataset,
)
from repro.experiments.campaign import _sample_ingest_metrics, run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import plan_shards
from repro.experiments.summary import CampaignSummary
from repro.logger.daemon import LoggerConfig
from repro.logger.logfile import parse_lines
from repro.logger.transfer import CollectionServer
from repro.observability.metrics import MetricsRegistry
from repro.phone.fleet import Fleet
from repro.robustness import FaultPlan, FaultyLink

SEEDS = [7, 1337, 2005]


def _summary_without_config(result) -> str:
    """Canonical JSON of everything the analysis produced."""
    data = CampaignSummary.from_result(result).to_dict()
    data.pop("config")
    return json.dumps(data, sort_keys=True)


class TestLineLevelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_serialized_lines_parse_back_to_the_structured_records(self, seed):
        config = CampaignConfig.quick(seed)
        fleet = Fleet(config.fleet, seed=config.seed)
        fleet.run()
        records = fleet.collector.record_dataset()
        lines = fleet.collector.dataset()
        assert sorted(records) == sorted(lines)
        total = 0
        for phone_id, phone_lines in lines.items():
            # Lenient parsing, as ingest does it: freeze-truncated tail
            # lines are dropped by both ingest paths.
            reparsed = list(parse_lines(phone_lines))
            assert reparsed == records[phone_id], phone_id
            total += len(reparsed)
        assert total > 100  # the campaign actually logged something


def _ingest_counters(dataset: Dataset) -> dict:
    registry = MetricsRegistry()
    _sample_ingest_metrics(registry, dataset)
    return registry.to_dict()


def assert_text_ingest_equals_record_ingest(
    config: CampaignConfig, plan=None
) -> Dataset:
    """Run one fleet and ingest its collector both ways; the datasets
    must be equal.  Returns the record-ingested dataset."""
    link = FaultyLink(plan) if plan is not None else None
    fleet = Fleet(
        config.fleet, seed=config.seed, collector=CollectionServer(link=link)
    )
    fleet.run()
    end = config.fleet.duration
    records = Dataset.from_collector(fleet.collector, end)
    text = Dataset.from_lines(fleet.collector.dataset(), end)
    assert text.logs == records.logs
    assert text.end_time == records.end_time
    assert text.ingest_report == records.ingest_report
    assert _ingest_counters(text) == _ingest_counters(records)
    return records


class TestDatasetLevelEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_link_datasets_equal(self, seed):
        # A clean link can still quarantine the tail lines a freeze cut
        # short (seeds 1337 and 2005 do), so quarantine parity is
        # covered here too.
        assert_text_ingest_equals_record_ingest(CampaignConfig.quick(seed))

    @pytest.mark.parametrize("intensity", [0.5, 1.0])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mild_fault_datasets_equal(self, seed, intensity):
        """Truncated and garbled entries are quarantined identically:
        same counts by class and by phone, same verbatim samples."""
        dataset = assert_text_ingest_equals_record_ingest(
            CampaignConfig.tiny(seed), FaultPlan.mild().scaled(intensity)
        )
        # Not vacuous: every corruption class reached the quarantine.
        assert set(dataset.ingest_report.by_class) == {
            CORRUPTION_BAD_VALUE,
            CORRUPTION_FIELD_COUNT,
            CORRUPTION_UNKNOWN_TAG,
        }

    def test_shard_slice_datasets_equal(self):
        """A shard's fleet (a phone-range slice) ingests the same both
        ways, so the shard path needs no text leg of its own."""
        config = plan_shards(CampaignConfig.quick(1337), 3)[1]
        assert_text_ingest_equals_record_ingest(config, FaultPlan.mild())


class TestReportLevelEquivalence:
    def test_same_seed_same_pipeline_is_deterministic(self):
        first = run_campaign(CampaignConfig.quick(2005))
        second = run_campaign(CampaignConfig.quick(2005))
        assert first.fleet.sim.events_fired == second.fleet.sim.events_fired
        assert _summary_without_config(first) == _summary_without_config(
            second
        )


class TestZeroFaultEquivalence:
    """A disabled fault plan must not perturb a single byte."""

    def test_disabled_plan_summary_is_byte_identical(self):
        from repro.robustness import FaultPlan, run_faulty_campaign

        clean = run_campaign(CampaignConfig.quick(2005))
        outcome = run_faulty_campaign(
            CampaignConfig.quick(2005), plan=FaultPlan.none()
        )
        assert _summary_without_config(outcome.result) == (
            _summary_without_config(clean)
        )
        assert outcome.transfer["retries"] == 0
        assert outcome.injected == {}

    def test_zero_rate_link_machinery_is_byte_identical(self):
        # Stronger: force every batch through the full transfer-batch
        # protocol (delivery, reconciliation) with all rates at zero.
        from repro.logger.transfer import CollectionServer
        from repro.robustness import FaultPlan, FaultyLink

        clean = run_campaign(CampaignConfig.quick(2005))
        collector = CollectionServer(link=FaultyLink(FaultPlan.none()))
        faulty = run_campaign(CampaignConfig.quick(2005), collector=collector)
        assert _summary_without_config(faulty) == _summary_without_config(
            clean
        )
        assert collector.stats.duplicate_entries_dropped == 0
        assert collector.stats.out_of_order_batches == 0


class TestRunappsDedupe:
    def _run(self, seed: int, dedupe: bool):
        config = CampaignConfig.quick(seed)
        config.fleet.logger = LoggerConfig(dedupe_runapps=dedupe)
        return run_campaign(config)

    def test_dedupe_drops_snapshots_but_not_results(self):
        deduped = self._run(11, dedupe=True)
        verbose = self._run(11, dedupe=False)

        count_on = sum(
            len(log.runapps) for log in deduped.dataset.logs.values()
        )
        count_off = sum(
            len(log.runapps) for log in verbose.dataset.logs.values()
        )
        # Boot-time snapshots repeating the previous cycle's final set
        # are the redundancy the knob removes.
        assert count_on < count_off

        # Every analysis output — Table 4 and Figure 6 included — is
        # identical, because an identical snapshot can never change
        # which set is "latest before a panic".
        assert _summary_without_config(deduped) == _summary_without_config(
            verbose
        )
