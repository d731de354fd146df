"""Cross-layer conservation laws over a campaign's headline counters.

Two exact identities tie the layers together:

* every entry the collection server received is either a parsed record
  or a quarantined line — ``transfer.entries_collected_total ==
  ingest.records_total + ingest.quarantined_total``;
* every panic the fault model injected reaches the kernel and is
  recorded by the logger — ``phone.panics_injected_total ==
  kernel.panics_total == logger.panics_recorded_total``.

They must hold on a clean link, through a faulty collection link, and
on the merged telemetry of a sharded run.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import run_sharded_campaign
from repro.logger.transfer import CollectionServer
from repro.observability.metrics import MetricsRegistry
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry
from repro.robustness.injectors import FaultyLink
from repro.robustness.plan import FaultPlan


def _clean(config: CampaignConfig) -> dict:
    return run_campaign(config, telemetry=Telemetry(TELEMETRY_METRICS)).telemetry


def _faulty(config: CampaignConfig) -> dict:
    collector = CollectionServer(link=FaultyLink(FaultPlan.mild()))
    return run_campaign(
        config, collector=collector, telemetry=Telemetry(TELEMETRY_METRICS)
    ).telemetry


def _sharded(config: CampaignConfig) -> dict:
    result = run_sharded_campaign(
        config, shards=3, telemetry_level=TELEMETRY_METRICS
    )
    return result.summary.telemetry


@pytest.fixture(
    scope="module",
    params=[_clean, _faulty, _sharded],
    ids=["clean", "faulty-link", "sharded"],
)
def totals(request) -> dict:
    snapshot = request.param(CampaignConfig.quick(2005))
    return MetricsRegistry.from_dict(snapshot["metrics"]).counter_totals()


def test_every_collected_entry_is_parsed_or_quarantined(totals):
    collected = totals["transfer.entries_collected_total"]
    assert collected > 0
    assert collected == totals["ingest.records_total"] + totals.get(
        "ingest.quarantined_total", 0.0
    )


def test_every_injected_panic_reaches_kernel_and_logger(totals):
    injected = totals["phone.panics_injected_total"]
    assert injected > 0
    assert injected == totals["kernel.panics_total"]
    assert injected == totals["logger.panics_recorded_total"]
