"""Phone-at-a-time simulation: a phone's output is its own.

``Fleet.run`` simulates the phones of its range one after another on one
reused engine.  That is only sound if a phone's output is a function of
(config, seed, phone id) alone, whatever phones share its run.  These
tests check it phone by phone, so that a failure names the phone:

* a phone's tally (ground-truth partial, counter share, D_EXC lines) and
  its collected lines are the same run alone, inside a shard and inside
  the whole fleet, over a faulty collection link;
* the engine's event counters are fleet totals that add up over any
  tiling of the fleet;
* the faulty link's protocol stats do not depend on the tiling;
* the live heartbeats of a run are cumulative and monotone, and
  observing them changes nothing.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

from repro.core.clock import MONTH
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import plan_shards
from repro.experiments.summary import CampaignSummary
from repro.logger.transfer import CollectionServer, TransferBatch
from repro.observability.live import OpLogReader, OpLogWriter, install_live_writer
from repro.phone.fleet import Fleet, FleetConfig
from repro.robustness import FaultPlan, FaultyLink

SEED = 7
PHONES = 7


def make_config(phone_range=None) -> FleetConfig:
    return FleetConfig(
        phone_count=PHONES,
        duration=MONTH,
        enroll_fraction_min=0.0,
        enroll_fraction_max=0.15,
        attach_dexc=True,
        phone_range=phone_range,
    )


def run_range(phone_range) -> Tuple[Fleet, FaultyLink]:
    """One fleet over ``phone_range`` with a harsh collection link."""
    link = FaultyLink(FaultPlan.harsh(seed=SEED))
    fleet = Fleet(
        make_config(phone_range), seed=SEED, collector=CollectionServer(link=link)
    )
    fleet.run()
    return fleet, link


def tilings() -> Dict[str, List[Tuple[int, int]]]:
    config = CampaignConfig(fleet=make_config(), seed=SEED)
    return {
        f"{shards} shards": [
            shard.fleet.resolved_range() for shard in plan_shards(config, shards)
        ]
        for shards in (1, 3, 7)
    }


def phone_view(fleet: Fleet) -> Dict[str, tuple]:
    """phone id -> (tally, collected lines)."""
    return {
        tally.phone_id: (tally, fleet.collector.lines_for(tally.phone_id))
        for tally in fleet.tallies
    }


@pytest.fixture(scope="module")
def runs() -> Dict[str, List[Tuple[Fleet, FaultyLink]]]:
    return {
        name: [run_range(phone_range) for phone_range in ranges]
        for name, ranges in tilings().items()
    }


def test_phone_output_depends_on_nothing_but_the_phone(runs):
    alone = {}
    for fleet, _link in runs["7 shards"]:
        alone.update(phone_view(fleet))
    assert len(alone) == PHONES
    for name in ("1 shards", "3 shards"):
        for fleet, _link in runs[name]:
            for phone_id, (tally, lines) in phone_view(fleet).items():
                alone_tally, alone_lines = alone[phone_id]
                assert tally == alone_tally, f"{phone_id}: tally differs in {name}"
                assert lines == alone_lines, f"{phone_id}: lines differ in {name}"


def test_engine_counters_add_up_over_any_tiling(runs):
    (whole, _link), = runs["1 shards"]
    for name, shard_runs in runs.items():
        fleets = [fleet for fleet, _link in shard_runs]
        assert sum(f.sim.events_fired for f in fleets) == whole.sim.events_fired, name
        assert (
            sum(f.sim.events_scheduled for f in fleets) == whole.sim.events_scheduled
        ), name
        assert (
            sum(f.sim.events_cancelled for f in fleets) == whole.sim.events_cancelled
        ), name
    # Per phone too: each phone's share of the events is its own.
    assert whole.sim.events_fired == sum(
        tally.counters["events_fired"] for tally in whole.tallies
    )


def test_faulty_link_stats_do_not_depend_on_the_tiling(runs):
    def totals(shard_runs):
        collected: Dict[str, float] = {}
        injected: Dict[str, float] = {}
        for fleet, link in shard_runs:
            for key, value in fleet.collector.stats.to_dict().items():
                collected[key] = collected.get(key, 0) + value
            for key, value in link.stats.to_dict().items():
                injected[key] = injected.get(key, 0) + value
        return collected, injected

    whole = totals(runs["1 shards"])
    # The link really reordered: the check is not vacuous.
    assert whole[0]["out_of_order_batches"] > 0
    assert whole[1]["withheld_batches"] > 0
    for name in ("3 shards", "7 shards"):
        assert totals(runs[name]) == whole, name


def test_withheld_batch_waits_for_its_own_phone():
    """A batch withheld for one phone is not released by another
    phone's delivery: it lands on its own phone's next one."""
    received = []
    link = FaultyLink(FaultPlan(reorder_batch_rate=1.0, seed=1))
    link.deliver(TransferBatch("phone-00", 0, ["a"]), received.append)
    link.plan = FaultPlan(seed=1)
    link.deliver(TransferBatch("phone-01", 0, ["b"]), received.append)
    assert [batch.phone_id for batch in received] == ["phone-01"]
    link.deliver(TransferBatch("phone-00", 1, ["c"]), received.append)
    assert [(b.phone_id, b.start) for b in received] == [
        ("phone-01", 0),
        ("phone-00", 1),
        ("phone-00", 0),
    ]


def canonical(result) -> str:
    return json.dumps(CampaignSummary.from_result(result).to_dict(), sort_keys=True)


def test_live_heartbeats_are_cumulative_and_monotone(tmp_path):
    config = CampaignConfig(fleet=replace(make_config(), attach_dexc=False), seed=SEED)
    plain = canonical(run_campaign(config))
    writer = OpLogWriter(str(tmp_path), role="worker", min_interval=0.0)
    previous = install_live_writer(writer)
    try:
        live = canonical(run_campaign(config))
    finally:
        install_live_writer(previous)
        writer.close()
    assert live == plain
    beats = [
        record
        for record in OpLogReader(str(tmp_path)).read_new()
        if record["kind"] == "heartbeat"
    ]
    # One heartbeat per phone-tick: every phone's transfer chain fires.
    assert len(beats) > PHONES
    for key in ("events_fired", "freezes", "boots", "panics", "progress"):
        values = [beat[key] for beat in beats]
        assert values == sorted(values), key
    progress = [beat["progress"] for beat in beats]
    assert 0.0 < progress[0] < 1.0 / PHONES + 1e-9
    assert progress[-1] <= 1.0
    assert max(beat["boots"] for beat in beats) > 0
