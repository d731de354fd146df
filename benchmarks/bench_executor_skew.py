"""Executor skew — work stealing must beat plain dynamic assignment.

Without stealing, a worker that draws a deliberately long-tailed shard
(one range holding most of the fleet) runs it alone: wall time
degenerates toward the single-worker time no matter how many workers
idle.  With stealing, the coordinator splits the largest pending range
at dispatch time, so the same plan spreads across every worker.

This gate runs the *same* skewed 10k-phone campaign through
``WorkQueueExecutor(4, steal=False)`` and ``WorkQueueExecutor(4)`` and
asserts:

* stealing is strictly faster (with real margin, not measurement
  noise);
* stealing actually happened (``executor.steals_total`` > 0) and the
  executed tiling is finer than the planned one;
* both runs produce the bit-identical :class:`CampaignSummary` — the
  tier-1 differential suite pins the executor against the monolithic
  oracle at small scale, and this check extends the chain to 10k
  phones where shard boundaries land mid-fleet.
"""

from __future__ import annotations

import json
from time import perf_counter

from repro.core.clock import MONTH
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import WorkQueueExecutor
from repro.experiments.shard import run_sharded_campaign
from repro.phone.fleet import FleetConfig

PHONES = 10_000
MONTHS = 0.25
SHARDS = 8
WORKERS = 4
#: First shard gets 25x the weight of each remaining shard: ~78% of
#: the fleet in one range, the classic straggler.
SKEW = [25.0] + [1.0] * (SHARDS - 1)
#: The steal win must clear noise: stealing wall <= 85% of the
#: no-steal wall.  (Expected is ~40-50% — one worker stuck with 78% of
#: the fleet vs four workers sharing dispatch-time splits.)
REQUIRED_SPEEDUP = 0.85


def _skewed_config() -> CampaignConfig:
    return CampaignConfig(
        fleet=FleetConfig(phone_count=PHONES, duration=MONTHS * MONTH),
        seed=2005,
    )


def test_stealing_beats_no_stealing_on_skewed_plan():
    config = _skewed_config()

    start = perf_counter()
    unstolen = run_sharded_campaign(
        config,
        shards=SHARDS,
        executor=WorkQueueExecutor(WORKERS, steal=False),
        weights=SKEW,
    )
    plain_wall = perf_counter() - start

    start = perf_counter()
    stolen = run_sharded_campaign(
        config,
        shards=SHARDS,
        executor=WorkQueueExecutor(WORKERS),
        weights=SKEW,
    )
    steal_wall = perf_counter() - start

    print()
    print(
        f"skewed plan ({PHONES} phones, {SHARDS} shards, weights 25:1, "
        f"{WORKERS} workers):"
    )
    print(
        f"  no stealing : {plain_wall:7.2f} s  "
        f"({unstolen.shard_count} ranges)"
    )
    print(
        f"  stealing    : {steal_wall:7.2f} s  ({stolen.shard_count} ranges, "
        f"{stolen.stats.steals} steals)"
    )
    print(f"  speedup     : {plain_wall / steal_wall:7.2f}x")

    assert unstolen.stats.steals == 0
    assert stolen.stats.steals >= 1, "no stealing on a 25:1 skewed plan"
    assert stolen.shard_count > SHARDS, "executed tiling is not finer"
    assert json.dumps(
        stolen.summary.to_dict(), sort_keys=True
    ) == json.dumps(unstolen.summary.to_dict(), sort_keys=True), (
        "stealing changed the summary"
    )
    assert steal_wall <= REQUIRED_SPEEDUP * plain_wall, (
        f"work stealing too slow: {steal_wall:.2f}s vs no stealing "
        f"{plain_wall:.2f}s (required <= {REQUIRED_SPEEDUP:.0%})"
    )
