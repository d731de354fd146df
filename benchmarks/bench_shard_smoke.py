"""Shard smoke — the CI gate for sharded mega-fleet campaigns.

Two checks, mirroring the two halves of the shard contract:

* **Differential**: a K-shard run of a reduced-duration campaign must
  reproduce the monolithic :class:`CampaignSummary` bit-identically
  (the tier-1 suite pins this at 25 phones; this gate re-checks it at
  a few hundred phones, where shard boundaries land mid-fleet).
* **Memory ceiling**: a sharded 10k-phone run — executed in a fresh
  subprocess so the measurement starts from a clean RSS baseline —
  must keep every process, parent and workers alike, under a fixed
  peak-RSS budget that the monolithic pipeline demonstrably exceeds
  (measured: ~864 MiB monolithic vs ~160 MiB per shard worker for the
  same fleet).

Writes the fresh measurement to pytest's ``tmp_path``, so a local run
leaves the committed ``BENCH_megafleet.json`` alone; set
``BENCH_MEGAFLEET_OUT`` to keep it (the CI shard-smoke job does, and
uploads the file as an artifact).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.clock import MONTH
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.shard import run_sharded_campaign
from repro.experiments.summary import CampaignSummary
from repro.phone.fleet import FleetConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Peak-RSS budget (KiB) for every process of the sharded 10k run.
#: The monolithic pipeline needs ~884k KiB for the same fleet; a
#: sharded worker holds one 625-phone slice (~160k KiB observed), so
#: 400 MiB is generous headroom while still proving the ceiling.
MAX_RSS_BUDGET_KB = 400_000

MEGAFLEET_PHONES = 10_000
MEGAFLEET_MONTHS = 0.25
MEGAFLEET_SHARDS = 16


def test_shard_differential_smoke():
    """K-shard merge == monolithic, at a 300-phone reduced duration."""
    config = CampaignConfig(
        fleet=FleetConfig(phone_count=300, duration=0.25 * MONTH),
        seed=2005,
    )
    monolithic = CampaignSummary.from_result(run_campaign(config))
    sharded = run_sharded_campaign(config, shards=8, workers=2)
    assert json.dumps(sharded.summary.to_dict(), sort_keys=True) == json.dumps(
        monolithic.to_dict(), sort_keys=True
    )
    print()
    print(
        f"differential ok: 300 phones, 8 shards, "
        f"{sharded.ingest.quarantined} quarantined lines"
    )


def test_megafleet_peak_rss_bounded(tmp_path):
    """A sharded 10k-phone run stays under the fixed memory budget."""
    out_path = os.path.abspath(
        os.environ.get(
            "BENCH_MEGAFLEET_OUT", str(tmp_path / "BENCH_megafleet.json")
        )
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "megafleet",
            "--phones",
            str(MEGAFLEET_PHONES),
            "--months",
            str(MEGAFLEET_MONTHS),
            "--shards",
            str(MEGAFLEET_SHARDS),
            "--workers",
            "2",
            "--output",
            out_path,
        ],
        check=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    with open(out_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)

    assert report["phones"] == MEGAFLEET_PHONES
    # Work stealing splits planned shards near the tail of the run, so
    # the executed tiling is at least as fine as the plan.
    ranges = report["shard_ranges"]
    assert report["shards"] == len(ranges) >= MEGAFLEET_SHARDS
    assert ranges[0][0] == 0 and ranges[-1][1] == MEGAFLEET_PHONES
    assert all(left[1] == right[0] for left, right in zip(ranges, ranges[1:]))
    for key, value in report["headline"].items():
        assert isinstance(value, (int, float, str)), key

    rss = report["max_rss_kb"]
    print()
    print(
        f"peak RSS: self={rss['self']} KiB, children={rss['children']} KiB "
        f"(budget {MAX_RSS_BUDGET_KB} KiB; monolithic needs ~884k KiB)"
    )
    assert rss["self"] <= MAX_RSS_BUDGET_KB, rss
    assert rss["children"] <= MAX_RSS_BUDGET_KB, rss
