"""Perf smoke — the campaign pipeline must stay fast.

Measures ``run_campaign`` at paper scale (25 phones x 14 months) with
the perf harness, writes the fresh measurement to a file, and fails on
regression against the committed baseline ``BENCH_campaign.json``.
When the baseline records ``cpu_seconds`` the gate compares CPU time
(``time.process_time``) at
:data:`repro.experiments.perf.DEFAULT_CPU_REGRESSION_THRESHOLD`; CPU
seconds ignore scheduler interference from noisy CI neighbours, so the
threshold is tighter than the historical wall-clock gate
(:data:`repro.experiments.perf.DEFAULT_REGRESSION_THRESHOLD`), which
remains the fallback for old baselines.

The measurement goes to pytest's ``tmp_path`` unless
``BENCH_CAMPAIGN_OUT`` names a file (the CI perf-smoke job sets it and
uploads the file as an artifact), so a local run leaves the committed
baseline untouched.  Pointing ``BENCH_CAMPAIGN_OUT`` at
``BENCH_campaign.json`` refreshes the baseline: it is read *before*
the file is rewritten, and sibling sections are kept.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.config import CampaignConfig
from repro.experiments.perf import (
    check_counters,
    check_regression,
    load_baseline,
    measure_campaign,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BASELINE = REPO_ROOT / "BENCH_campaign.json"


def test_perf_smoke_campaign(tmp_path):
    baseline = load_baseline(str(COMMITTED_BASELINE))

    result = measure_campaign(
        CampaignConfig.paper_scale(seed=2005), repeats=2
    )
    print()
    print(result.render())

    out_path = os.environ.get(
        "BENCH_CAMPAIGN_OUT", str(tmp_path / "BENCH_campaign.json")
    )
    # Merge-preserving write: other gates (bench_live_overhead) own
    # sibling sections of the same snapshot file.
    merged = {}
    if os.path.exists(out_path):
        with open(out_path, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    merged.update(result.to_dict())
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The simulation itself must be deterministic regardless of speed:
    # every headline telemetry counter must match the committed
    # baseline bit-exactly (the hot-path fast paths are only
    # admissible while the campaign is observably unchanged).
    assert result.events_fired == baseline["optimized"]["events_fired"]
    ok, message = check_counters(result, baseline)
    print(message)
    assert ok, message

    ok, message = check_regression(result, baseline)
    print(message)
    assert ok, f"campaign pipeline regressed: {message}"
