"""Live-mode overhead gate — the telemetry plane must be near-free.

The live telemetry plane (``repro.observability.live``) promises to be
a pure observer: workers flush cumulative heartbeats on a wall-clock
throttle riding an existing sim event, so enabling ``--live`` must not
change results (pinned by tests/test_live_telemetry.py) *and* must not
meaningfully change cost (pinned here).

The harness interleaves off/on arms per repeat and gates on best-of
CPU seconds (``time.process_time``), which ignores scheduler
interference from noisy CI neighbours.  The measured overhead is
written under ``live_overhead`` to pytest's ``tmp_path``, or to the
file ``BENCH_LIVE_OUT`` names (merged into it when it exists), so a
local run leaves the tree clean.  Pointing ``BENCH_LIVE_OUT`` at
``BENCH_campaign.json`` refreshes the committed baseline's section,
which documents the cost of observability alongside the raw pipeline
numbers.
"""

from __future__ import annotations

import json
import os

from repro.experiments.config import CampaignConfig
from repro.experiments.perf import measure_live_overhead

# Hard ceiling from the acceptance bar: live mode may cost at most 2%
# CPU over the identical campaign without a live writer installed.
MAX_CPU_OVERHEAD_PERCENT = 2.0


def test_live_overhead_within_budget(tmp_path):
    result = measure_live_overhead(
        CampaignConfig.paper_scale(seed=2005), repeats=3
    )
    print()
    print(json.dumps(result, indent=2, sort_keys=True))

    out_path = os.environ.get(
        "BENCH_LIVE_OUT", str(tmp_path / "BENCH_live.json")
    )
    merged = {}
    if os.path.exists(out_path):
        with open(out_path, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    merged["live_overhead"] = result
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")

    # The on-arm must have actually streamed telemetry — a zero
    # heartbeat count would make the gate vacuous.
    assert result["heartbeats_per_run"] >= 1, result

    overhead = result["cpu_overhead_percent"]
    print(f"live-mode CPU overhead: {overhead:+.2f}% (budget <= "
          f"{MAX_CPU_OVERHEAD_PERCENT:.1f}%)")
    assert overhead <= MAX_CPU_OVERHEAD_PERCENT, (
        f"live telemetry costs {overhead:+.2f}% CPU, over the "
        f"{MAX_CPU_OVERHEAD_PERCENT:.1f}% budget"
    )
