"""Resume smoke — kill -9 a running mega-fleet, resume, same bits.

The durability contract of the work-queue executor: every completed
shard is committed to the cache directory (atomic tmp+rename) *before*
the worker acknowledges it, so no acknowledged work can ever be lost.
This gate proves the contract the blunt way:

1. start a sharded campaign (shard cache) in its own process group;
2. wait until at least two shards are durably committed, then SIGKILL
   the *entire group* — coordinator and workers alike, mid-shard;
3. restart the identical campaign against the same cache with
   ``--verify``, which reruns the campaign monolithically and exits 1
   unless the resumed summary is bit-identical;
4. assert the resume actually resumed (``executor.resumed_shards_total``
   >= 1 in the report) instead of silently recomputing everything.

Small fleet on purpose: the property is about crash timing, not scale
(the scale story lives in bench_shard_smoke / BENCH_megafleet.json).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PHONES = 800
MONTHS = 0.25
SHARDS = 8
WORKERS = 2


def _megafleet_cmd(cache_dir: str, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "megafleet",
        "--phones",
        str(PHONES),
        "--months",
        str(MONTHS),
        "--shards",
        str(SHARDS),
        "--workers",
        str(WORKERS),
        "--cache",
        cache_dir,
        *extra,
    ]


def test_kill9_resume_bit_identical(tmp_path):
    cache_dir = str(tmp_path / "shard-cache")
    os.makedirs(cache_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    child = subprocess.Popen(
        _megafleet_cmd(cache_dir),
        env=env,
        cwd=str(REPO_ROOT),
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = False
    try:
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            committed = sum(
                1 for n in os.listdir(cache_dir) if n.endswith(".json")
            )
            if committed >= 2 or child.poll() is not None:
                break
            time.sleep(0.01)
        if child.poll() is None:
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            killed = True
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()

    survivors = sorted(
        n for n in os.listdir(cache_dir) if n.endswith(".json")
    )
    assert survivors, "no shard was committed before the kill"
    print()
    print(
        f"killed mid-run: {killed} "
        f"({len(survivors)}/{SHARDS} shards committed at kill time)"
    )

    report_path = str(tmp_path / "resume-report.json")
    resumed = subprocess.run(
        _megafleet_cmd(cache_dir, "--verify", "--output", report_path),
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=600,
    )
    print(resumed.stdout)
    # --verify exits 1 unless the resumed summary is bit-identical to a
    # fresh monolithic run of the same campaign.
    assert resumed.returncode == 0, resumed.stderr

    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["verified"] is True
    assert report["executor"] == "workqueue"
    resumed_shards = report["counters"]["executor.resumed_shards_total"]
    assert resumed_shards >= 1, report["counters"]
    print(
        f"resumed {resumed_shards} committed shards, "
        f"verified bit-identical to the monolithic run"
    )
