"""Monitor smoke — kill -9 a live mega-fleet, then observe and resume.

The live telemetry plane is durable by construction: every worker
appends cumulative heartbeats to its own op-log file with a single
``O_APPEND`` write, so a crash leaves at worst one torn tail line that
the reader skips.  This gate proves the whole post-mortem story:

1. start a sharded campaign with ``--live`` (shard cache) in its own
   process group;
2. wait until at least two shards are durably committed, then SIGKILL
   the *entire group* — coordinator and workers alike, mid-shard;
3. run ``repro monitor <run-dir> --once`` against the dead run: the
   dashboard must render fleet KPIs purely from the surviving op-log
   and write a ``metrics.prom`` Prometheus snapshot;
4. restart the identical campaign with ``--live --verify``: the resume
   must pick up the committed shards (``executor.resumed_shards_total``
   >= 1) and the final summary must be bit-identical to a fresh
   monolithic run — live mode is a pure observer even across a kill.

Small fleet on purpose: the property is crash-time observability, not
scale (the scale story lives in bench_shard_smoke).
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
        "--live",
        *extra,
    ]


def test_kill9_monitor_and_resume(tmp_path):
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
    live_dir = os.path.join(cache_dir, "live")
    assert os.path.isdir(live_dir), "live run left no op-log directory"
    assert any(
        n.endswith(".jsonl") for n in os.listdir(live_dir)
    ), "live run left no op-log files"
    print()
    print(
        f"killed mid-run: {killed} "
        f"({len(survivors)}/{SHARDS} shards committed at kill time)"
    )

    # Post-mortem: the monitor must render from the op-log of a dead
    # run and drop a Prometheus snapshot next to it.
    monitor = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "monitor",
            cache_dir,
            "--once",
            "--no-clear",
        ],
        env=env,
        cwd=str(REPO_ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    print(monitor.stdout)
    assert monitor.returncode == 0, monitor.stderr
    assert "phones" in monitor.stdout
    prom_path = os.path.join(cache_dir, "metrics.prom")
    assert os.path.exists(prom_path), "monitor wrote no metrics.prom"
    with open(prom_path, "r", encoding="utf-8") as handle:
        prom = handle.read()
    assert "repro_live_phones_total" in prom

    # Resume with live telemetry still on; --verify reruns the
    # campaign monolithically and exits 1 unless bit-identical.
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
    assert resumed.returncode == 0, resumed.stderr

    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["verified"] is True
    if killed:
        counters = report["counters"]
        assert counters.get("executor.resumed_shards_total", 0) >= 1
