"""Where the benchmark lives and what it declares (standard library
only, so every entry point can read it before ``repro`` is imported)."""

from __future__ import annotations

import json
import os

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: ``BENCHMARK.json``, ``src/``, ``.bench_work/``.
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
WORKLOADS = ("paper", "wide", "sharded", "analyze")


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics with units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def committed_digests() -> dict:
    """Seed-2005 output digests per workload, at the benchmark scale."""
    with open(os.path.join(SUITE_DIR, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)
