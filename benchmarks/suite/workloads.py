"""The benchmark's four workloads: inputs made from a seed, one timed
unit of work, and the checks that the unit's output is right.

Each workload splits a unit into ``run(i)``, which is the timed call
into the program, and ``inspect(i, output)``, which is untimed: it
digests the output and checks the accounting identities on it.  The
traced run (:mod:`benchmarks.suite.layers`) makes the same calls with
the layers' functions wrapped in spans.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Dict, List

from benchmarks.suite.spec import ROOT
from repro.cli import main as repro_main
from repro.core.clock import MONTH
from repro.experiments.cache import CampaignCache
from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import EXECUTOR_WORKQUEUE
from repro.experiments.shard import (
    load_shard_file,
    run_sharded_campaign,
    scan_committed_shards,
)
from repro.phone.fleet import FleetConfig

#: The seed whose output digests are committed in ``digests.json``.
DIGEST_SEED = 2005
#: Worker processes of ``sharded`` (the benchmark host has two cores).
WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``bench`` is the benchmark; ``tiny`` keeps the
    self-tests fast while running every code path."""

    paper_phones: int
    paper_months: float
    wide_phones: int
    wide_months: float
    analyze_phones: int
    analyze_months: float
    shards: int
    #: Paper-scale campaigns per run (see :class:`Paper`).
    ensemble: int


SCALES = {
    "bench": Scale(
        paper_phones=25, paper_months=14.0, wide_phones=1000,
        wide_months=0.25, analyze_phones=400, analyze_months=1.0,
        shards=8, ensemble=8,
    ),
    "tiny": Scale(
        paper_phones=3, paper_months=1.0, wide_phones=40,
        wide_months=0.25, analyze_phones=6, analyze_months=1.0,
        shards=4, ensemble=2,
    ),
}


def campaign_config(phones: int, months: float, seed: int) -> CampaignConfig:
    """At 25 phones x 14 months this is ``CampaignConfig.paper_scale``."""
    return CampaignConfig(
        fleet=FleetConfig(phone_count=phones, duration=months * MONTH), seed=seed
    )


def summary_digest(ground_truth: Dict[str, Any], sections: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON of a campaign's ground truth and
    report sections: equal digests mean bit-identical summaries."""
    text = json.dumps(
        {"ground_truth": ground_truth, "sections": sections},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Unit:
    """What one unit produced, reduced to what the checks need."""

    #: Names the unit's input; units with the same key must produce the
    #: same digest.
    key: str
    digest: str
    events: int
    lines: int
    problems: List[str] = field(default_factory=list)


def campaign_unit(key: str, result) -> Unit:
    """Digest a :class:`CampaignResult` and check that every collected
    entry was either ingested or quarantined.  (The panic law needs the
    logger's own counter, so the traced run checks it.)"""
    lines = result.fleet.collector.total_lines
    records = sum(log.record_count for log in result.dataset.logs.values())
    quarantined = result.dataset.ingest_report.quarantined
    problems = []
    if lines != records + quarantined:
        problems.append(
            f"entries collected {lines} != records ingested {records} "
            f"+ quarantined {quarantined}"
        )
    return Unit(
        key=key,
        digest=summary_digest(result.ground_truth, result.report.to_dict()),
        events=result.fleet.sim.events_fired,
        lines=lines,
        problems=problems,
    )


class Workload:
    """One benchmark workload, built from a seed.  ``scale`` names an
    entry of ``SCALES``; ``workdir`` is a scratch directory inside the
    checkout that the caller removes."""

    name = ""
    #: Run one untimed unit before timing starts.
    warmup = False
    #: Units in one pass over the inputs; a run holds whole passes.
    group = 1

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        self.seed = seed
        self.scale = SCALES[scale]
        self.workdir = workdir

    def run(self, index: int) -> Any:
        raise NotImplementedError

    def inspect(self, index: int, output: Any) -> Unit:
        raise NotImplementedError


class Paper(Workload):
    """Few long-lived phones with dense event streams.

    A run makes whole passes over an ensemble of paper-scale campaigns:
    the first has ``--seed`` itself, the rest have seeds drawn from it.
    One 25-phone fleet's size and event mix swing with its seed by
    about ±20%, so a single campaign would make the seed, not the code,
    set the number.
    """

    name = "paper"
    warmup = True

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        draw = random.Random(seed)
        seeds = [seed] + [
            draw.randrange(1, 2**31) for _ in range(self.scale.ensemble - 1)
        ]
        self.configs = [
            campaign_config(self.scale.paper_phones, self.scale.paper_months, s)
            for s in seeds
        ]
        self.group = len(self.configs)
        #: The ``--seed`` campaign itself (what the traced run runs).
        self.config = self.configs[0]

    def config_at(self, index: int) -> CampaignConfig:
        return self.configs[index % len(self.configs)]

    def run(self, index: int):
        return run_campaign(self.config_at(index))

    def inspect(self, index: int, output) -> Unit:
        return campaign_unit(str(self.config_at(index).seed), output)


class Wide(Workload):
    """Many short-lived phones in one process: the mega-fleet shape,
    where per-phone fixed costs and the event queue grow."""

    name = "wide"

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        self.config = campaign_config(
            self.scale.wide_phones, self.scale.wide_months, seed
        )

    def run(self, index: int):
        return run_campaign(self.config)

    def inspect(self, index: int, output) -> Unit:
        return campaign_unit(str(self.seed), output)


class Sharded(Workload):
    """The ``wide`` campaign through the shard path: work-stealing
    workers, durable commits and the streaming merge."""

    name = "sharded"

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        self.config = campaign_config(
            self.scale.wide_phones, self.scale.wide_months, seed
        )
        self.spill_dir = ""
        self.lines = 0
        #: The last unit's :class:`MegafleetResult` (the traced run
        #: replays its tiling and quotes its executor counters).
        self.last = None

    def run(self, index: int):
        self.spill_dir = tempfile.mkdtemp(prefix="spill-", dir=self.workdir)
        return run_sharded_campaign(
            self.config,
            shards=self.scale.shards,
            workers=WORKERS,
            executor=EXECUTOR_WORKQUEUE,
            spill_dir=self.spill_dir,
        )

    def inspect(self, index: int, output) -> Unit:
        self.last = output
        summary = output.summary
        problems = []
        stats = output.stats
        if stats.task_retries or stats.worker_restarts or stats.watchdog_fires:
            problems.append(
                f"executor recovered from failures: {stats.task_retries} "
                f"retries, {stats.worker_restarts} restarts, "
                f"{stats.watchdog_fires} watchdog fires"
            )
        # Work stealing may tile each unit differently, so every unit's
        # commits are checked against its own executed tiling.
        committed = scan_committed_shards(CampaignCache(self.spill_dir), self.config)
        covered = [shard.phone_range for shard in committed]
        if covered != output.shard_ranges:
            problems.append(
                f"committed ranges {covered} != executed ranges "
                f"{output.shard_ranges}"
            )
        if not self.lines:
            # Fixed by the seed, so counted once: every record and
            # quarantined line the shards ingested.
            for shard in committed:
                result = load_shard_file(shard.path)
                self.lines += (
                    result.accumulator.record_count + result.ingest.quarantined
                )
        shutil.rmtree(self.spill_dir, ignore_errors=True)
        return Unit(
            key=str(self.seed),
            digest=summary_digest(summary.ground_truth, summary.sections),
            events=output.events_fired,
            lines=self.lines,
            problems=problems,
        )


class Analyze(Workload):
    """Offline analysis of exported logs: ``repro analyze DIR``.

    The logs come from a campaign collected over a ``FaultPlan.mild``
    link, simulated untimed in a child process so that its memory never
    counts in this process's peak RSS.  The text parser, the quarantine
    path and the report do all the timed work.  The campaign has as
    many log lines as a paper-scale one but 400 phones observed for a
    month: spread over 25 phones, the line count (and with it the
    parse rate and peak RSS) swings with the seed by ±15%.
    """

    name = "analyze"

    def __init__(self, seed: int, scale: str, workdir: str) -> None:
        super().__init__(seed, scale, workdir)
        self.config = campaign_config(
            self.scale.analyze_phones, self.scale.analyze_months, seed
        )
        self.logs = os.path.join(workdir, "logs")
        source = run_fresh("export", seed=seed, scale=scale, logs=self.logs)
        #: Events the simulation fired to produce these logs.
        self.events = int(source["events_fired"])
        self.lines = int(source["lines"])

    def run(self, index: int):
        out = io.StringIO()
        with redirect_stdout(out):
            code = repro_main(
                ["analyze", self.logs, "--end-time", repr(self.config.fleet.duration)]
            )
        return code, out.getvalue()

    def inspect(self, index: int, output) -> Unit:
        code, text = output
        problems = [] if code == 0 else [f"repro analyze exited {code}"]
        return Unit(
            key=str(self.seed),
            digest=text_digest(text),
            events=self.events,
            lines=self.lines,
            problems=problems,
        )


CLASSES = {cls.name: cls for cls in (Paper, Wide, Sharded, Analyze)}


def make_workload(name: str, seed: int, scale: str, workdir: str) -> Workload:
    return CLASSES[name](seed, scale, workdir)


def run_fresh(op: str, **args: Any) -> Dict[str, Any]:
    """Run :mod:`benchmarks.suite.fresh` in a new interpreter; returns
    the JSON object it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = tempfile.gettempdir()
    argv = [sys.executable, "-m", "benchmarks.suite.fresh", op]
    for key, value in args.items():
        argv += [f"--{key}", str(value)]
    done = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"fresh interpreter ({op}) exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])
