#!/usr/bin/env python3
"""Multi-seed sweep through the parallel campaign runner.

The paper's campaign is one draw of one fleet; this sweep re-runs it
under many seeds at once (one worker process per campaign), then
reports the band every headline metric falls in — the reproduction's
robustness evidence.  ``--cache DIR`` is the run directory: every
campaign's shards are committed there, so re-running the sweep adopts
them and executes nothing (and a killed sweep resumes)::

    python examples/seed_sweep.py --seeds 11,22,33 --workers 4
    python examples/seed_sweep.py --phones 12 --months 10 --cache .sweep/
"""

import argparse

from repro.analysis.tables import render_table
from repro.core.clock import MONTH
from repro.experiments.compare import headline_comparison
from repro.experiments.config import CampaignConfig
from repro.experiments.runner import run_campaigns_resilient
from repro.phone.fleet import FleetConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="11,22,33")
    parser.add_argument("--phones", type=int, default=6)
    parser.add_argument("--months", type=float, default=2.0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--cache", metavar="DIR", default=None)
    args = parser.parse_args()

    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    configs = [
        CampaignConfig(
            fleet=FleetConfig(
                phone_count=args.phones, duration=args.months * MONTH
            ),
            seed=seed,
        )
        for seed in seeds
    ]

    manifest = run_campaigns_resilient(
        configs, workers=args.workers, run_dir=args.cache, retries=0
    )
    summaries = manifest.summaries_or_raise()

    rows = []
    for summary in summaries:
        availability = summary.availability
        rows.append(
            (
                summary.seed,
                availability["freeze_count"],
                availability["self_shutdown_count"],
                f"{availability['failure_interval_days']:.1f}",
                f"{summary.panics['access_violation_percent']:.1f}",
                f"{summary.pooled_failure_rate_per_khr:.2f}",
            )
        )
    print(f"Sweep over seeds {seeds} ({args.phones} phones, {args.months:g} months)")
    print(
        render_table(
            ("Seed", "Freezes", "Self-shut", "Fail (d)", "KE-3 (%)", "Rate/1000h"),
            rows,
        )
    )
    print()
    print(headline_comparison(summaries[0]).render())
    if args.cache:
        executed = len(summaries) - manifest.resumed
        print(f"\nrun dir: {manifest.resumed} resumed, {executed} executed")


if __name__ == "__main__":
    main()
