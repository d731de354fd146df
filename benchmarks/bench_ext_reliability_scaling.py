"""EXT — reliability modelling and the larger-fleet scaling study.

Two extensions beyond the paper's §6:

* fit the inter-failure time distribution (exponential vs Weibull) —
  the shape parameter tells whether the hazard is constant, which the
  bare MTBF cannot;
* the §7 plan "conducting experiments on a larger set of phones",
  replayed: fleets of 10/25/50 phones, measuring how the pooled MTBF
  estimate's precision improves with the event count (~1/sqrt(n)).
"""

import math
import os

from repro.analysis.reliability import compute_reliability
from repro.analysis.tables import render_table
from repro.core.clock import MONTH
from repro.experiments.config import CampaignConfig
from repro.experiments.runner import run_campaigns
from repro.phone.fleet import FleetConfig

FLEET_SIZES = [10, 25, 50]
WORKERS = min(3, os.cpu_count() or 1)


def test_ext_reliability_fits(benchmark, campaign):
    rel = benchmark(compute_reliability, campaign.report.study)

    rows = []
    for kind in ("freeze", "self_shutdown", "combined"):
        stats = rel[kind]
        rows.append(
            (
                kind,
                stats.sample_size,
                f"{stats.mean_hours:.0f}",
                f"{stats.weibull_shape:.3f}",
                f"{stats.exponential.ks_pvalue:.2f}",
                f"{stats.weibull.ks_pvalue:.2f}",
                stats.preferred_model,
            )
        )
    print()
    print(
        "Inter-failure time modelling\n"
        + render_table(
            (
                "Kind",
                "n",
                "Mean (h)",
                "Weibull shape",
                "KS p (exp)",
                "KS p (weibull)",
                "Preferred",
            ),
            rows,
        )
    )
    benchmark.extra_info["results"] = rows

    # The failure process is memoryless-dominated: shape ~ 1 and the
    # exponential model is not rejected.
    for kind in ("freeze", "self_shutdown", "combined"):
        assert 0.8 < rel[kind].weibull_shape < 1.25
    assert rel["combined"].exponential.ks_pvalue > 0.01


def test_ext_fleet_scaling(benchmark):
    """MTBF estimation precision vs fleet size."""

    def sweep():
        configs = [
            CampaignConfig(
                fleet=FleetConfig(
                    phone_count=size,
                    duration=14 * MONTH,
                    enroll_fraction_min=0.15,
                    enroll_fraction_max=0.97,
                ),
                seed=31,
            )
            for size in FLEET_SIZES
        ]
        out = []
        for size, summary in zip(
            FLEET_SIZES, run_campaigns(configs, workers=WORKERS)
        ):
            availability = summary.availability
            events = (
                availability["freeze_count"]
                + availability["self_shutdown_count"]
            )
            out.append(
                (
                    size,
                    events,
                    availability["mtbf_freeze_hours"],
                    availability["failure_interval_days"],
                )
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        (
            size,
            events,
            f"{mtbf:.0f}",
            f"{interval:.1f}",
            f"{100.0 / math.sqrt(max(events, 1)):.1f}%",
        )
        for size, events, mtbf, interval in results
    ]
    print()
    print(
        "Fleet scaling: MTBF estimate precision vs fleet size\n"
        + render_table(
            (
                "Phones",
                "HL events",
                "MTBFr (h)",
                "Failure interval (d)",
                "Rel. precision",
            ),
            rows,
        )
    )
    benchmark.extra_info["results"] = rows

    # More phones -> more events -> tighter estimates; and the estimates
    # themselves agree across scales (same per-phone process).
    event_counts = [events for _s, events, _m, _i in results]
    assert event_counts == sorted(event_counts)
    mtbfs = [mtbf for _s, _e, mtbf, _i in results]
    assert max(mtbfs) / min(mtbfs) < 1.5
