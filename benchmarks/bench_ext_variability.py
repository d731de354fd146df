"""EXT — fleet heterogeneity: do all phones fail alike?

Extends the paper's fleet-level averages with per-phone rates, a
Poisson-homogeneity test, and breakdowns by the enrollment metadata
(OS version, region) the logger records.  A second test checks the
*cross-campaign* face of the same question — the pooled fleet failure
rate must be stable across seeds — via the parallel sweep runner.
"""

import os

from repro.analysis.tables import render_table
from repro.analysis.variability import compute_variability
from repro.core.clock import MONTH
from repro.experiments.config import CampaignConfig
from repro.experiments.runner import run_campaigns
from repro.phone.fleet import FleetConfig


def test_ext_fleet_variability(benchmark, campaign):
    report = campaign.report
    stats = benchmark(compute_variability, report.accumulator, report.study)

    print()
    print(
        f"pooled failure rate: {stats.pooled_rate_per_khr:.2f} per 1000 h "
        f"(~every {1000.0 / max(stats.pooled_rate_per_khr, 1e-9) / 24:.1f} days)"
    )
    print(
        f"homogeneity: chi2={stats.chi_square:.1f} "
        f"(dof {stats.degrees_of_freedom}), p={stats.p_value:.3f} "
        f"-> {'heterogeneous' if stats.heterogeneous else 'homogeneous'}"
    )
    print(f"hottest/coolest phone rate ratio: {stats.min_max_rate_ratio:.1f}x")
    print()
    print(
        "By OS version\n"
        + render_table(
            ("Version", "Phones", "Hours", "Failures", "Rate/1000h"),
            [
                (
                    g.label,
                    g.phone_count,
                    f"{g.observed_hours:.0f}",
                    g.failures,
                    f"{g.rate_per_khr:.2f}",
                )
                for g in stats.by_os_version
            ],
        )
    )
    print()
    print(
        "By region\n"
        + render_table(
            ("Region", "Phones", "Hours", "Failures", "Rate/1000h"),
            [
                (
                    g.label,
                    g.phone_count,
                    f"{g.observed_hours:.0f}",
                    g.failures,
                    f"{g.rate_per_khr:.2f}",
                )
                for g in stats.by_region
            ],
        )
    )
    benchmark.extra_info["p_value"] = round(stats.p_value, 4)
    benchmark.extra_info["pooled_rate"] = round(stats.pooled_rate_per_khr, 3)

    # The methodological finding: heterogeneity across phones is mild
    # (behaviour-driven exposure differences, no outlier handsets) — at
    # this fleet size, only fleet-level conclusions are supportable.
    assert stats.chi_square < 3 * stats.degrees_of_freedom
    assert len(stats.phones) == 25
    # Groups share the fleet rate within a factor of two.
    for group in stats.by_os_version + stats.by_region:
        if group.failures >= 10:
            ratio = group.rate_per_khr / stats.pooled_rate_per_khr
            assert 0.5 < ratio < 2.0


def test_ext_rate_stability_across_seeds(benchmark):
    """The pooled failure rate is a property of the fault model, not of
    one lucky seed: re-drawn fleets must land within a factor of two of
    each other."""
    seeds = [101, 202, 303]
    configs = [
        CampaignConfig(
            fleet=FleetConfig(
                phone_count=10,
                duration=8 * MONTH,
                enroll_fraction_min=0.05,
                enroll_fraction_max=0.5,
            ),
            seed=seed,
        )
        for seed in seeds
    ]
    summaries = benchmark.pedantic(
        lambda: run_campaigns(configs, workers=min(3, os.cpu_count() or 1)),
        rounds=1,
        iterations=1,
    )

    rates = [summary.pooled_failure_rate_per_khr for summary in summaries]
    print()
    print(
        "Pooled failure rate across seeds\n"
        + render_table(
            ("Seed", "Rate/1000h"),
            [(seed, f"{rate:.2f}") for seed, rate in zip(seeds, rates)],
        )
    )
    benchmark.extra_info["rates"] = [round(rate, 3) for rate in rates]

    assert all(rate > 0 for rate in rates)
    assert max(rates) / min(rates) < 2.0
