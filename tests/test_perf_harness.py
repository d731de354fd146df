"""The perf harness behind ``repro perf`` and the CI perf gates.

``measure_campaign`` times ``run_campaign`` itself, so its counts must
be the campaign's own; the two gates built on it must flag exactly the
drift they promise to (bit-exact counters; CPU seconds when the
baseline records them, wall seconds otherwise).
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.config import CampaignConfig
from repro.experiments.perf import (
    PerfResult,
    check_counters,
    check_regression,
    measure_campaign,
)
from repro.observability.telemetry import TELEMETRY_METRICS, Telemetry


def perf_result(**overrides) -> PerfResult:
    fields = dict(
        phones=3,
        months=1.0,
        seed=7,
        repeats=1,
        wall_seconds=2.0,
        events_fired=100,
        events_per_second=50.0,
        records_collected=10,
        cpu_seconds=1.0,
        counter_totals={"a_total": 3.0, "b_total": 4.0},
    )
    fields.update(overrides)
    return PerfResult(**fields)


def test_measure_campaign_reports_the_campaigns_own_counts():
    config = CampaignConfig.tiny(seed=7)
    result = measure_campaign(config, repeats=2)
    tel = Telemetry(TELEMETRY_METRICS)
    reference = run_campaign(config, telemetry=tel)
    assert result.events_fired == reference.fleet.sim.events_fired > 0
    assert result.records_collected == reference.fleet.collector.total_lines
    assert result.counter_totals == tel.registry.counter_totals()
    assert len(result.all_wall_seconds) == len(result.all_cpu_seconds) == 2
    assert result.wall_seconds == min(result.all_wall_seconds)
    assert result.cpu_seconds in result.all_cpu_seconds
    data = result.to_dict()
    assert data["config"] == {"phones": 3, "months": 1.0, "seed": 7, "repeats": 2}
    assert "counters" in data and "profile" not in data


def test_measure_campaign_profile_and_no_counters():
    result = measure_campaign(
        CampaignConfig.tiny(seed=7), profile=True, profile_top=3, counters=False
    )
    assert result.counter_totals is None
    assert len(result.profile_top) == 3
    assert "profile (separate run" in result.render()
    with pytest.raises(ValueError, match="repeats"):
        measure_campaign(CampaignConfig.tiny(), repeats=0)


def test_check_counters_reports_drifted_and_missing_counters():
    result = perf_result()
    ok, message = check_counters(
        result, {"counters": {"a_total": 3.0, "b_total": 4.0}}
    )
    assert ok and "2 counters bit-identical" in message
    ok, message = check_counters(
        result, {"optimized": {"counters": {"a_total": 5.0, "c_total": 1.0}}}
    )
    assert not ok
    assert "a_total: 3 != 5" in message
    assert "c_total: missing (expected 1)" in message
    ok, message = check_counters(
        perf_result(counter_totals=None), {"counters": {"a_total": 1}}
    )
    assert not ok and "no counters measured" in message


def test_check_regression_prefers_cpu_and_falls_back_to_wall():
    result = perf_result(wall_seconds=10.0, cpu_seconds=1.0)
    # The baseline records CPU seconds: the wall blow-up is ignored.
    ok, message = check_regression(
        result, {"optimized": {"wall_seconds": 1.0, "cpu_seconds": 1.0}}
    )
    assert ok and message.startswith("cpu 1.000 s")
    ok, message = check_regression(
        result, {"wall_seconds": 10.0, "cpu_seconds": 0.5}
    )
    assert not ok and "2.00x" in message
    # An old baseline without CPU seconds gates on wall time.
    ok, message = check_regression(result, {"wall_seconds": 4.0})
    assert not ok and message.startswith("wall 10.000 s")
    ok, _ = check_regression(result, {"wall_seconds": 4.0}, threshold=3.0)
    assert ok
