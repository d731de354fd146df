"""Self-tests of the benchmark, at the tiny internal scale.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

They sit outside the tier-1 ``testpaths`` and take about half a minute.
"""

from __future__ import annotations

import pytest

from benchmarks.suite import measure
from benchmarks.suite.compare import classify
from benchmarks.suite.layers import span_seconds
from benchmarks.suite.sampler import LAYERS, layer_of
from benchmarks.suite.spec import WORKLOADS, committed_digests, load_spec
from benchmarks.suite.workloads import make_workload

SPEC = load_spec()
SEED = 11


@pytest.fixture(scope="module")
def untraced():
    # seconds=0: exactly one timed unit per workload.
    return {w: measure.run(w, SEED, seconds=0.0, scale="tiny") for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {
        w: measure.run(w, SEED, seconds=0.0, trace=True, scale="tiny") for w in WORKLOADS
    }


def assert_declared(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_declaration(untraced, workload):
    result = untraced[workload].result
    assert_declared(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_the_declaration(traced, workload):
    result = traced[workload].result
    assert_declared(result, SPEC["per_layer"])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if values["simulate.samples"]:
        shares = sum(values[f"simulate.share.{layer}"] for layer in LAYERS)
        assert shares == pytest.approx(1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_are_non_negative_and_nest_within_the_unit(traced, workload):
    outcome = traced[workload]
    tracer = outcome.tracer
    for span in tracer.finished:
        children = sum(child.wall_duration for child in span.children)
        assert span.wall_duration - children >= -1e-9, span
    self_total = sum(self_s for _wall, self_s in span_seconds(tracer).values())
    assert all(self_s >= 0 for _wall, self_s in span_seconds(tracer).values())
    assert self_total <= outcome.traced.wall + 1e-5
    assert len(tracer.roots) == 1 and tracer.roots[0].wall_duration == outcome.traced.wall


def test_digests_repeat_and_wide_equals_sharded(tmp_path):
    digests = {}
    for name in WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        workload = make_workload(name, SEED, "tiny", str(workdir))
        first, second = (workload.inspect(0, workload.run(0)) for _ in range(2))
        assert first.digest == second.digest and not first.problems
        digests[name] = first.digest
    assert digests["wide"] == digests["sharded"]


def test_committed_digests_cover_every_workload():
    committed = committed_digests()
    assert sorted(committed) == sorted(WORKLOADS)
    assert committed["wide"] == committed["sharded"]


def test_sampler_maps_modules_to_layers():
    assert layer_of("repro.core.engine") == "core.engine"
    assert layer_of("repro.core.events") == "core.events"
    assert layer_of("repro.symbian.servers.apparch") == "symbian"
    assert layer_of("repro.logger.transfer") == "logger.transfer"
    assert layer_of("repro.logger.daemon") == "logger"
    assert layer_of("repro.phone.user") == "phone"
    assert layer_of("repro.core.rand") == "other"


def paired(base: float, changes: list) -> tuple:
    parent = [base * (1 + 0.002 * (i % 3)) for i in range(10)]
    return parent, [p * c for p, c in zip(parent, changes)]


def test_compare_claims_a_gain_at_nine_of_ten_wins():
    parent, change = paired(100.0, [1.05] * 9 + [0.99])
    assert classify("events_per_s", parent, change, "higher", 0.1).status == "gain"


def test_compare_refuses_a_gain_at_eight_of_ten_wins():
    parent, change = paired(100.0, [1.05] * 8 + [0.99] * 2)
    verdict = classify("events_per_s", parent, change, "higher", 0.1)
    assert verdict.status == "no-regression" and verdict.wins == 8


def test_compare_reports_a_regression_beyond_the_bound():
    parent, change = paired(10.0, [1.2] * 10)
    assert classify("cpu_us_per_line", parent, change, "lower", 0.1).status == "regression"


def test_compare_is_unresolved_when_the_spread_exceeds_the_bound():
    parent = [100.0, 60.0, 140.0, 80.0, 120.0, 100.0, 60.0, 140.0, 80.0, 120.0]
    change = [p * (0.98 if i % 2 else 1.01) for i, p in enumerate(parent)]
    assert classify("events_per_s", parent, change, "higher", 0.1).status == "unresolved"
    better = [200.0 + i for i in range(10)]
    assert classify("events_per_s", parent, better, "higher", 0.1).status == "gain"
