"""Property tests for the streaming accumulator (:mod:`repro.analysis.streaming`).

The shard pipeline is only sound if accumulator merge behaves like a
commutative monoid over disjoint phone sets *and* merging per-phone
singletons reproduces the batch computation exactly.  These tests drive
:class:`CampaignAccumulator` with seeded random record streams
(:func:`tests.helpers.random_fleet_records`) and check each algebraic
law against full ``to_dict`` payloads and, section by section, against
the finalized report.
"""

from __future__ import annotations

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.coalescence import coalesce, hl_events_from_study
from repro.analysis.report import build_report
from repro.analysis.streaming import CampaignAccumulator
from repro.core.errors import AnalysisError
from tests.helpers import dataset_from_records, random_fleet_records

END_TIME = 30 * 24 * 3600.0

seeds = st.integers(min_value=0, max_value=2**32 - 1)
phone_counts = st.integers(min_value=1, max_value=5)


def build_accumulators(seed: int, phones: int):
    """The full-fleet accumulator plus one singleton per phone."""
    records = random_fleet_records(seed, phones, END_TIME)
    full = CampaignAccumulator.from_dataset(
        dataset_from_records(records, END_TIME)
    )
    singletons = [
        CampaignAccumulator.from_dataset(
            dataset_from_records({phone_id: phone_records}, END_TIME)
        )
        for phone_id, phone_records in records.items()
    ]
    return records, full, singletons


@given(seed=seeds, phones=phone_counts)
@settings(max_examples=25, deadline=None)
def test_merge_of_singletons_equals_batch(seed, phones):
    """Folding per-phone singletons in a random order reproduces the
    batch accumulator state *and* the batch report, bit-identically."""
    records, full, singletons = build_accumulators(seed, phones)
    random.Random(seed ^ 0xA5A5).shuffle(singletons)
    merged = functools.reduce(
        lambda a, b: a.merge(b), singletons, CampaignAccumulator(END_TIME)
    )
    assert merged == full
    assert merged.to_dict() == full.to_dict()
    batch = build_report(dataset_from_records(records, END_TIME)).to_dict()
    assert merged.sections() == batch


@given(seed=seeds, phones=st.integers(min_value=3, max_value=6))
@settings(max_examples=25, deadline=None)
def test_merge_is_associative(seed, phones):
    _records, _full, parts = build_accumulators(seed, phones)
    a, b = parts[0], parts[1]
    c = functools.reduce(lambda x, y: x.merge(y), parts[2:])
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left == right
    assert left.to_dict() == right.to_dict()


@given(seed=seeds, phones=st.integers(min_value=2, max_value=5))
@settings(max_examples=25, deadline=None)
def test_merge_is_commutative(seed, phones):
    _records, _full, parts = build_accumulators(seed, phones)
    split = len(parts) // 2
    a = functools.reduce(lambda x, y: x.merge(y), parts[:split] or [CampaignAccumulator(END_TIME)])
    b = functools.reduce(lambda x, y: x.merge(y), parts[split:])
    forward = a.merge(b)
    backward = b.merge(a)
    assert forward == backward
    assert forward.sections() == backward.sections()


@given(seed=seeds, phones=phone_counts)
@settings(max_examples=25, deadline=None)
def test_empty_accumulator_is_merge_identity(seed, phones):
    _records, full, _parts = build_accumulators(seed, phones)
    empty = CampaignAccumulator(END_TIME)
    assert empty.merge(full) == full
    assert full.merge(empty) == full
    assert empty.merge(empty).phone_count == 0


@given(seed=seeds, phones=phone_counts)
@settings(max_examples=25, deadline=None)
def test_wire_round_trip_preserves_state_and_sections(seed, phones):
    """to_dict -> JSON -> from_dict is lossless, even for finalize."""
    _records, full, _parts = build_accumulators(seed, phones)
    revived = CampaignAccumulator.from_dict(
        json.loads(json.dumps(full.to_dict()))
    )
    assert revived == full
    assert revived.sections() == full.sections()


@given(seed=seeds, phones=phone_counts)
@settings(max_examples=10, deadline=None)
def test_merge_rejects_overlapping_phones(seed, phones):
    _records, full, parts = build_accumulators(seed, phones)
    with pytest.raises(AnalysisError, match="double-count"):
        full.merge(parts[0])


def test_merge_rejects_mismatched_knobs():
    base = CampaignAccumulator(END_TIME)
    for other in (
        CampaignAccumulator(END_TIME + 1.0),
        CampaignAccumulator(END_TIME, window=123.0),
        CampaignAccumulator(END_TIME, gap=7.0),
        CampaignAccumulator(END_TIME, threshold=9.0),
    ):
        with pytest.raises(AnalysisError, match="cannot merge"):
            base.merge(other)


def test_rejects_nonpositive_knobs():
    with pytest.raises(AnalysisError):
        CampaignAccumulator(0.0)
    with pytest.raises(AnalysisError):
        CampaignAccumulator(END_TIME, window=0.0)
    with pytest.raises(AnalysisError):
        CampaignAccumulator(END_TIME, gap=-1.0)
    with pytest.raises(AnalysisError):
        CampaignAccumulator(END_TIME, threshold=-5.0)
    for bad in (float("nan"), float("inf")):
        for knobs in (
            {"end_time": bad},
            {"window": bad},
            {"gap": bad},
            {"threshold": bad},
        ):
            with pytest.raises(AnalysisError, match="positive and finite"):
                CampaignAccumulator(**{"end_time": END_TIME, **knobs})


@given(
    seed=seeds,
    phones=phone_counts,
    window=st.sampled_from([300.0, 200_000.0, 1_000_000.0]),
)
@settings(max_examples=25, deadline=None)
def test_per_phone_matching_equals_global_coalescence(seed, phones, window):
    """The fold matches each panic against its own phone's HL events;
    the Figure 4 :func:`coalesce` matches against the global event
    list.  Both must pick the same HL kind for every panic, with and
    without user shutdowns among the events."""
    dataset = dataset_from_records(
        random_fleet_records(seed, phones, END_TIME), END_TIME
    )
    acc = CampaignAccumulator.from_dataset(dataset, window=window)
    study = build_report(dataset, window=window).study

    def matched_kinds(include_user_shutdowns):
        events = hl_events_from_study(
            study, include_user_shutdowns=include_user_shutdowns
        )
        result = coalesce(dataset, events, window)
        return {
            id(match.panic): match.hl_event.kind for match in result.matches
        }

    matched = matched_kinds(False)
    matched_all = matched_kinds(True)
    for phone_id, log in dataset.logs.items():
        rows = acc.phones[phone_id]["panics"]
        assert len(rows) == len(log.panics)
        for panic, row in zip(log.panics, rows):
            assert row[3] == matched.get(id(panic))
            assert row[4] == (id(panic) in matched_all)


def test_from_dict_rejects_unknown_format_version():
    """Version 1 held eight per-section phone maps; its payloads are
    refused, never read as the one-partial format."""
    for version in (999, 1):
        payload = CampaignAccumulator(END_TIME).to_dict()
        payload["format_version"] = version
        with pytest.raises(AnalysisError, match="format version"):
            CampaignAccumulator.from_dict(payload)


def test_from_dict_rejects_a_partial_without_enroll():
    """A version-3 payload whose partial lacks the enrolment (the
    extension analyses group phones by it) is refused."""
    records = random_fleet_records(11, 2, END_TIME)
    payload = json.loads(
        json.dumps(
            CampaignAccumulator.from_dataset(
                dataset_from_records(records, END_TIME)
            ).to_dict()
        )
    )
    CampaignAccumulator.from_dict(payload)  # the intact payload loads
    partial = next(iter(payload["phones"].values()))
    del partial["enroll"]
    with pytest.raises(AnalysisError, match="malformed partial"):
        CampaignAccumulator.from_dict(payload)


# -- the laws again, one report section at a time ---------------------------

SECTIONS = (
    "shutdowns",
    "availability",
    "panics",
    "bursts",
    "hl",
    "activity",
    "runapps",
    "output_failures",
)


@pytest.mark.parametrize("name", sorted(SECTIONS), ids=str)
@given(seed=seeds, phones=st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None)
def test_section_accumulator_laws(name, seed, phones):
    """Each finalized report section is independent of merge order and
    grouping, and survives the wire; a failure names the section."""
    _records, full, parts = build_accumulators(seed, phones)
    expected = full.sections()[name]

    random.Random(seed ^ 0x0F0F).shuffle(parts)
    merged = functools.reduce(
        lambda a, b: a.merge(b), parts, CampaignAccumulator(END_TIME)
    )
    assert merged.sections()[name] == expected

    a, rest = parts[0], parts[1:]
    b = functools.reduce(lambda x, y: x.merge(y), rest)
    assert a.merge(b).sections()[name] == b.merge(a).sections()[name]

    revived = CampaignAccumulator.from_dict(json.loads(json.dumps(merged.to_dict())))
    assert revived.sections()[name] == expected


def test_add_phone_rejects_duplicate():
    records = random_fleet_records(7, 1, END_TIME)
    dataset = dataset_from_records(records, END_TIME)
    acc = CampaignAccumulator.from_dataset(dataset)
    phone_id, log = next(iter(dataset.logs.items()))
    with pytest.raises(AnalysisError, match="double-count"):
        acc.add_phone(phone_id, log)
