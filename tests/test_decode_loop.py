"""The text door's decode loop against its per-line reference.

:func:`parse_lines` is :func:`parse_line` unrolled into one loop, with
RUNAPP apps fields decoded through a memo that lives for one call.
These tests pin the two equal on an export that reaches every
corruption class: same records, same quarantine calls in the same
order (line, class and message), and a memo that neither changes a
record nor outlives its call.
"""

from __future__ import annotations

import pytest

from repro.analysis.ingest import (
    CORRUPTION_BAD_VALUE,
    CORRUPTION_FIELD_COUNT,
    CORRUPTION_UNKNOWN_TAG,
    classify_malformed,
)
from repro.core.errors import LogFormatError
from repro.core.records import RunningAppsRecord
from repro.experiments.config import CampaignConfig
from repro.logger.logfile import FIELD_SEPARATOR, parse_line, parse_lines
from repro.logger.transfer import CollectionServer, load_lines_from_dir
from repro.phone.fleet import Fleet
from repro.robustness import FaultPlan, FaultyLink


@pytest.fixture(scope="module")
def faulty_export(tmp_path_factory):
    """phone_id -> lines of a tiny campaign collected over a
    ``FaultPlan.mild`` link, exported and read back from disk."""
    config = CampaignConfig.tiny(7)
    link = FaultyLink(FaultPlan.mild().scaled(1.0))
    fleet = Fleet(config.fleet, seed=config.seed, collector=CollectionServer(link=link))
    fleet.run()
    directory = tmp_path_factory.mktemp("faulty-export")
    fleet.collector.export_to_dir(str(directory))
    return load_lines_from_dir(str(directory))


def reference_parse(lines):
    """Per-line :func:`parse_line`, skipping blank lines like the loop."""
    records, quarantined = [], []
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(parse_line(line))
        except LogFormatError as exc:
            quarantined.append((line, classify_malformed(line, exc), str(exc)))
    return records, quarantined


def loop_parse(lines):
    quarantined = []

    def on_error(line, exc):
        quarantined.append((line, classify_malformed(line, exc), str(exc)))

    return list(parse_lines(lines, on_error=on_error)), quarantined


class TestDifferential:
    def test_loop_equals_per_line_reference(self, faulty_export):
        classes = set()
        for phone_id, lines in faulty_export.items():
            records, quarantined = loop_parse(lines)
            assert (records, quarantined) == reference_parse(lines), phone_id
            classes.update(cls for _, cls, _ in quarantined)
        # Not vacuous: the export reached every corruption class.
        assert classes == {
            CORRUPTION_BAD_VALUE,
            CORRUPTION_FIELD_COUNT,
            CORRUPTION_UNKNOWN_TAG,
        }

    def test_strict_mode_raises_the_reference_error(self, faulty_export):
        for lines in faulty_export.values():
            _, quarantined = reference_parse(lines)
            if quarantined:
                break
        else:
            pytest.fail("no phone log holds a quarantined line")
        with pytest.raises(LogFormatError) as raised:
            list(parse_lines(lines, strict=True))
        assert str(raised.value) == quarantined[0][2]

    def test_undecodable_line_matches_reference(self):
        lines = ["RUNAPP|12.000|Cam\udcff\udcfeera", "RUNAPP|13.000|Camera"]
        records, quarantined = loop_parse(lines)
        assert (records, quarantined) == reference_parse(lines)
        assert [cls for _, cls, _ in quarantined] == [CORRUPTION_BAD_VALUE]
        assert records == [RunningAppsRecord(13.0, ("Camera",))]


class TestAppsMemo:
    def test_memoised_apps_equal_fresh_decodes(self, faulty_export):
        memo = {}
        checked = 0
        for lines in faulty_export.values():
            for line in lines:
                tag, _, rest = line.strip().partition(FIELD_SEPARATOR)
                if tag != RunningAppsRecord.TAG:
                    continue
                fields = rest.split(FIELD_SEPARATOR)
                try:
                    fresh = RunningAppsRecord.from_fields(fields)
                except LogFormatError:
                    continue
                assert RunningAppsRecord.from_fields(fields, memo) == fresh
                assert memo[fields[1]] == fresh.apps
                checked += 1
        assert 0 < len(memo) < checked

    def test_one_call_shares_one_tuple_per_app_set(self, faulty_export):
        lines = max(faulty_export.values(), key=len)
        runapps = [r for r in parse_lines(lines) if isinstance(r, RunningAppsRecord)]
        distinct = {r.apps for r in runapps}
        assert len({id(r.apps) for r in runapps}) == len(distinct) < len(runapps)

    def test_two_calls_do_not_share_a_memo(self, faulty_export):
        lines = max(faulty_export.values(), key=len)
        first = [r for r in parse_lines(lines) if isinstance(r, RunningAppsRecord)]
        second = [r for r in parse_lines(lines) if isinstance(r, RunningAppsRecord)]
        assert first == second
        non_empty = [(a, b) for a, b in zip(first, second) if a.apps]
        assert non_empty
        assert all(a.apps is not b.apps for a, b in non_empty)
