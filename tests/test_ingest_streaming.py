"""`repro analyze` ingest holds one phone's log at a time.

``load_lines_from_dir`` reads a file only when its phone is looked up,
and ``Dataset.from_lines`` looks each phone up when its turn comes, so
peak memory during ingest is the finished dataset plus about one
file's text, not the whole export.
"""

import os
import tracemalloc
import weakref
from collections.abc import Mapping

import pytest

from repro.analysis.ingest import Dataset
from repro.logger.transfer import LOG_EXTENSION, load_lines_from_dir

#: Largest allowed ingest overshoot, in multiples of the largest file.
MAX_OVERSHOOT = 4.0


def ingest_overshoot(directory: str) -> float:
    """Traced peak above the finished dataset during
    ``Dataset.from_lines(load_lines_from_dir(directory))``, as a
    multiple of the largest ``.log`` file's size in bytes."""
    tracemalloc.start()
    try:
        dataset = Dataset.from_lines(load_lines_from_dir(directory))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset.phone_count
    largest = max(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(LOG_EXTENSION)
    )
    return (peak - current) / largest


@pytest.fixture(scope="module")
def exported(tmp_path_factory, quick_campaign):
    directory = tmp_path_factory.mktemp("logs")
    quick_campaign.fleet.collector.export_to_dir(str(directory))
    return directory


class Lines(list):
    """A list that a weak reference can watch."""


class WatchedSource(Mapping):
    """phone_id -> a fresh :class:`Lines` per lookup, noting at each
    lookup how many earlier phones' lists are still alive."""

    def __init__(self, lines_by_phone):
        self._lines_by_phone = lines_by_phone
        self._refs = []
        self.alive_at_lookup = []

    def __getitem__(self, phone_id):
        self.alive_at_lookup.append(sum(ref() is not None for ref in self._refs))
        lines = Lines(self._lines_by_phone[phone_id])
        self._refs.append(weakref.ref(lines))
        return lines

    def __iter__(self):
        return iter(self._lines_by_phone)

    def __len__(self):
        return len(self._lines_by_phone)


class TestOnePhoneAtATime:
    def test_overshoot_is_about_one_file(self, exported):
        assert ingest_overshoot(str(exported)) <= MAX_OVERSHOOT

    def test_previous_phone_lines_dead_before_next_read(self, exported):
        source = WatchedSource(dict(load_lines_from_dir(str(exported))))
        dataset = Dataset.from_lines(source)
        assert len(source.alive_at_lookup) == len(source) > 1
        assert source.alive_at_lookup == [0] * len(source)
        assert dataset.phone_count == len(source)
