"""Tests for dataset ingestion."""

import random

import pytest

from repro.analysis.ingest import (
    MAX_QUARANTINE_SAMPLES,
    Dataset,
    IngestReport,
    PhoneLog,
)
from repro.analysis.streaming import CampaignAccumulator
from repro.core.errors import AnalysisError, LogFormatError
from repro.core.records import (
    ActivityRecord,
    BootRecord,
    EnrollRecord,
    PanicRecord,
    PowerRecord,
    RunningAppsRecord,
)
from repro.logger.logfile import parse_line, serialize_record
from tests.helpers import dataset_from_records, random_fleet_records


def sample_records():
    return [
        EnrollRecord(0.0, "phone-00", "8.0", "Italy"),
        BootRecord(0.0, "NONE", 0.0),
        RunningAppsRecord(0.0, ()),
        ActivityRecord(10.0, "voice_call", "start"),
        PanicRecord(20.0, "KERN-EXEC", 3, "Telephone"),
        ActivityRecord(30.0, "voice_call", "end"),
        PowerRecord(40.0, 0.9, "discharging"),
    ]


class TestIngestion:
    def test_records_sorted_into_streams(self):
        dataset = dataset_from_records({"phone-00": sample_records()}, end_time=3600)
        log = dataset.logs["phone-00"]
        assert log.enroll is not None
        assert len(log.boots) == 1
        assert len(log.panics) == 1
        assert len(log.activities) == 2
        assert len(log.runapps) == 1
        assert len(log.power) == 1
        assert log.record_count == 7

    def test_corrupt_lines_skipped(self):
        from repro.logger.logfile import serialize_record

        lines = [serialize_record(r) for r in sample_records()]
        lines.insert(2, "GARBAGE|LINE")
        dataset = Dataset.from_lines({"phone-00": lines}, end_time=3600)
        assert dataset.logs["phone-00"].record_count == 7

    def test_empty_dataset_rejected(self):
        with pytest.raises(AnalysisError):
            Dataset.from_lines({"phone-00": []}, end_time=100)

    def test_end_time_defaults_to_latest_record(self):
        dataset = dataset_from_records({"phone-00": sample_records()}, end_time=None)
        assert dataset.end_time == 40.0

    def test_invalid_end_time_rejected(self):
        with pytest.raises(AnalysisError):
            Dataset({"p": PhoneLog("p")}, end_time=0.0)

    @pytest.mark.parametrize("end_time", [float("nan"), float("inf")])
    def test_nonfinite_end_time_rejected(self, end_time):
        with pytest.raises(AnalysisError, match="finite"):
            Dataset({"p": PhoneLog("p")}, end_time=end_time)

    def test_phone_ids_sorted(self):
        dataset = dataset_from_records(
            {"phone-02": sample_records(), "phone-01": sample_records()},
            end_time=3600,
        )
        assert dataset.phone_ids() == ("phone-01", "phone-02")

    def test_all_panics_ordered_globally(self):
        dataset = dataset_from_records(
            {
                "a": [BootRecord(0.0, "NONE", 0.0), PanicRecord(50.0, "USER", 11, "X")],
                "b": [BootRecord(0.0, "NONE", 0.0), PanicRecord(25.0, "USER", 10, "Y")],
            },
            end_time=100,
        )
        panics = dataset.all_panics()
        assert [p.time for _pid, p in panics] == [25.0, 50.0]
        assert dataset.total_panics == 2

    def test_observed_hours_uses_enroll_time(self):
        dataset = dataset_from_records({"phone-00": sample_records()}, end_time=7200)
        assert dataset.logs["phone-00"].observed_hours(7200) == pytest.approx(2.0)

    def test_start_time_falls_back_to_first_boot(self):
        records = sample_records()[1:]  # drop enrollment
        dataset = dataset_from_records({"phone-00": records}, end_time=3600)
        assert dataset.logs["phone-00"].start_time == 0.0

    def test_start_time_falls_back_to_earliest_record(self):
        # Corruption ate the enroll and boot records: the earliest
        # surviving timestamp is the best lower bound.
        log = PhoneLog("p")
        log.panics.append(PanicRecord(5.0, "USER", 11, "X"))
        log.activities.append(ActivityRecord(2.0, "message", "start"))
        assert log.start_time == 2.0

    def test_start_time_truly_empty_raises(self):
        with pytest.raises(AnalysisError):
            _ = PhoneLog("p").start_time

    def test_from_collector(self, quick_campaign):
        # quick_campaign's dataset was built via from_collector already;
        # verify basic invariants hold on real collected data.
        dataset = quick_campaign.dataset
        assert dataset.phone_count == 6
        assert dataset.total_observed_hours() > 0
        for log in dataset.logs.values():
            assert log.boots, "every phone boots at least once"
            assert log.enroll is not None

    def test_repr(self):
        dataset = dataset_from_records({"phone-00": sample_records()}, end_time=3600)
        assert "phones=1" in repr(dataset)


class TestStructuredDispatch:
    """The structured door's exact-type dispatch."""

    def test_unknown_record_type_raises(self):
        class Alien:
            """Not a record at all."""

            time = 1.0

        with pytest.raises(AnalysisError, match="unknown record type"):
            Dataset.from_records(
                {"phone-00": [BootRecord(0.0, "NONE", 0.0), Alien()]},
                end_time=100.0,
            )


END_TIME = 30 * 24 * 3600.0


def mutate_lines(rng: random.Random, lines):
    """Deterministically corrupt a log: truncated tails, garbled tags,
    spurious extra fields — the corruption classes real logs show."""
    mutated = []
    for line in lines:
        roll = rng.random()
        if roll < 0.15:
            mutated.append(line[: rng.randrange(1, len(line))])
        elif roll < 0.25:
            mutated.append("X" + line)
        elif roll < 0.30:
            mutated.append(line + "|junk")
        else:
            mutated.append(line)
    return mutated


def corpus_lines(seed: int, phones: int):
    """A seeded fleet's logs with seeded mutations, plus the oracle: the
    per-phone count of lines the parser must reject."""
    records = random_fleet_records(seed, phones, END_TIME)
    lines = {}
    expected_bad = {}
    for phone_id, phone_records in records.items():
        phone_lines = mutate_lines(
            random.Random(seed ^ 0x5EED),
            [serialize_record(record) for record in phone_records],
        )
        lines[phone_id] = phone_lines
        bad = 0
        for line in phone_lines:
            try:
                parse_line(line)
            except LogFormatError:
                bad += 1
        expected_bad[phone_id] = bad
    return lines, expected_bad


class TestFuzzCorpus:
    """Seeded mutation corpus: quarantine accounting stays exact and
    shard merges never lose or double-count a phone."""

    @pytest.mark.parametrize("seed", [1, 17, 2005])
    def test_quarantine_counts_exact(self, seed):
        lines, expected_bad = corpus_lines(seed, phones=6)
        dataset = Dataset.from_lines(lines, end_time=END_TIME)
        report = dataset.ingest_report
        assert report.quarantined == sum(expected_bad.values())
        assert report.by_phone == {
            pid: bad for pid, bad in expected_bad.items() if bad
        }
        assert sum(report.by_class.values()) == report.quarantined
        for phone_id, phone_lines in lines.items():
            expected_records = len(phone_lines) - expected_bad[phone_id]
            if expected_records:
                assert (
                    dataset.logs[phone_id].record_count == expected_records
                )
            else:
                assert phone_id not in dataset.logs

    @pytest.mark.parametrize("seed", [3, 2005])
    def test_corrupt_shard_boundaries_merge_exactly(self, seed):
        """Splitting a corrupt corpus at a phone boundary and merging
        the shard partials reproduces the unsplit ingest bit-for-bit:
        accumulator state, quarantine totals, and sample order."""
        lines, _expected = corpus_lines(seed, phones=6)
        full_dataset = Dataset.from_lines(lines, end_time=END_TIME)
        full_acc = CampaignAccumulator.from_dataset(full_dataset)

        phone_ids = sorted(lines)
        split = len(phone_ids) // 2
        parts = [
            Dataset.from_lines(
                {pid: lines[pid] for pid in chunk}, end_time=END_TIME
            )
            for chunk in (phone_ids[:split], phone_ids[split:])
        ]
        merged_acc = CampaignAccumulator.from_dataset(parts[0]).merge(
            CampaignAccumulator.from_dataset(parts[1])
        )
        assert merged_acc == full_acc
        assert merged_acc.sections() == full_acc.sections()

        merged_report = parts[0].ingest_report.merge(parts[1].ingest_report)
        assert merged_report.to_dict() == full_dataset.ingest_report.to_dict()

    def test_duplicate_phone_across_shards_raises(self):
        """A phone appearing in two shards is a double-count, never a
        silent merge."""
        lines, _expected = corpus_lines(7, phones=3)
        acc_a = CampaignAccumulator.from_dataset(
            Dataset.from_lines(lines, end_time=END_TIME)
        )
        overlap_id = sorted(lines)[0]
        acc_b = CampaignAccumulator.from_dataset(
            Dataset.from_lines(
                {overlap_id: lines[overlap_id]}, end_time=END_TIME
            )
        )
        with pytest.raises(AnalysisError, match="double-count"):
            acc_a.merge(acc_b)


class TestIngestReport:
    def test_merge_counts_add_exactly(self):
        a = IngestReport()
        b = IngestReport()
        boom = LogFormatError("BOOT expects 3 fields, got 2")
        for _ in range(3):
            a.quarantine("phone-00", "BOOT|1.0", boom)
        for _ in range(2):
            b.quarantine("phone-00", "BOOT|2.0", boom)
        b.quarantine("phone-01", "junk", LogFormatError("unknown tag"))
        merged = a.merge(b)
        assert merged.quarantined == 6
        assert merged.by_phone == {"phone-00": 5, "phone-01": 1}
        assert sum(merged.by_class.values()) == 6
        assert not merged.clean

    def test_merge_caps_samples(self):
        a = IngestReport()
        b = IngestReport()
        boom = LogFormatError("unknown tag")
        for index in range(MAX_QUARANTINE_SAMPLES):
            a.quarantine("phone-00", f"a{index}", boom)
            b.quarantine("phone-01", f"b{index}", boom)
        merged = a.merge(b)
        assert len(merged.samples) == MAX_QUARANTINE_SAMPLES
        assert merged.samples == a.samples

    def test_wire_round_trip(self):
        report = IngestReport()
        report.quarantine("phone-00", "junk", LogFormatError("unknown tag"))
        revived = IngestReport.from_dict(report.to_dict())
        assert revived.to_dict() == report.to_dict()
