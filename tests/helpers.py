"""Test helpers: hand-built and seeded-random datasets for analysis tests."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List

from repro.analysis.ingest import Dataset
from repro.core.records import (
    ACTIVITY_KINDS,
    BEAT_ALIVE,
    BEAT_LOWBT,
    BEAT_MAOFF,
    BEAT_NONE,
    BEAT_REBOOT,
    PHASE_END,
    PHASE_START,
    POWER_STATES,
    REPORT_KINDS,
    ActivityRecord,
    BootRecord,
    EnrollRecord,
    PanicRecord,
    PowerRecord,
    RunningAppsRecord,
    UserReportRecord,
    wire_level,
    wire_time,
)
from repro.logger.logfile import serialize_record

#: Plausible Symbian panic (category, type, process) triples for
#: generated logs — safe for the wire format (no ``|`` or newlines).
PANIC_SHAPES = [
    ("KERN-EXEC", 3, "phone.exe"),
    ("E32USER-CBase", 46, "mce.exe"),
    ("USER", 11, "calendar.exe"),
    ("ViewSrv", 11, "menu.exe"),
    ("KERN-SVR", 0, "efile.exe"),
    ("EIKON-LISTBOX", 2, "browser.exe"),
]

APP_NAMES = ["menu", "phonebook", "mce", "browser", "camera", "calendar"]


def dataset_from_records(
    records_by_phone: Dict[str, Iterable[object]], end_time: float
) -> Dataset:
    """Serialize records per phone and ingest them like real logs."""
    lines: Dict[str, List[str]] = {
        phone_id: [serialize_record(record) for record in records]
        for phone_id, records in records_by_phone.items()
    }
    return Dataset.from_lines(lines, end_time=end_time)


def random_phone_records(
    rng: random.Random, end_time: float, *, phone_id: str = ""
) -> List[object]:
    """One phone's plausible record stream, drawn from a seeded RNG.

    Covers every record family the analysis consumes — enrollment, boots
    with each beat kind, panics (including zero-gap bursts), paired and
    unpaired activities, running-apps snapshots, power transitions, and
    user failure reports — with wire-quantized timestamps so text and
    structured ingest agree exactly.
    """
    start = wire_time(rng.uniform(0.0, end_time * 0.3))
    records: List[object] = [
        EnrollRecord(start, phone_id or "phone", "S60_2.8", "EU"),
        BootRecord(start, BEAT_NONE, start),
    ]

    # Reboot cycles: each boot reports what the previous cycle left in
    # the beats file; ALIVE boots are the freezes the study counts.
    t = start
    for _ in range(rng.randint(0, 6)):
        last_beat = wire_time(t + rng.uniform(1.0, 40_000.0))
        boot = wire_time(last_beat + rng.uniform(5.0, 90_000.0))
        if boot >= end_time:
            break
        kind = rng.choice([BEAT_ALIVE, BEAT_REBOOT, BEAT_LOWBT, BEAT_MAOFF])
        records.append(BootRecord(boot, kind, last_beat))
        t = boot

    def times(count: int) -> List[float]:
        return [wire_time(rng.uniform(start, end_time)) for _ in range(count)]

    for panic_time in times(rng.randint(0, 5)):
        category, ptype, process = rng.choice(PANIC_SHAPES)
        records.append(PanicRecord(panic_time, category, ptype, process))
        # Occasionally a burst: follow-up panics within a short gap.
        for _ in range(rng.randint(0, 2)):
            panic_time = wire_time(panic_time + rng.uniform(0.0, 30.0))
            category, ptype, process = rng.choice(PANIC_SHAPES)
            records.append(PanicRecord(panic_time, category, ptype, process))

    for act_time in times(rng.randint(0, 4)):
        kind = rng.choice(ACTIVITY_KINDS)
        records.append(ActivityRecord(act_time, kind, PHASE_START))
        if rng.random() < 0.8:  # sometimes a battery pull eats the end
            records.append(
                ActivityRecord(
                    wire_time(act_time + rng.uniform(1.0, 600.0)),
                    kind,
                    PHASE_END,
                )
            )

    for snap_time in times(rng.randint(0, 4)):
        apps = tuple(
            sorted(rng.sample(APP_NAMES, rng.randint(0, len(APP_NAMES))))
        )
        records.append(RunningAppsRecord(snap_time, apps))

    for power_time in times(rng.randint(0, 3)):
        records.append(
            PowerRecord(
                power_time,
                wire_level(rng.uniform(0.0, 1.0)),
                rng.choice(POWER_STATES),
            )
        )

    for report_time in times(rng.randint(0, 3)):
        records.append(UserReportRecord(report_time, rng.choice(REPORT_KINDS)))

    records.sort(key=lambda record: record.time)
    return records


def random_fleet_records(
    seed: int, phones: int, end_time: float
) -> Dict[str, List[object]]:
    """Seeded per-phone record streams for ``phones`` phones."""
    records_by_phone: Dict[str, List[object]] = {}
    for index in range(phones):
        phone_id = f"phone-{index:02d}"
        rng = random.Random((seed << 20) ^ index)
        records_by_phone[phone_id] = random_phone_records(
            rng, end_time, phone_id=phone_id
        )
    return records_by_phone


def reseal_commit(path: str, edit) -> None:
    """Apply ``edit`` to a committed shard file's envelope in place and
    write it back with a valid checksum, so a test reaches the ledger
    checks behind the checksum."""
    import json

    from repro.experiments.cache import write_commit

    with open(path, "r", encoding="utf-8") as handle:
        envelope = json.load(handle)
    del envelope["sha256"]
    edit(envelope)
    with open(path, "wb") as handle:
        write_commit(handle, envelope)
