"""Panic-running-applications relationship — Table 4 and Figure 6.

For each panic, the running-application set is the latest snapshot the
Running Applications Detector wrote at or before the panic.  Figure 6
is the distribution of the set's size (the paper's counter-intuitive
finding: usually just *one* application runs at panic time).  Table 4
cross-tabulates (panic category, HL outcome) against the applications
present, as percentages of all panics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ingest import PhoneLog

OUTCOME_FREEZE = "freeze"
OUTCOME_SELF_SHUTDOWN = "self_shutdown"
OUTCOME_NONE = "no_hl_event"


def running_apps_at(
    log: PhoneLog, time: float, _times: Optional[List[float]] = None
) -> Tuple[str, ...]:
    """The latest RUNAPP snapshot strictly before ``time``.

    Strictly before, not at: a snapshot written at exactly the panic
    instant is the *consequence* of the panic (the kernel terminated
    the offending application, and the detector logged the shrunken
    set), not the state the panic happened in.

    ``_times`` optionally supplies the precomputed snapshot-time list,
    so callers that query one log repeatedly (one lookup per panic)
    don't rebuild it every time.
    """
    snapshots = log.runapps
    times = _times if _times is not None else [snap.time for snap in snapshots]
    index = bisect.bisect_left(times, time) - 1
    if index < 0:
        return ()
    return snapshots[index].apps


@dataclass
class RunningAppsStats:
    """Figure 6 + Table 4 data."""

    #: app-count -> percent of panics with that many running apps.
    count_distribution: Dict[int, float]
    #: (category, outcome) -> {app -> percent of all panics}.
    table: Dict[Tuple[str, str], Dict[str, float]]
    #: app -> percent of all panics where it was running (column totals).
    app_totals: Dict[str, float]
    total_panics: int

    @property
    def modal_app_count(self) -> int:
        """The most common number of running apps (paper: 1)."""
        if not self.count_distribution:
            return 0
        return max(self.count_distribution.items(), key=lambda kv: kv[1])[0]

    def top_apps(self, n: int = 5) -> List[Tuple[str, float]]:
        """Most frequent co-running apps, descending."""
        ranked = sorted(self.app_totals.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def to_dict(self) -> Dict[str, object]:
        """JSON-native snapshot of Figure 6 + Table 4."""
        return {
            "total_panics": self.total_panics,
            "modal_app_count": self.modal_app_count,
            "count_distribution": [
                [count, percent]
                for count, percent in self.count_distribution.items()
            ],
            "table": [
                [category, outcome, app, percent]
                for (category, outcome), cell in sorted(self.table.items())
                for app, percent in sorted(cell.items())
            ],
            "app_totals": dict(sorted(self.app_totals.items())),
        }


def runapps_stats_from_joins(
    joins: Sequence[Tuple[str, str, Tuple[str, ...]]],
) -> RunningAppsStats:
    """Figure 6 + Table 4 from (category, HL outcome, apps) joins.

    Pass joins in the dataset's global panic-time order (the
    ``Dataset.all_panics`` order): the dict insertion orders follow it.
    """
    count_hist: Dict[int, int] = {}
    table_counts: Dict[Tuple[str, str], Dict[str, int]] = {}
    app_counts: Dict[str, int] = {}
    total = 0

    for category, outcome, apps in joins:
        total += 1
        count_hist[len(apps)] = count_hist.get(len(apps), 0) + 1
        key = (category, outcome)
        cell = table_counts.setdefault(key, {})
        for app in apps:
            cell[app] = cell.get(app, 0) + 1
            app_counts[app] = app_counts.get(app, 0) + 1

    def pct(n: int) -> float:
        return 100.0 * n / total if total else 0.0

    return RunningAppsStats(
        count_distribution={k: pct(v) for k, v in sorted(count_hist.items())},
        table={
            key: {app: pct(n) for app, n in sorted(cell.items())}
            for key, cell in table_counts.items()
        },
        app_totals={app: pct(n) for app, n in app_counts.items()},
        total_panics=total,
    )
