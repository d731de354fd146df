"""Offline analysis pipeline — §6 of the paper, rebuilt from raw logs.

Everything here consumes *only* the log lines shipped to the collection
server (the same bytes a real campaign would have on the analysis
workstation) and reproduces the paper's evaluation artifacts:

* Figure 2 — reboot-duration distribution, self-shutdown isolation
  (:mod:`shutdowns`);
* headline MTBF figures (:mod:`availability`);
* Table 2 — panic classification (:mod:`panics`);
* Figure 3 — panic bursts (:mod:`bursts`);
* Figure 4 — the panic/HL-event coalescence scheme and its window
  sensitivity (:mod:`coalescence`);
* Figure 5 — panics vs high-level events (:mod:`hl_relationship`);
* Table 3 — panic-activity relationship (:mod:`activity`);
* Table 4 and Figure 6 — panic-running-applications relationship
  (:mod:`runapps`);
* the report fold (:mod:`streaming`): one partial per phone, merged
  across shards in any order and finalized into every section above;
* the full text report combining all of them (:mod:`report`), whose
  :func:`build_report` is that fold over one dataset.
"""

from repro.analysis.activity import ActivityTable
from repro.analysis.availability import AvailabilityStats
from repro.analysis.bursts import BurstStats
from repro.analysis.coalescence import (
    CoalescenceResult,
    coalesce,
    window_sweep,
)
from repro.analysis.downtime import DowntimeStats, OutageClass, compute_downtime
from repro.analysis.hl_relationship import HlRelationship
from repro.analysis.ingest import Dataset, PhoneLog
from repro.analysis.output_failures import OutputFailureStats
from repro.analysis.panics import PanicTable
from repro.analysis.reliability import (
    DistributionFit,
    ReliabilityStats,
    compute_reliability,
    fit_reliability,
    interfailure_intervals_hours,
)
from repro.analysis.runapps import RunningAppsStats
from repro.analysis.trends import MonthlyRate, TrendStats, compute_trends
from repro.analysis.variability import (
    GroupRate,
    PhoneRate,
    VariabilityStats,
    compute_variability,
)
from repro.analysis.report import ReproductionReport, build_report
from repro.analysis.shutdowns import FreezeEvent, ShutdownEvent, ShutdownStudy
from repro.analysis.streaming import CampaignAccumulator

__all__ = [
    "Dataset",
    "PhoneLog",
    "ShutdownStudy",
    "ShutdownEvent",
    "FreezeEvent",
    "AvailabilityStats",
    "PanicTable",
    "OutputFailureStats",
    "ReliabilityStats",
    "DistributionFit",
    "compute_reliability",
    "fit_reliability",
    "interfailure_intervals_hours",
    "VariabilityStats",
    "PhoneRate",
    "GroupRate",
    "compute_variability",
    "TrendStats",
    "MonthlyRate",
    "compute_trends",
    "DowntimeStats",
    "OutageClass",
    "compute_downtime",
    "BurstStats",
    "CoalescenceResult",
    "coalesce",
    "window_sweep",
    "HlRelationship",
    "ActivityTable",
    "RunningAppsStats",
    "ReproductionReport",
    "build_report",
    "CampaignAccumulator",
]
