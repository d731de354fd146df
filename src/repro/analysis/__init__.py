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
* the full text report combining all of them (:mod:`report`);
* a mergeable streaming accumulator (one partial per phone)
  reproducing every section with constant memory for sharded
  mega-fleet runs (:mod:`streaming`).
"""

from repro.analysis.activity import ActivityTable, compute_activity_table
from repro.analysis.availability import AvailabilityStats, compute_availability
from repro.analysis.bursts import BurstStats, compute_bursts
from repro.analysis.coalescence import (
    CoalescenceResult,
    coalesce,
    window_sweep,
)
from repro.analysis.downtime import DowntimeStats, OutageClass, compute_downtime
from repro.analysis.hl_relationship import (
    HlRelationship,
    compute_hl_relationship,
)
from repro.analysis.ingest import Dataset, PhoneLog
from repro.analysis.output_failures import (
    OutputFailureStats,
    compute_output_failures,
)
from repro.analysis.panics import PanicTable, compute_panic_table
from repro.analysis.reliability import (
    DistributionFit,
    ReliabilityStats,
    compute_reliability,
    fit_reliability,
    interfailure_intervals_hours,
)
from repro.analysis.runapps import RunningAppsStats, compute_running_apps
from repro.analysis.trends import MonthlyRate, TrendStats, compute_trends
from repro.analysis.variability import (
    GroupRate,
    PhoneRate,
    VariabilityStats,
    compute_variability,
)
from repro.analysis.report import ReproductionReport, build_report
from repro.analysis.shutdowns import (
    FreezeEvent,
    ShutdownEvent,
    ShutdownStudy,
    compute_shutdown_study,
)
from repro.analysis.streaming import CampaignAccumulator

__all__ = [
    "Dataset",
    "PhoneLog",
    "ShutdownStudy",
    "ShutdownEvent",
    "FreezeEvent",
    "compute_shutdown_study",
    "AvailabilityStats",
    "compute_availability",
    "PanicTable",
    "compute_panic_table",
    "OutputFailureStats",
    "compute_output_failures",
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
    "compute_bursts",
    "CoalescenceResult",
    "coalesce",
    "window_sweep",
    "HlRelationship",
    "compute_hl_relationship",
    "ActivityTable",
    "compute_activity_table",
    "RunningAppsStats",
    "compute_running_apps",
    "ReproductionReport",
    "build_report",
    "CampaignAccumulator",
]
