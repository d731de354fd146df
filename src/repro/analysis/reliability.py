"""Reliability modelling of inter-failure times.

The paper stops at mean time between failures; this module goes one
step further along standard dependability practice and fits the
inter-failure time distribution:

* per-phone inter-failure intervals (freezes, self-shutdowns, or both
  combined) extracted from the event timeline;
* exponential MLE and Weibull MLE fits (scipy), with Kolmogorov-Smirnov
  goodness-of-fit for each;
* the Weibull shape parameter answers a question the MTBF cannot: is
  the hazard rate constant (shape ~ 1, memoryless — what a Poisson
  failure process produces), increasing (wear-out), or decreasing
  (infant mortality)?

Estimator-convergence helpers support the paper's §7 plan of scaling to
larger fleets: the relative precision of a pooled MTBF estimate from
``n`` events is ~ ``1/sqrt(n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.coalescence import (
    HL_FREEZE,
    HL_SELF_SHUTDOWN,
    HlEvent,
    hl_events_from_study,
)
from repro.analysis.shutdowns import ShutdownStudy
from repro.core.clock import HOUR


@dataclass(frozen=True)
class DistributionFit:
    """One fitted model with its goodness-of-fit."""

    name: str
    params: Dict[str, float]
    log_likelihood: float
    ks_statistic: float
    ks_pvalue: float


@dataclass
class ReliabilityStats:
    """Inter-failure interval analysis for one event kind."""

    kind: str
    intervals_hours: List[float]
    exponential: Optional[DistributionFit]
    weibull: Optional[DistributionFit]

    @property
    def sample_size(self) -> int:
        return len(self.intervals_hours)

    @property
    def mean_hours(self) -> float:
        if not self.intervals_hours:
            return float("inf")
        return sum(self.intervals_hours) / len(self.intervals_hours)

    @property
    def weibull_shape(self) -> float:
        """Weibull shape (beta): ~1 constant hazard, >1 wear-out,
        <1 infant mortality."""
        if self.weibull is None:
            return float("nan")
        return self.weibull.params["shape"]

    @property
    def preferred_model(self) -> str:
        """The fit with the higher KS p-value (simpler wins ties)."""
        if self.exponential is None or self.weibull is None:
            return "insufficient data"
        if self.weibull.ks_pvalue > 2 * self.exponential.ks_pvalue:
            return self.weibull.name
        return self.exponential.name

    def mtbf_relative_precision(self) -> float:
        """~1/sqrt(n): the relative half-width of the MTBF estimate."""
        if not self.intervals_hours:
            return float("inf")
        return 1.0 / math.sqrt(len(self.intervals_hours))


def interfailure_intervals_hours(
    events: Sequence[HlEvent], kinds: Optional[Sequence[str]] = None
) -> List[float]:
    """Per-phone consecutive-event gaps, in hours, pooled over phones."""
    by_phone: Dict[str, List[float]] = {}
    for event in events:
        if kinds is not None and event.kind not in kinds:
            continue
        by_phone.setdefault(event.phone_id, []).append(event.time)
    intervals: List[float] = []
    for times in by_phone.values():
        times.sort()
        intervals.extend(
            (later - earlier) / HOUR for earlier, later in zip(times, times[1:])
        )
    return [iv for iv in intervals if iv > 0]


def fit_reliability(
    intervals_hours: Sequence[float], kind: str = "failure"
) -> ReliabilityStats:
    """Fit exponential and Weibull models to the interval sample."""
    # scipy (and numpy under it) is imported here, not at module scope:
    # it is ~80 MB and ~85% of `import repro`, and only the extended
    # analyses reach it.  tests/test_import_budget.py holds the line.
    from scipy import stats as scipy_stats

    intervals = [iv for iv in intervals_hours if iv > 0]
    if len(intervals) < 8:
        return ReliabilityStats(kind, intervals, None, None)

    mean = sum(intervals) / len(intervals)
    exp_ll = sum(
        scipy_stats.expon.logpdf(iv, scale=mean) for iv in intervals
    )
    exp_ks = scipy_stats.kstest(intervals, "expon", args=(0, mean))
    exponential = DistributionFit(
        name="exponential",
        params={"mean_hours": mean},
        log_likelihood=float(exp_ll),
        ks_statistic=float(exp_ks.statistic),
        ks_pvalue=float(exp_ks.pvalue),
    )

    # A (numerically) constant sample has no Weibull MLE — the shape
    # diverges, and scipy's moment-based initial guess warns about
    # catastrophic cancellation before producing garbage.  Report the
    # exponential fit only.
    if max(intervals) - min(intervals) <= 1e-9 * max(mean, 1e-12):
        return ReliabilityStats(kind, intervals, exponential, None)

    shape, _loc, scale = scipy_stats.weibull_min.fit(intervals, floc=0.0)
    wb_ll = float(
        scipy_stats.weibull_min.logpdf(intervals, shape, 0.0, scale).sum()
    )
    wb_ks = scipy_stats.kstest(intervals, "weibull_min", args=(shape, 0.0, scale))
    weibull = DistributionFit(
        name="weibull",
        params={"shape": float(shape), "scale_hours": float(scale)},
        log_likelihood=wb_ll,
        ks_statistic=float(wb_ks.statistic),
        ks_pvalue=float(wb_ks.pvalue),
    )
    return ReliabilityStats(kind, intervals, exponential, weibull)


def compute_reliability(study: ShutdownStudy) -> Dict[str, ReliabilityStats]:
    """Fit interval models for freezes, self-shutdowns, and both."""
    events = hl_events_from_study(study)
    return {
        "freeze": fit_reliability(
            interfailure_intervals_hours(events, [HL_FREEZE]), "freeze"
        ),
        "self_shutdown": fit_reliability(
            interfailure_intervals_hours(events, [HL_SELF_SHUTDOWN]),
            "self_shutdown",
        ),
        "combined": fit_reliability(
            interfailure_intervals_hours(events), "combined"
        ),
    }
