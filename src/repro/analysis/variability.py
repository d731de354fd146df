"""Fleet heterogeneity: do all phones fail alike?

The paper reports fleet-level averages ("averaged per single phone");
with only 25 phones it could not say much about spread.  This module
quantifies it from the logs alone:

* per-phone failure rates (freezes + self-shutdowns per 1000 h);
* a Poisson-homogeneity chi-square test: under the null every phone
  shares one failure rate and counts vary only by exposure — a small
  p-value means real per-phone heterogeneity (different handsets,
  habits, installed apps);
* group breakdowns by the enrollment metadata the logger records:
  Symbian OS version and region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.ingest import observation_hours
from repro.analysis.shutdowns import ShutdownStudy
from repro.analysis.streaming import CampaignAccumulator


@dataclass(frozen=True)
class PhoneRate:
    """One phone's exposure and failure counts."""

    phone_id: str
    observed_hours: float
    freezes: int
    self_shutdowns: int

    @property
    def failures(self) -> int:
        return self.freezes + self.self_shutdowns

    @property
    def rate_per_khr(self) -> float:
        """Failures per 1000 observed hours."""
        if self.observed_hours <= 0:
            return 0.0
        return 1000.0 * self.failures / self.observed_hours


@dataclass(frozen=True)
class GroupRate:
    """Pooled rate for one metadata group (OS version or region)."""

    label: str
    phone_count: int
    observed_hours: float
    failures: int

    @property
    def rate_per_khr(self) -> float:
        if self.observed_hours <= 0:
            return 0.0
        return 1000.0 * self.failures / self.observed_hours


@dataclass
class VariabilityStats:
    """Heterogeneity analysis of one campaign."""

    phones: List[PhoneRate]
    chi_square: float
    degrees_of_freedom: int
    p_value: float
    by_os_version: List[GroupRate]
    by_region: List[GroupRate]

    @property
    def pooled_rate_per_khr(self) -> float:
        hours = sum(p.observed_hours for p in self.phones)
        failures = sum(p.failures for p in self.phones)
        if hours <= 0:
            return 0.0
        return 1000.0 * failures / hours

    @property
    def min_max_rate_ratio(self) -> float:
        """Spread: the hottest phone's rate over the coolest's (among
        phones with at least one failure)."""
        rates = [p.rate_per_khr for p in self.phones if p.failures > 0]
        if len(rates) < 2 or min(rates) <= 0:
            return float("inf") if rates else 1.0
        return max(rates) / min(rates)

    @property
    def heterogeneous(self) -> bool:
        """Whether homogeneity is rejected at the 5% level."""
        return self.p_value < 0.05


def compute_variability(
    accumulator: CampaignAccumulator, study: ShutdownStudy
) -> VariabilityStats:
    """Per-phone rates, homogeneity test and enrolment-group breakdowns."""
    freeze_counts = study.freezes_by_phone()
    self_counts: Dict[str, int] = {}
    for event in study.self_shutdowns():
        self_counts[event.phone_id] = self_counts.get(event.phone_id, 0) + 1

    ordered = accumulator.ordered()
    phones = [
        PhoneRate(
            phone_id=phone_id,
            observed_hours=observation_hours(
                partial["start_time"], accumulator.end_time
            ),
            freezes=freeze_counts.get(phone_id, 0),
            self_shutdowns=self_counts.get(phone_id, 0),
        )
        for phone_id, partial in ordered
    ]
    enrolments = [partial["enroll"] for _pid, partial in ordered]

    chi_square, dof, p_value = _homogeneity_test(phones)
    return VariabilityStats(
        phones=phones,
        chi_square=chi_square,
        degrees_of_freedom=dof,
        p_value=p_value,
        by_os_version=_group_rates(phones, enrolments, 0),
        by_region=_group_rates(phones, enrolments, 1),
    )


def _homogeneity_test(phones: List[PhoneRate]):
    """Chi-square test of one shared Poisson rate across phones."""
    exposed = [p for p in phones if p.observed_hours > 0]
    total_hours = sum(p.observed_hours for p in exposed)
    total_failures = sum(p.failures for p in exposed)
    if len(exposed) < 2 or total_failures == 0 or total_hours <= 0:
        return 0.0, 0, 1.0
    rate = total_failures / total_hours
    chi_square = 0.0
    for phone in exposed:
        expected = rate * phone.observed_hours
        if expected > 0:
            chi_square += (phone.failures - expected) ** 2 / expected
    dof = len(exposed) - 1
    # Imported here so that `import repro` never loads scipy; see
    # fit_reliability.
    from scipy import stats as scipy_stats

    p_value = float(scipy_stats.chi2.sf(chi_square, dof))
    return chi_square, dof, p_value


def _group_rates(
    phones: List[PhoneRate], enrolments: List[object], field: int
) -> List[GroupRate]:
    """Pooled rates by one enrolment field (0: OS version, 1: region)."""
    groups: Dict[str, List[PhoneRate]] = {}
    for phone, enroll in zip(phones, enrolments):
        label = enroll[field] if enroll is not None else "unknown"
        groups.setdefault(label, []).append(phone)
    out = [
        GroupRate(
            label=label,
            phone_count=len(members),
            observed_hours=sum(p.observed_hours for p in members),
            failures=sum(p.failures for p in members),
        )
        for label, members in groups.items()
    ]
    out.sort(key=lambda g: (-g.observed_hours, g.label))
    return out
