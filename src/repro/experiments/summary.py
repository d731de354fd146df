"""Serializable campaign results.

:class:`CampaignResult` drags the live ``Fleet``/``Simulator`` object
graph around, so it can neither cross a process boundary nor be stored
on disk.  :class:`CampaignSummary` is the plain-data snapshot of one
campaign — the configuration, the simulator-side ground truth, and
every section of the :class:`~repro.analysis.report.ReproductionReport`
— holding nothing but JSON-native values (strings, numbers, lists,
string-keyed dicts).  Like an offline replay pipeline, every consumer
downstream of the runner (benchmarks, the sweep CLI, the merge of
committed shards) works from summaries, never from simulator internals.

``to_dict()``/``from_dict()`` round-trip exactly, including through
``json.dumps``/``json.loads``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.campaign import CampaignResult

#: Bumped whenever the summary schema changes; part of the cache key,
#: so stale on-disk entries are silently recomputed, never misread.
#: v2: telemetry snapshot (metrics registry + span forest) added.
SUMMARY_FORMAT_VERSION = 2

#: The report sections a summary carries, in report order.
SECTION_KEYS = (
    "shutdowns",
    "availability",
    "panics",
    "bursts",
    "hl",
    "activity",
    "runapps",
    "output_failures",
)


@dataclass
class CampaignSummary:
    """Everything one campaign produced, as plain data."""

    #: ``CampaignConfig.to_dict()`` of the run.
    config: Dict[str, Any]
    #: Simulator-side counters (``Fleet.ground_truth()``).
    ground_truth: Dict[str, float]
    #: Section name -> section ``to_dict()`` (see ``SECTION_KEYS``).
    sections: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: ``Telemetry.snapshot()`` of the run ({} when telemetry was off).
    #: JSON-native, so it ships across the pool's summary channel and
    #: the runner can merge worker registries deterministically.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    format_version: int = SUMMARY_FORMAT_VERSION

    # -- convenience accessors -------------------------------------------------

    @property
    def seed(self) -> int:
        return int(self.config["seed"])

    @property
    def availability(self) -> Dict[str, Any]:
        return self.sections["availability"]

    @property
    def shutdowns(self) -> Dict[str, Any]:
        return self.sections["shutdowns"]

    @property
    def panics(self) -> Dict[str, Any]:
        return self.sections["panics"]

    @property
    def bursts(self) -> Dict[str, Any]:
        return self.sections["bursts"]

    @property
    def hl(self) -> Dict[str, Any]:
        return self.sections["hl"]

    @property
    def activity(self) -> Dict[str, Any]:
        return self.sections["activity"]

    @property
    def runapps(self) -> Dict[str, Any]:
        return self.sections["runapps"]

    @property
    def output_failures(self) -> Dict[str, Any]:
        return self.sections["output_failures"]

    @property
    def pooled_failure_rate_per_khr(self) -> float:
        """Freezes + self-shutdowns per 1000 observed hours."""
        hours = self.availability["observed_hours_total"]
        if hours <= 0:
            return 0.0
        events = (
            self.availability["freeze_count"]
            + self.availability["self_shutdown_count"]
        )
        return 1000.0 * events / hours

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": self.format_version,
            "config": self.config,
            "ground_truth": self.ground_truth,
            "sections": self.sections,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSummary":
        missing = [
            key
            for key in ("format_version", "config", "ground_truth", "sections")
            if key not in data
        ]
        if missing:
            raise ValueError(f"summary dict is missing keys: {missing}")
        return cls(
            config=data["config"],
            ground_truth=data["ground_truth"],
            sections=data["sections"],
            telemetry=data.get("telemetry", {}),
            format_version=data["format_version"],
        )

    @classmethod
    def from_result(cls, result: "CampaignResult") -> "CampaignSummary":
        """Snapshot a live campaign result into plain data."""
        return cls(
            config=result.config.to_dict(),
            ground_truth=dict(result.ground_truth),
            sections=result.report.to_dict(),
            telemetry=dict(result.telemetry),
        )


#: The figures the robustness harness tracks for degradation drift, in
#: render order: availability (MTBF/MTBS, failure interval), the panic
#: distribution's two dominant classes, and the coalescence rates.
HEADLINE_KEYS = (
    "mtbf_freeze_hours",
    "mtbf_self_shutdown_hours",
    "failure_interval_days",
    "access_violation_percent",
    "heap_management_percent",
    "hl_related_percent",
    "cascade_panic_percent",
)


def headline_figures(sections: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The study's headline figures as one flat ``HEADLINE_KEYS`` dict.

    ``sections`` maps report section names to their ``to_dict()`` (a
    summary's :attr:`CampaignSummary.sections`, or a streaming
    accumulator's ``sections()`` mid-run).  This is the quantity the
    fault-injection harness watches — how far these numbers drift under
    injected collection faults is the measure of graceful (or
    catastrophic) degradation — and the live fold's rolling KPIs.
    """
    availability = sections["availability"]
    panics = sections["panics"]
    return {
        "mtbf_freeze_hours": availability["mtbf_freeze_hours"],
        "mtbf_self_shutdown_hours": availability["mtbf_self_shutdown_hours"],
        "failure_interval_days": availability["failure_interval_days"],
        "access_violation_percent": panics["access_violation_percent"],
        "heap_management_percent": panics["heap_management_percent"],
        "hl_related_percent": sections["hl"]["related_percent"],
        "cascade_panic_percent": sections["bursts"]["cascade_panic_percent"],
    }
