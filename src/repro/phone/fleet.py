"""The deployment campaign: a fleet of instrumented phones.

Mirrors the paper's §6 setup: N phones (default 25) under normal use,
enrolled progressively starting September 2005 ("deployed ... since
September 2005", data collected "over the period of 14 months"), each
shipping its log files to the collection server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.clock import DAY, MONTH
from repro.core.engine import Simulator
from repro.core.gcpause import gc_suspended
from repro.core.rand import RandomStreams
from repro.logger.daemon import LoggerConfig
from repro.logger.dexc import DExcLogger, attach_dexc
from repro.logger.transfer import CollectionServer
from repro.observability.live import current_live_writer
from repro.observability.telemetry import current_telemetry
from repro.phone.device import SmartPhone
from repro.phone.faults import FaultModel, FaultModelConfig
from repro.phone.profiles import UserProfile, make_profile
from repro.phone.user import UserModel


@dataclass
class FleetConfig:
    """Shape of the deployment campaign."""

    phone_count: int = 25
    #: Total campaign duration (the paper's 14 months).
    duration: float = 14 * MONTH
    #: Phones enroll at a uniform random fraction of the campaign in
    #: [min, max); late enrollment is why per-phone observation averages
    #: well under the full 14 months.
    enroll_fraction_min: float = 0.15
    enroll_fraction_max: float = 0.97
    #: Log files ship to the collection server every this many seconds.
    transfer_interval: float = 7 * DAY
    logger: LoggerConfig = field(default_factory=LoggerConfig)
    faults: FaultModelConfig = field(default_factory=FaultModelConfig)
    #: When set, every user's report compliance is forced to this value
    #: (the §7 compliance-sweep experiments).
    report_compliance_override: Optional[float] = None
    #: Also install the D_EXC baseline (panic-only) collector on every
    #: phone, for the baseline-comparison experiments.
    attach_dexc: bool = False
    #: Half-open global phone-index range ``[start, stop)`` this fleet
    #: instance simulates.  ``None`` means the whole fleet.  Sharded
    #: mega-fleet runs slice one logical campaign into K ranges; phone
    #: ids, per-phone random streams, and enrollment draws stay exactly
    #: what the monolithic run would produce for the same indices
    #: (``phone_count`` keeps naming the *logical* fleet size).
    phone_range: Optional[Tuple[int, int]] = None

    def resolved_range(self) -> Tuple[int, int]:
        """The ``[start, stop)`` phone-index range this config covers.

        Raises:
            ValueError: if ``phone_range`` is out of bounds or empty.
        """
        if self.phone_range is None:
            return (0, self.phone_count)
        start, stop = self.phone_range
        if not 0 <= start < stop <= self.phone_count:
            raise ValueError(
                f"phone_range {self.phone_range!r} must satisfy "
                f"0 <= start < stop <= phone_count ({self.phone_count})"
            )
        return (int(start), int(stop))


class PhoneInstance:
    """One phone with its user and fault model wired together."""

    def __init__(
        self,
        sim: Simulator,
        profile: UserProfile,
        streams: RandomStreams,
        campaign_end: float,
        logger_config: LoggerConfig,
        fault_config: FaultModelConfig,
    ) -> None:
        self.profile = profile
        self.device = SmartPhone(sim, profile, logger_config)
        self.user = UserModel(self.device, streams, campaign_end)
        self.faults = FaultModel(self.device, streams, fault_config)
        self.faults.misbehavior_observer = self.user.perceive_misbehavior
        self.dexc: Optional[DExcLogger] = None
        self.enrolled_at: float = 0.0

    @property
    def phone_id(self) -> str:
        return self.profile.phone_id

    def observed_hours(self, campaign_end: float) -> float:
        """Wall-clock hours from enrollment to campaign end."""
        return max(campaign_end - self.enrolled_at, 0.0) / 3600.0


class Fleet:
    """Builds, runs, and collects a whole campaign."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        seed: int = 2005,
        collector: Optional[CollectionServer] = None,
    ) -> None:
        self.config = config if config is not None else FleetConfig()
        self.seed = seed
        #: The process-current telemetry at construction time; the
        #: tracer's sim clock binds here so spans and instants recorded
        #: anywhere in the campaign stamp this fleet's virtual time.
        self.telemetry = current_telemetry()
        self.sim = Simulator()
        if self.telemetry.tracing:
            self.telemetry.tracer.bind_clock(self.sim.clock.read)
        #: Injectable so robustness experiments can route collection
        #: through a faulty transfer link; defaults to a perfect one.
        self.collector = collector if collector is not None else CollectionServer()
        #: Optional live op-log writer (the process-current one at
        #: construction time).  A pure observer: it samples intrinsic
        #: state from the periodic-transfer callback — no extra sim
        #: events, no random draws, no registry writes — so results
        #: with and without it are bit-identical.
        self._live = current_live_writer()
        self.streams = RandomStreams(seed)
        self.phones: List[PhoneInstance] = []
        self._built = False
        self._ran = False

    # -- construction ------------------------------------------------------------

    def build(self) -> None:
        """Create phones, users, fault models; schedule enrollments."""
        if self._built:
            raise ValueError("fleet already built")
        self._built = True
        cfg = self.config
        start, stop = cfg.resolved_range()
        enroll_stream = self.streams.stream("enrollment")
        # Replay the enrollment draws earlier phone indices consumed so
        # this slice's draws land on the monolithic run's exact variates.
        enroll_stream.discard(start)
        for index in range(start, stop):
            phone_id = f"phone-{index:02d}"
            phone_streams = self.streams.fork(phone_id)
            profile = make_profile(phone_id, phone_streams)
            instance = PhoneInstance(
                self.sim,
                profile,
                phone_streams,
                campaign_end=cfg.duration,
                logger_config=cfg.logger,
                fault_config=cfg.faults,
            )
            instance.user.report_compliance_override = (
                cfg.report_compliance_override
            )
            if cfg.attach_dexc:
                instance.dexc = attach_dexc(instance.device)
            fraction = enroll_stream.uniform(
                cfg.enroll_fraction_min, cfg.enroll_fraction_max
            )
            instance.enrolled_at = fraction * cfg.duration
            instance.user.enroll(instance.enrolled_at)
            self.phones.append(instance)
        if cfg.transfer_interval > 0:
            self.sim.schedule_after(cfg.transfer_interval, self._periodic_transfer)

    # -- execution ------------------------------------------------------------------

    def run(self) -> None:
        """Run the whole campaign and perform the final log transfer.

        The cyclic garbage collector is suspended for the duration of
        the event loop: a paper-scale run allocates millions of
        records, heap entries, and short-lived processes, and repeated
        generation-2 passes over that growing object graph cost ~10% of
        wall time while freeing almost nothing mid-run.  Nothing waits
        for collection to resume: each power cycle's runtime is freed
        by refcount when it retires, so the run leaves no cyclic
        garbage behind.
        """
        if not self._built:
            self.build()
        if self._ran:
            raise ValueError("campaign already ran")
        self._ran = True
        with gc_suspended():
            self.sim.run_until(self.config.duration)
        self.sync_all()
        self.collector.finalize()

    def _periodic_transfer(self) -> None:
        self.sync_all()
        if self._live is not None:
            self._live.heartbeat_from_fleet(self)
        next_time = self.sim.now + self.config.transfer_interval
        if next_time < self.config.duration:
            self.sim.schedule_at(next_time, self._periodic_transfer)

    def sync_all(self) -> None:
        """Ship every phone's new log lines to the collection server."""
        tel = self.telemetry
        if not tel.tracing:
            for instance in self.phones:
                self.collector.sync(instance.device.storage)
            return
        with tel.tracer.span(
            "transfer.sync_all", category="transfer", track="transfer"
        ):
            for instance in self.phones:
                with tel.tracer.span(
                    f"sync {instance.phone_id}",
                    category="transfer",
                    track="transfer",
                ) as span:
                    shipped = self.collector.sync(instance.device.storage)
                    span.args = {"entries": shipped}

    def dexc_dataset(self) -> Dict[str, List[str]]:
        """phone id -> D_EXC baseline lines (empty unless attach_dexc)."""
        return {
            instance.phone_id: instance.dexc.storage.lines()
            for instance in self.phones
            if instance.dexc is not None and instance.dexc.storage.line_count
        }

    # -- telemetry ----------------------------------------------------------------

    def sample_metrics(self, registry) -> None:
        """Dump fleet-lifetime counters into ``registry``.

        Everything here is sampled once at campaign end from state the
        simulation maintains anyway (simulator counters, device
        lifecycle counts, persistent beats files, collection-server
        stats), so it costs nothing on the event-loop hot path.
        """
        sim = self.sim
        for name, value, help_text in (
            ("sim.events_fired_total", sim.events_fired, "callbacks executed"),
            ("sim.events_scheduled_total", sim.events_scheduled, "events scheduled"),
            ("sim.events_cancelled_total", sim.events_cancelled, "events cancelled"),
            ("sim.heap_compactions_total", sim.compactions, "heap compaction passes"),
        ):
            registry.counter(name, help=help_text).series().value += float(value)
        freezes = registry.counter(
            "phone.freezes_total", help="device freezes across the fleet"
        ).series()
        boots = registry.counter(
            "phone.boots_total", help="device boots across the fleet"
        ).series()
        panics = registry.counter(
            "phone.panics_injected_total", help="faults injected as panics"
        ).series()
        beats = registry.counter(
            "logger.heartbeats_written_total",
            help="heartbeat writes materialized on flash",
        ).series()
        reports = registry.counter(
            "logger.user_reports_total", help="user-perceived failure reports"
        ).series()
        shutdowns = registry.counter(
            "phone.shutdowns_total", help="device shutdowns by kind"
        )
        publishes = registry.counter(
            "bus.publish_total", help="events published on any bus"
        ).series()
        deliveries = registry.counter(
            "bus.delivery_total", help="handler invocations (publish fan-out)"
        ).series()
        for instance in self.phones:
            freezes.value += float(instance.device.freeze_count)
            boots.value += float(instance.device.boot_count)
            panics.value += float(instance.faults.panics_injected)
            beats.value += float(instance.device.beats.writes)
            reports.value += float(instance.user.reports_filed)
            bus_publishes, bus_deliveries = instance.device.bus_stats()
            publishes.value += float(bus_publishes)
            deliveries.value += float(bus_deliveries)
            for kind, count in instance.device.shutdown_counts.items():
                if count:
                    shutdowns.series(kind=kind).value += float(count)
        self.collector.sample_metrics(registry)

    # -- ground truth for validation ----------------------------------------------------

    def per_phone_ground_truth(self) -> List[Dict[str, float]]:
        """Per-phone slice of :meth:`ground_truth`, in phone-index order.

        Shard workers ship these partials home; folding them with
        :func:`accumulate_ground_truth` in global index order reproduces
        the monolithic totals bit-for-bit (the float fold order is the
        same one :meth:`ground_truth` uses).
        """
        duration = self.config.duration
        return [
            {
                "misbehaviors_perceived": float(p.user.misbehaviors_perceived),
                "user_reports": float(p.user.reports_filed),
                "freezes": float(p.device.freeze_count),
                "self_shutdowns": float(p.device.shutdown_counts["self"]),
                "user_shutdowns": float(p.device.shutdown_counts["user"]),
                "lowbt_shutdowns": float(p.device.shutdown_counts["lowbt"]),
                "panics": float(p.faults.panics_injected),
                "boots": float(p.device.boot_count),
                "observed_hours": p.observed_hours(duration),
            }
            for p in self.phones
        ]

    def ground_truth(self) -> Dict[str, float]:
        """Simulator-side counters (what the analysis should recover)."""
        return accumulate_ground_truth(self.per_phone_ground_truth())


#: Keys of the :meth:`Fleet.ground_truth` dict, in its output order.
GROUND_TRUTH_KEYS: Tuple[str, ...] = (
    "misbehaviors_perceived",
    "user_reports",
    "freezes",
    "self_shutdowns",
    "user_shutdowns",
    "lowbt_shutdowns",
    "panics",
    "boots",
    "observed_hours",
)


def accumulate_ground_truth(
    per_phone: Iterable[Dict[str, float]],
    into: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Fold per-phone ground-truth partials into fleet totals.

    The fold visits phones in the given order; pass partials in global
    phone-index order to reproduce a monolithic fleet's float sums
    exactly (all entries except ``observed_hours`` are integer-valued,
    so only that key is order-sensitive in principle).  ``into``
    continues an earlier fold in place (the streaming shard merge folds
    one shard file at a time), which is bit-identical to one big fold
    because a left fold over a concatenation is the same float-add
    sequence as chained left folds over its pieces.
    """
    totals = into if into is not None else {key: 0.0 for key in GROUND_TRUTH_KEYS}
    for part in per_phone:
        for key in GROUND_TRUTH_KEYS:
            totals[key] += part[key]
    return totals
