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

    def tally(self, campaign_end: float, events_fired: int) -> "PhoneTally":
        """What of this phone outlives it: its ground-truth partial,
        its share of the fleet counters and its D_EXC lines."""
        device, user = self.device, self.user
        publishes, deliveries = device.bus_stats()
        dexc = self.dexc
        return PhoneTally(
            phone_id=self.phone_id,
            ground_truth={
                "misbehaviors_perceived": float(user.misbehaviors_perceived),
                "user_reports": float(user.reports_filed),
                "freezes": float(device.freeze_count),
                "self_shutdowns": float(device.shutdown_counts["self"]),
                "user_shutdowns": float(device.shutdown_counts["user"]),
                "lowbt_shutdowns": float(device.shutdown_counts["lowbt"]),
                "panics": float(self.faults.panics_injected),
                "boots": float(device.boot_count),
                "observed_hours": self.observed_hours(campaign_end),
            },
            counters={
                "events_fired": events_fired,
                "heartbeats_written": device.beats.writes,
                "bus_publishes": publishes,
                "bus_deliveries": deliveries,
            },
            shutdowns=dict(device.shutdown_counts),
            dexc_lines=(
                dexc.storage.lines()
                if dexc is not None and dexc.storage.line_count
                else None
            ),
        )


@dataclass
class PhoneTally:
    """What a retired phone leaves behind, in a few numbers.

    ``ground_truth`` is the phone's partial of :meth:`Fleet.ground_truth`;
    ``counters`` and ``shutdowns`` are its share of
    :meth:`Fleet.sample_metrics` (with the events its run fired);
    ``dexc_lines`` is its D_EXC baseline log, when it has one.
    """

    phone_id: str
    ground_truth: Dict[str, float]
    counters: Dict[str, int]
    shutdowns: Dict[str, int]
    dexc_lines: Optional[List[str]] = None


class Fleet:
    """Builds, runs, and collects a whole campaign, one phone at a time.

    Phones share nothing but the collection server and the telemetry:
    every phone draws from random streams forked by its id, and no
    phone reads another's state.  So :meth:`run` simulates them one
    after another on one reused :class:`Simulator`, each alone from
    time 0 to the horizon, and keeps of a finished phone only its
    :class:`PhoneTally`.  At most one phone's object graph is resident
    at any time, whatever the fleet size.
    """

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
        #: One engine for every phone (see :meth:`Simulator.rewind`);
        #: its counters are fleet totals.
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
        #: Enrollment time of each phone of the range, in index order.
        self.enrollments: List[float] = []
        #: The phone being simulated, while :meth:`run` is in progress.
        self.phone: Optional[PhoneInstance] = None
        #: One tally per finished phone, in phone-index order.
        self.tallies: List[PhoneTally] = []
        self._built = False
        self._ran = False

    # -- construction ------------------------------------------------------------

    def build(self) -> None:
        """Draw every phone's enrollment time, in phone-index order.

        Phones themselves are built by :meth:`run`, each just before it
        is simulated.  The draws come from one shared ``enrollment``
        stream; a slice first replays the draws earlier phone indices
        consumed, so its phones enroll at the monolithic run's exact
        times.
        """
        if self._built:
            raise ValueError("fleet already built")
        self._built = True
        cfg = self.config
        start, stop = cfg.resolved_range()
        enroll_stream = self.streams.stream("enrollment")
        enroll_stream.discard(start)
        self.enrollments = [
            enroll_stream.uniform(cfg.enroll_fraction_min, cfg.enroll_fraction_max)
            * cfg.duration
            for _ in range(start, stop)
        ]

    def _build_phone(self, index: int, enrolled_at: float) -> PhoneInstance:
        """Create phone ``index``'s profile, models and enrollment."""
        cfg = self.config
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
        instance.user.report_compliance_override = cfg.report_compliance_override
        if cfg.attach_dexc:
            instance.dexc = attach_dexc(instance.device)
        instance.enrolled_at = enrolled_at
        instance.user.enroll(enrolled_at)
        return instance

    # -- execution ------------------------------------------------------------------

    def run(self) -> None:
        """Run the campaign one phone at a time, then flush the link.

        For each phone of the range, in index order: build it, schedule
        its own periodic-transfer tick, run it to ``config.duration``,
        ship its remaining log lines, fold it into its
        :class:`PhoneTally` and retire it, so that refcount frees it
        before the next phone is built.  A phone's events keep their
        relative ``(time, priority, seq)`` order, so every phone's
        output is what it would be on an engine of its own.

        The cyclic garbage collector is suspended for the duration:
        a paper-scale run allocates millions of records, heap entries,
        and short-lived processes, and repeated generation-2 passes
        over that object graph cost ~10% of wall time while freeing
        almost nothing mid-run.  Nothing waits for collection to
        resume: power cycles and finished phones break their reference
        cycles when they retire, so the run leaves no cyclic garbage.
        """
        if not self._built:
            self.build()
        if self._ran:
            raise ValueError("campaign already ran")
        self._ran = True
        start, _stop = self.config.resolved_range()
        with gc_suspended():
            for offset, enrolled_at in enumerate(self.enrollments):
                self._run_phone(start + offset, enrolled_at)
        # The campaign ends at the horizon: what runs after (the link
        # flush, ingest, the report) stamps that virtual time.
        self.sim.run_until(self.config.duration)
        self.collector.finalize()

    def _run_phone(self, index: int, enrolled_at: float) -> None:
        cfg = self.config
        sim = self.sim
        fired = sim.events_fired
        self.phone = instance = self._build_phone(index, enrolled_at)
        if cfg.transfer_interval > 0:
            sim.schedule_after(cfg.transfer_interval, self._periodic_transfer)
        sim.run_until(cfg.duration)
        self.sync_all()
        self.tallies.append(instance.tally(cfg.duration, sim.events_fired - fired))
        self.phone = None
        # Cyclic GC is suspended, so a phone left in a cycle would never
        # be freed: drop its pending events and its listeners, and
        # refcount frees it here.
        sim.rewind()
        instance.device.retire()

    def _periodic_transfer(self) -> None:
        self.sync_all()
        if self._live is not None:
            self._live.heartbeat_from_fleet(self)
        next_time = self.sim.now + self.config.transfer_interval
        if next_time < self.config.duration:
            self.sim.schedule_at(next_time, self._periodic_transfer)

    def sync_all(self) -> None:
        """Ship the running phone's new log lines to the collection server."""
        instance = self.phone
        if instance is None:
            return
        tel = self.telemetry
        if not tel.tracing:
            self.collector.sync(instance.device.storage)
            return
        with tel.tracer.span(
            f"sync {instance.phone_id}", category="transfer", track="transfer"
        ) as span:
            span.args = {"entries": self.collector.sync(instance.device.storage)}

    def dexc_dataset(self) -> Dict[str, List[str]]:
        """phone id -> D_EXC baseline lines (empty unless attach_dexc)."""
        return {
            tally.phone_id: tally.dexc_lines
            for tally in self.tallies
            if tally.dexc_lines is not None
        }

    # -- telemetry ----------------------------------------------------------------

    def sample_metrics(self, registry) -> None:
        """Dump fleet-lifetime counters into ``registry``.

        Everything here is sampled once at campaign end from state the
        simulation maintains anyway (simulator counters, the finished
        phones' tallies, collection-server stats), so it costs nothing
        on the event-loop hot path.
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
        for tally in self.tallies:
            truth, counters = tally.ground_truth, tally.counters
            freezes.value += truth["freezes"]
            boots.value += truth["boots"]
            panics.value += truth["panics"]
            beats.value += float(counters["heartbeats_written"])
            reports.value += truth["user_reports"]
            publishes.value += float(counters["bus_publishes"])
            deliveries.value += float(counters["bus_deliveries"])
            for kind, count in tally.shutdowns.items():
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
        return [tally.ground_truth for tally in self.tallies]

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
