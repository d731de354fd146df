"""Synthetic forum corpus generator.

Generates a stream of posts with the §4.1 population statistics:

* 533 failure reports among a larger volume of ordinary chatter,
* posting dates spanning January 2003 to March 2006,
* the Table 1 joint distribution of (failure type, recovery action),
* the activity-correlation marginals (13% voice calls, 5.4% text
  messages, 3.6% Bluetooth, 2.4% image manipulation),
* 22.3% of failure reports from smart phones.

The generator's labels are kept as ground truth on each post so the
classifier can be scored, but the study pipeline consumes only the
text — like the paper's authors reading raw forum posts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigError
from repro.core.rand import RandomStreams
from repro.forum import taxonomy as T
from repro.forum import vocabulary as V

#: Table 1 as generation targets: (failure type, recovery) -> percent.
#: Recovered from the paper (row/column sums check against the §4.1
#: totals: output 36.3, freeze 25.3, unstable 18.5, self-shutdown 16.9,
#: input 3.0).
TABLE1_TARGET: Dict[Tuple[str, str], float] = {
    (T.FREEZE, T.UNREPORTED): 6.01,
    (T.FREEZE, T.REPEAT): 0.0,
    (T.FREEZE, T.WAIT): 4.29,
    (T.FREEZE, T.BATTERY_REMOVAL): 9.01,
    (T.FREEZE, T.REBOOT): 2.36,
    (T.FREEZE, T.SERVICE): 3.65,
    (T.SELF_SHUTDOWN, T.UNREPORTED): 7.73,
    (T.SELF_SHUTDOWN, T.REPEAT): 0.0,
    (T.SELF_SHUTDOWN, T.WAIT): 0.43,
    (T.SELF_SHUTDOWN, T.BATTERY_REMOVAL): 2.15,
    (T.SELF_SHUTDOWN, T.REBOOT): 0.0,
    (T.SELF_SHUTDOWN, T.SERVICE): 6.65,
    (T.UNSTABLE_BEHAVIOR, T.UNREPORTED): 8.80,
    (T.UNSTABLE_BEHAVIOR, T.REPEAT): 0.64,
    (T.UNSTABLE_BEHAVIOR, T.WAIT): 0.21,
    (T.UNSTABLE_BEHAVIOR, T.BATTERY_REMOVAL): 0.21,
    (T.UNSTABLE_BEHAVIOR, T.REBOOT): 1.72,
    (T.UNSTABLE_BEHAVIOR, T.SERVICE): 6.87,
    (T.OUTPUT_FAILURE, T.UNREPORTED): 13.73,
    (T.OUTPUT_FAILURE, T.REPEAT): 5.79,
    (T.OUTPUT_FAILURE, T.WAIT): 0.64,
    (T.OUTPUT_FAILURE, T.BATTERY_REMOVAL): 0.43,
    (T.OUTPUT_FAILURE, T.REBOOT): 8.80,
    (T.OUTPUT_FAILURE, T.SERVICE): 6.87,
    (T.INPUT_FAILURE, T.UNREPORTED): 0.86,
    (T.INPUT_FAILURE, T.REPEAT): 0.64,
    (T.INPUT_FAILURE, T.WAIT): 0.0,
    (T.INPUT_FAILURE, T.BATTERY_REMOVAL): 0.21,
    (T.INPUT_FAILURE, T.REBOOT): 0.64,
    (T.INPUT_FAILURE, T.SERVICE): 0.64,
}

#: §4.1 activity-at-failure marginals (percent of failure reports).
ACTIVITY_TARGET: Dict[str, float] = {
    T.ACT_VOICE: 13.0,
    T.ACT_TEXT: 5.4,
    T.ACT_BLUETOOTH: 3.6,
    T.ACT_IMAGES: 2.4,
    T.ACT_NONE: 75.6,
}

_MODELS_BY_VENDOR: Dict[str, Tuple[str, ...]] = {
    "Nokia": ("Nokia 6600", "Nokia 7650", "Nokia N70", "Nokia 3650"),
    "Motorola": ("Motorola RAZR V3", "Motorola E398", "Motorola A1000"),
    "Samsung": ("Samsung D500", "Samsung E700"),
    "Sony-Ericsson": ("Sony-Ericsson P900", "Sony-Ericsson K750", "Sony-Ericsson T610"),
    "LG": ("LG U8110", "LG C1100"),
    "Kyocera": ("Kyocera 7135",),
    "Audiovox": ("Audiovox SMT5600",),
    "HP": ("HP iPAQ h6315",),
    "Blackberry": ("Blackberry 7290",),
    "Handspring": ("Handspring Treo 600",),
    "Danger": ("Danger Hiptop",),
}

#: Models counted as smart phones for the 22.3% share.
_SMART_MODELS = {
    "Nokia 6600",
    "Nokia 7650",
    "Nokia N70",
    "Nokia 3650",
    "Motorola A1000",
    "Sony-Ericsson P900",
    "Audiovox SMT5600",
    "HP iPAQ h6315",
    "Blackberry 7290",
    "Handspring Treo 600",
    "Danger Hiptop",
}


@dataclass(frozen=True)
class ForumPost:
    """One synthetic post.  Ground-truth labels ride along for scoring;
    ``None`` labels mean the post is ordinary chatter."""

    post_id: int
    date: str  # YYYY-MM
    forum: str
    vendor: str
    model: str
    device_class: str
    text: str
    failure_type: Optional[str] = None
    recovery: Optional[str] = None
    activity: Optional[str] = None

    @property
    def is_failure_report(self) -> bool:
        return self.failure_type is not None


@dataclass
class CorpusConfig:
    """Knobs of the corpus generator."""

    failure_reports: int = 533
    #: Chatter posts per failure report ("a relatively small number of
    #: entries can be considered as failure reports").
    chatter_ratio: float = 3.0
    #: Fraction of failure reports from smart phones (paper: 22.3%).
    smart_share: float = 0.223
    #: 0 = clearest phrasing only; 1 = any phrasing.  Drives the
    #: classifier-robustness ablation.
    noise_level: float = 0.25
    joint_target: Dict[Tuple[str, str], float] = field(
        default_factory=lambda: dict(TABLE1_TARGET)
    )
    activity_target: Dict[str, float] = field(
        default_factory=lambda: dict(ACTIVITY_TARGET)
    )

    def __post_init__(self) -> None:
        if self.failure_reports < 1:
            raise ConfigError(
                f"failure_reports must be >= 1, got {self.failure_reports}"
            )
        if not 0.0 <= self.noise_level <= 1.0:
            raise ConfigError(
                f"noise_level must be in [0, 1], got {self.noise_level}"
            )


FORUMS = (
    "howardforums.com",
    "cellphoneforums.net",
    "phonescoop.com",
    "mobiledia.com",
)

#: Posting window: January 2003 .. March 2006 (39 months).
_MONTHS = [
    f"{year}-{month:02d}"
    for year in (2003, 2004, 2005, 2006)
    for month in range(1, 13)
    if not (year == 2006 and month > 3)
]


def generate_corpus(
    config: Optional[CorpusConfig] = None, seed: int = 2003
) -> List[ForumPost]:
    """Generate the full mixed corpus, shuffled into posting order."""
    config = config if config is not None else CorpusConfig()
    streams = RandomStreams(seed)
    stream = streams.stream("forum")
    posts: List[ForumPost] = []
    post_id = 0

    for _ in range(config.failure_reports):
        failure_type, recovery = stream.weighted_choice(config.joint_target)
        activity = stream.weighted_choice(config.activity_target)
        vendor, model, device_class = _pick_device(stream, config.smart_share)
        text = _compose_failure_text(
            stream, config.noise_level, failure_type, recovery, activity, model
        )
        posts.append(
            ForumPost(
                post_id=post_id,
                date=stream.choice(_MONTHS),
                forum=stream.choice(FORUMS),
                vendor=vendor,
                model=model,
                device_class=device_class,
                text=text,
                failure_type=failure_type,
                recovery=recovery,
                activity=activity,
            )
        )
        post_id += 1

    chatter_count = int(config.failure_reports * config.chatter_ratio)
    for _ in range(chatter_count):
        vendor, model, device_class = _pick_device(stream, config.smart_share)
        if stream.bernoulli(V.TRICKY_CHATTER_FRACTION):
            template = stream.choice(V.TRICKY_CHATTER_TEMPLATES)
        else:
            template = stream.choice(V.CHATTER_TEMPLATES)
        posts.append(
            ForumPost(
                post_id=post_id,
                date=stream.choice(_MONTHS),
                forum=stream.choice(FORUMS),
                vendor=vendor,
                model=model,
                device_class=device_class,
                text=template.format(model=model),
            )
        )
        post_id += 1

    return stream.shuffled(posts)


def _pick_device(stream, smart_share: float) -> Tuple[str, str, str]:
    if stream.bernoulli(smart_share):
        model = stream.choice(sorted(_SMART_MODELS))
    else:
        conventional = sorted(
            m
            for models in _MODELS_BY_VENDOR.values()
            for m in models
            if m not in _SMART_MODELS
        )
        model = stream.choice(conventional)
    vendor = next(v for v, ms in _MODELS_BY_VENDOR.items() if model in ms)
    device_class = T.SMART_PHONE if model in _SMART_MODELS else T.CONVENTIONAL
    return vendor, model, device_class


def _compose_failure_text(
    stream,
    noise_level: float,
    failure_type: str,
    recovery: str,
    activity: str,
    model: str,
) -> str:
    parts = []
    opener = stream.choice(V.OPENERS)
    if opener:
        parts.append(opener.format(model=model))
    parts.append(f"my {model}:")
    parts.append(V.pick_phrase(V.SYMPTOM_PHRASES[failure_type], noise_level, stream))
    if activity != T.ACT_NONE:
        parts.append(V.pick_phrase(V.ACTIVITY_PHRASES[activity], noise_level, stream))
    if recovery != T.UNREPORTED:
        parts.append(V.pick_phrase(V.RECOVERY_PHRASES[recovery], noise_level, stream))
    return " ".join(parts)
