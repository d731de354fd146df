"""Campaign configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass

from repro.core.clock import MONTH
from repro.core.errors import ConfigError
from repro.phone.fleet import FleetConfig


def jsonify(value):
    """Recursively coerce to JSON-native types: dataclasses become
    dicts, dict keys become strings (``PanicId`` keys via their
    ``str()``), tuples become lists.  Round-tripping the result
    through ``json.dumps``/``loads`` is the identity."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    return value


@dataclass
class CampaignConfig:
    """One data-collection campaign: the fleet plus analysis knobs."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    seed: int = 2005
    #: Coalescence window for the panic/HL analysis (paper: 5 minutes).
    coalescence_window: float = 300.0

    def __post_init__(self) -> None:
        if self.fleet.phone_count <= 0:
            raise ConfigError("campaign needs at least one phone")
        if not (math.isfinite(self.fleet.duration) and self.fleet.duration > 0):
            raise ConfigError("campaign duration must be positive and finite")
        window = self.coalescence_window
        if not (math.isfinite(window) and window > 0):
            raise ConfigError("coalescence window must be positive and finite")
        if self.fleet.phone_range is not None:
            try:
                self.fleet.resolved_range()
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def to_dict(self) -> dict:
        """JSON-native dump of every knob (fleet, logger, and fault
        model included) — the identity of a campaign for caching."""
        return jsonify(self)

    @classmethod
    def paper_scale(cls, seed: int = 2005) -> "CampaignConfig":
        """The paper's setup: 25 phones, 14 months."""
        return cls(fleet=FleetConfig(phone_count=25, duration=14 * MONTH), seed=seed)

    @classmethod
    def tiny(cls, seed: int = 2005) -> "CampaignConfig":
        """The smallest meaningful campaign — 3 phones, 1 month — for
        smoke tests and CI fault sweeps where wall time dominates."""
        fleet = FleetConfig(
            phone_count=3,
            duration=MONTH,
            enroll_fraction_min=0.0,
            enroll_fraction_max=0.15,
        )
        return cls(fleet=fleet, seed=seed)

    @classmethod
    def quick(cls, seed: int = 2005) -> "CampaignConfig":
        """A small, fast campaign for tests and examples: 6 phones, 2
        months, everyone enrolled early."""
        fleet = FleetConfig(
            phone_count=6,
            duration=2 * MONTH,
            enroll_fraction_min=0.0,
            enroll_fraction_max=0.15,
        )
        return cls(fleet=fleet, seed=seed)
