"""A statistical CPU sampler that says which layer of ``repro`` runs.

``signal.setitimer(ITIMER_PROF)`` interrupts the process every
``interval`` seconds of CPU time; the handler walks the interrupted
stack outwards to the innermost frame whose module belongs to
``repro`` and counts one sample for that module's layer.  Frames of the
standard library (``random``, ``bisect``, ...) are charged to the
``repro`` module that called them.  Used by the traced run only.
"""

from __future__ import annotations

import signal
from collections import Counter
from typing import Dict

#: Layers of the simulate stage, in report order.
LAYERS = (
    "core.engine",
    "core.events",
    "symbian",
    "logger",
    "phone",
    "logger.transfer",
    "other",
)

_EXACT = {
    "repro.core.engine": "core.engine",
    "repro.core.events": "core.events",
    "repro.logger.transfer": "logger.transfer",
}
_PREFIXES = (
    ("repro.symbian.", "symbian"),
    ("repro.logger.", "logger"),
    ("repro.phone.", "phone"),
)


def layer_of(module: str) -> str:
    """The simulate-stage layer a ``repro`` module belongs to."""
    layer = _EXACT.get(module)
    if layer is not None:
        return layer
    for prefix, layer in _PREFIXES:
        if module.startswith(prefix):
            return layer
    return "other"


class LayerSampler:
    """Context manager; samples accumulate across every ``with`` block."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.counts: Counter = Counter()
        self._previous = None

    def _on_sample(self, signum, frame) -> None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                self.counts[layer_of(module)] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> Dict[str, float]:
        """Each layer's fraction of the samples (all 0 with none)."""
        total = self.samples
        return {
            layer: (self.counts[layer] / total if total else 0.0)
            for layer in LAYERS
        }
