"""Virtual time for the simulation.

Time is modelled as a ``float`` number of seconds since the campaign
epoch (the moment the data-collection campaign starts; the paper's
campaign started in September 2005).  Durations are plain floats in
seconds.  The constants below keep call sites readable:
``3 * DAY`` instead of ``259200.0``.
"""

from __future__ import annotations

from repro.core.errors import SimulationError

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY
#: Mean Gregorian month; the paper's "14 months" is interpreted with this.
MONTH = 30.44 * DAY


class SimClock:
    """A monotonically advancing virtual clock.

    The clock is owned by the :class:`~repro.core.engine.Simulator`;
    everything else holds a read-only reference and asks ``clock.now``.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds since the epoch."""
        return self._now

    def read(self) -> float:
        """The current time as a plain call.

        Equivalent to :attr:`now`; exists so hot writers can hold the
        bound method as a ``time_fn`` (one call) instead of wrapping
        the property in a lambda (three).
        """
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Raises:
            SimulationError: if ``t`` is in the past.  Equal times are
                allowed (many events share a timestamp).
        """
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards: now={self._now}, target={t}"
            )
        self._now = t

    def __repr__(self) -> str:
        return f"SimClock(now={format_instant(self._now)})"


def format_instant(t: float) -> str:
    """Render an instant as ``'day D HH:MM:SS'`` relative to the epoch.

    >>> format_instant(0.0)
    'day 0 00:00:00'
    """
    total = int(t)
    days, rem = divmod(total, int(DAY))
    hours, rem = divmod(rem, int(HOUR))
    minutes, secs = divmod(rem, int(MINUTE))
    return f"day {days} {hours:02d}:{minutes:02d}:{secs:02d}"
