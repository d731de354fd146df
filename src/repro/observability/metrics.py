"""Labeled metrics: counters, gauges, histograms, and their registry.

The design target is the reproduction's own hot path: a paper-scale
campaign fires ~200k simulator events and dispatches ~250k active
objects, and the 2x perf regression gate must hold with telemetry
disabled while an enabled run stays within a few percent.  Three rules
follow:

* **The disabled path is a single branch.**  Instrumented code holds a
  pre-resolved series handle (or ``None``); the hot check is
  ``if series is not None``, never a registry lookup.
* **Series handles are plain slots objects.**  ``series.value += 1`` is
  the whole cost of a counter increment; a histogram observation is one
  ``bisect`` over a small precomputed bound list.
* **Everything merges.**  Pooled sweep workers ship their registry back
  as plain data through the summary channel; merging sums counters and
  histogram buckets, which is commutative and associative, so the
  merged registry is independent of worker scheduling.

Wall-clock timings are real but not reproducible; metrics built from
them are flagged ``deterministic=False`` and excluded from
:meth:`MetricsRegistry.deterministic_dict`, the view the determinism
tests (same seed => identical values) and the sweep-merge equality
check compare.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_HISTOGRAM_BOUNDS",
]

#: Series key: sorted ``(label, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Generic wide-range bounds (seconds-ish), used when a histogram is
#: created without explicit bounds.
DEFAULT_HISTOGRAM_BOUNDS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 86400.0, 604800.0
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class CounterSeries:
    """One labeled counter stream; ``value`` is mutated in place."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: LabelKey) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class GaugeSeries:
    """One labeled gauge stream; last write wins, merge sums."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: LabelKey) -> None:
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class HistogramSeries:
    """One labeled histogram stream with fixed bucket bounds."""

    __slots__ = ("labels", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, labels: LabelKey, bounds: Sequence[float]) -> None:
        self.labels = labels
        self.bounds = tuple(bounds)
        # One bucket per bound plus the overflow bucket.
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class _Metric:
    """Shared series-table machinery for the three instrument kinds."""

    kind = "metric"
    _series_cls: type

    __slots__ = ("name", "help", "deterministic", "_series")

    def __init__(self, name: str, help: str = "", deterministic: bool = True) -> None:
        self.name = name
        self.help = help
        self.deterministic = deterministic
        self._series: Dict[LabelKey, Any] = {}

    def series(self, **labels: str):
        """Get-or-create the series for ``labels``.

        Hot callers resolve their series once and keep the handle; the
        returned object's mutators are attribute arithmetic only.
        """
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._make_series(key)
            self._series[key] = series
        return series

    def _make_series(self, key: LabelKey):
        return self._series_cls(key)

    def all_series(self) -> List[Any]:
        """Series sorted by label key (deterministic export order)."""
        return [self._series[key] for key in sorted(self._series)]

    def __len__(self) -> int:
        return len(self._series)


class Counter(_Metric):
    """Monotonic labeled counter."""

    kind = "counter"
    _series_cls = CounterSeries
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.series(**labels).value += amount

    def value(self, **labels: str) -> float:
        series = self._series.get(_label_key(labels))
        return series.value if series is not None else 0.0

    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(series.value for series in self._series.values())


class Gauge(_Metric):
    """Point-in-time labeled value (merge is additive: per-worker
    gauges are sized quantities like pending entries, not ratios)."""

    kind = "gauge"
    _series_cls = GaugeSeries
    __slots__ = ()

    def set(self, value: float, **labels: str) -> None:
        self.series(**labels).value = value

    def value(self, **labels: str) -> float:
        series = self._series.get(_label_key(labels))
        return series.value if series is not None else 0.0


class Histogram(_Metric):
    """Labeled histogram over fixed bucket bounds."""

    kind = "histogram"
    _series_cls = HistogramSeries
    __slots__ = ("bounds",)

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_HISTOGRAM_BOUNDS,
        deterministic: bool = True,
    ) -> None:
        super().__init__(name, help, deterministic)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be sorted and unique: {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)

    def _make_series(self, key: LabelKey) -> HistogramSeries:
        return HistogramSeries(key, self.bounds)

    def observe(self, value: float, **labels: str) -> None:
        self.series(**labels).observe(value)


class MetricsRegistry:
    """Name -> metric table; the mergeable unit of campaign telemetry."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # -- instrument creation ------------------------------------------------

    def counter(self, name: str, help: str = "", deterministic: bool = True) -> Counter:
        return self._get_or_create(Counter, name, help=help, deterministic=deterministic)

    def gauge(self, name: str, help: str = "", deterministic: bool = True) -> Gauge:
        return self._get_or_create(Gauge, name, help=help, deterministic=deterministic)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_HISTOGRAM_BOUNDS,
        deterministic: bool = True,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help=help, bounds=bounds, deterministic=deterministic
        )

    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    # -- access -------------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def counter_totals(self) -> Dict[str, float]:
        """name -> summed value of every counter (headline totals)."""
        return {
            name: metric.total()
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dump; series are sorted by label key."""
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: Dict[str, Any] = {
                "kind": metric.kind,
                "deterministic": metric.deterministic,
            }
            if metric.help:
                entry["help"] = metric.help
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                entry["series"] = [
                    {
                        "labels": {k: v for k, v in series.labels},
                        "buckets": list(series.buckets),
                        "count": series.count,
                        "total": series.total,
                        "min": series.min if series.count else 0.0,
                        "max": series.max if series.count else 0.0,
                    }
                    for series in metric.all_series()
                ]
            else:
                entry["series"] = [
                    {
                        "labels": {k: v for k, v in series.labels},
                        "value": series.value,
                    }
                    for series in metric.all_series()
                ]
            out[name] = entry
        return out

    def deterministic_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` restricted to reproducible metrics.

        This is the view the determinism tests and the sweep-merge
        equality check compare: wall-clock histograms (flagged
        ``deterministic=False``) are excluded, everything derived from
        sim time or event counts is included.
        """
        full = self.to_dict()
        return {name: entry for name, entry in full.items() if entry["deterministic"]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, entry in data.items():
            kind = entry.get("kind")
            deterministic = bool(entry.get("deterministic", True))
            help_text = entry.get("help", "")
            if kind == "histogram":
                metric = registry.histogram(
                    name,
                    help=help_text,
                    bounds=entry["bounds"],
                    deterministic=deterministic,
                )
                for row in entry["series"]:
                    series = metric.series(**row["labels"])
                    series.buckets = list(row["buckets"])
                    series.count = int(row["count"])
                    series.total = float(row["total"])
                    if series.count:
                        series.min = float(row["min"])
                        series.max = float(row["max"])
            elif kind == "counter":
                metric = registry.counter(
                    name, help=help_text, deterministic=deterministic
                )
                for row in entry["series"]:
                    metric.series(**row["labels"]).value = float(row["value"])
            elif kind == "gauge":
                metric = registry.gauge(
                    name, help=help_text, deterministic=deterministic
                )
                for row in entry["series"]:
                    metric.series(**row["labels"]).value = float(row["value"])
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
        return registry

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place); returns self.

        Counters and histogram buckets sum, gauges sum (per-worker
        additive quantities), histogram min/max take the extrema.
        Integer-valued state (counts, buckets, counter values) merges
        exactly in any order; float histogram totals are subject to
        summation order, which is why :func:`merge_registries`
        canonicalizes its input order first.
        """
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = self.histogram(
                        name,
                        help=theirs.help,
                        bounds=theirs.bounds,
                        deterministic=theirs.deterministic,
                    )
                elif isinstance(theirs, Counter):
                    mine = self.counter(
                        name, help=theirs.help, deterministic=theirs.deterministic
                    )
                else:
                    mine = self.gauge(
                        name, help=theirs.help, deterministic=theirs.deterministic
                    )
            if mine.kind != theirs.kind:
                raise ValueError(
                    f"cannot merge metric {name!r}: {mine.kind} vs {theirs.kind}"
                )
            if isinstance(theirs, Histogram):
                if mine.bounds != theirs.bounds:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bounds differ"
                    )
                for series in theirs._series.values():
                    target = mine.series(**dict(series.labels))
                    target.buckets = [
                        a + b for a, b in zip(target.buckets, series.buckets)
                    ]
                    target.count += series.count
                    target.total += series.total
                    target.min = min(target.min, series.min)
                    target.max = max(target.max, series.max)
            else:
                for series in theirs._series.values():
                    mine.series(**dict(series.labels)).value += series.value
        return self


def merge_registries(dicts: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """Merge many ``MetricsRegistry.to_dict()`` payloads into one.

    Input order never matters: the payloads are folded in canonical
    (serialized) order, so any permutation of the same worker
    registries — pool completion order, retry order — produces a
    bit-identical result, float histogram totals included.
    """
    merged = MetricsRegistry()
    for data in sorted(dicts, key=lambda d: json.dumps(d, sort_keys=True)):
        merged.merge(MetricsRegistry.from_dict(data))
    return merged
