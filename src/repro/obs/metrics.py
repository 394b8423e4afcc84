"""A process-wide metrics registry with Prometheus-style exposition.

Three instrument kinds, all label-aware:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — fixed cumulative buckets plus ``_sum``/``_count``,
  from which :meth:`Histogram.quantile` estimates a quantile.

Usage::

    registry = MetricsRegistry()
    hits = registry.counter(
        "demo_hits_total", "Cache hits", ("view", "table"))
    hits.labels(view="v3", table="lineitem").inc()
    print(registry.render_prometheus())

Registration is idempotent: asking for an already-registered name with
the same kind and label names returns the existing instrument; a
conflicting redefinition raises ``ValueError``.

Every mutation is thread-safe: the scheduler's dispatcher thread, the
callers' threads and the shard reply readers update counters and
histograms while the HTTP exposition endpoint reads them.  Locking is
layered — one lock per registry (registration), one per metric (series
creation and render), one per series (value updates) — so hot-path
increments on distinct series never contend with each other.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
]

# Latency-flavored defaults (seconds): sub-millisecond pure-Python passes
# up to multi-second recomputes.
DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _escape(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Render a sample value: integers without the trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _series_suffix(labelnames: Sequence[str], labelvalues: Tuple) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{name}="{_escape(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + inner + "}"


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._series: Dict[Tuple, object] = {}
        self._lock = threading.Lock()

    def _key(self, labels: Dict) -> Tuple:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(labels[name] for name in self.labelnames)

    def labels(self, **labels):
        return self.child(self._key(labels))

    def child(self, key: Tuple):
        """The series for the label values *key* (in ``labelnames``
        order), created on first use — ``labels`` without the keyword
        matching, for callers that build the key themselves."""
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._new_series()
                    self._series[key] = series
        return series

    def _new_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def reset(self, values: Dict[Tuple, float]) -> None:
        """Replace every series with *values* (label values -> value)."""
        fresh = {key: self._new_series() for key in values}
        for key, value in values.items():
            fresh[key].value = value
        self._series = fresh

    def sum_by(self, *names: str) -> Dict[Tuple, float]:
        """Series values summed per distinct combination of the labels
        *names* (counters and gauges): ``sum_by("view")`` folds the
        table/operation labels away."""
        picks = [self.labelnames.index(name) for name in names]
        with self._lock:
            snapshot = list(self._series.items())
        out: Dict[Tuple, float] = {}
        for key, series in snapshot:
            group = tuple(key[i] for i in picks)
            out[group] = out.get(group, 0) + series.value
        return out

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            snapshot = dict(self._series)
        for key in sorted(snapshot, key=lambda k: tuple(map(str, k))):
            lines.extend(self._render_series(key, snapshot[key]))
        return lines

    def value(self, **labels) -> float:
        """The series *labels*' value — read, never created: a series
        nothing wrote reads 0 and stays out of the exposition."""
        series = self._series.get(self._key(labels))
        return 0.0 if series is None else series.value

    def _render_series(self, key, series) -> List[str]:
        """A counter's or a gauge's sample (histograms override)."""
        return [f"{self.name}{_series_suffix(self.labelnames, key)} {_fmt(series.value)}"]


class _Value:
    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()


class _CounterSeries(_Value):
    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        # read-modify-write: unguarded `+=` drops increments under
        # concurrent fan-out
        with self._lock:
            self.value += amount


class _GaugeSeries(_Value):
    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Counter(_Metric):
    kind = "counter"

    def _new_series(self):
        return _CounterSeries()

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)

    def total(self) -> float:
        return sum(s.value for s in self._series.values())


class Gauge(_Metric):
    kind = "gauge"

    def _new_series(self):
        return _GaugeSeries()

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)


class _HistogramSeries:
    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def snapshot(self):
        """(counts, sum, count) captured atomically, for rendering —
        without it a scrape can see count ahead of the bucket tally."""
        with self._lock:
            return list(self.counts), self.sum, self.count


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        cleaned = sorted(set(float(b) for b in buckets))
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = tuple(cleaned)

    def _new_series(self):
        return _HistogramSeries(self.buckets)

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)

    def quantile(self, q: float, **match: str) -> float:
        """The *q* quantile (in [0, 1]) of the series whose labels
        include *match*, their buckets summed, estimated as Prometheus's
        ``histogram_quantile`` does: linear inside the bucket the rank
        falls in, from the bucket's lower bound (0 for the first), and
        the highest finite bound when it falls in ``+Inf``.  For q > 0,
        0 exactly when no matching series holds an observation."""
        picks = [(self.labelnames.index(name), value) for name, value in match.items()]
        with self._lock:
            series = [s for key, s in self._series.items() if all(key[i] == v for i, v in picks)]
        counts = [sum(column) for column in zip(*(s.snapshot()[0] for s in series))]
        rank, seen = q * sum(counts), 0
        for bound, lower, count in zip(self.buckets, (0.0,) + self.buckets, counts):
            if count and seen + count >= rank:
                return lower + (bound - lower) * (rank - seen) / count
            seen += count
        return self.buckets[-1] if rank else 0.0

    def _render_series(self, key, series) -> List[str]:
        counts, total_sum, total_count = series.snapshot()
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            labels = _series_suffix(
                self.labelnames + ("le",), key + (_fmt(bound),)
            )
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        cumulative += counts[-1]
        labels = _series_suffix(self.labelnames + ("le",), key + ("+Inf",))
        lines.append(f"{self.name}_bucket{labels} {cumulative}")
        suffix = _series_suffix(self.labelnames, key)
        lines.append(f"{self.name}_sum{suffix} {_fmt(total_sum)}")
        lines.append(f"{self.name}_count{suffix} {total_count}")
        return lines


class MetricsRegistry:
    """Owns named instruments and renders them all as exposition text."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                same = (
                    type(existing) is cls
                    and existing.labelnames == tuple(labelnames)
                )
                if not same:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        """All registered metrics, name-sorted (a snapshot)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.metrics():
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")
