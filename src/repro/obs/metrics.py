"""A process-local metrics registry: counters, gauges, histograms.

The registry is the **one counter mechanism** of the repository: every
subsystem that counts something — cache hits, block splits, labels
allocated, conformance violations — does it through a
:class:`Counter`/:class:`Gauge`/:class:`Histogram` instrument, and
aggregate views (``repro metrics``) read one
:meth:`MetricsRegistry.snapshot`.

Counting is unconditional everywhere: an instrument ``inc`` is a
plain attribute add and no cheaper mechanism exists.  Sites on a hot
path hold their instrument objects (``reset`` zeroes them in place,
so they stay live); the rest look them up by name per call.

Instrument names are dotted paths (``storage.blocks.split``); the
registry keeps them unique and type-stable (asking for a counter under
a gauge's name is an error, not a silent cast).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Union

#: Ring size of the histogram's sliding window — the sample the
#: percentiles are computed over.  512 recent observations bound both
#: memory and the sort cost of a percentile query while giving p99 a
#: meaningful tail (≥ 5 samples above it).
DEFAULT_WINDOW = 512


class Counter:
    """A monotonically increasing count (resettable for snapshots)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time level (last value wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Streaming aggregates plus a sliding window for percentiles.

    ``observe`` is O(1) and allocation-free on the steady state: the
    running count/sum/min/max update, and the value lands in a
    preallocated ring of the most recent :data:`DEFAULT_WINDOW`
    observations.  Percentiles (p50/p95/p99, nearest-rank) are computed
    over that window only when asked — the sort cost sits on the
    reader (``repro metrics``), never the hot path.
    Full bucketing stays deliberately omitted; a recent window is what
    an operator watching latency actually wants.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_window", "_size", "_cursor")

    def __init__(self, name: str, window: int = DEFAULT_WINDOW) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._window = [0.0] * window
        self._size = window
        self._cursor = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        cursor = self._cursor
        self._window[cursor] = value
        cursor += 1
        self._cursor = 0 if cursor == self._size else cursor

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def window_values(self) -> list:
        """The retained recent observations (unordered)."""
        if self.count >= len(self._window):
            return list(self._window)
        return self._window[:self.count]

    def percentiles(self) -> dict:
        """Nearest-rank p50/p95/p99 over the sliding window."""
        values = sorted(self.window_values())
        if not values:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        last = len(values) - 1

        def rank(q: float) -> float:
            return values[min(last, int(q * len(values)))]

        return {"p50": rank(0.50), "p95": rank(0.95),
                "p99": rank(0.99)}

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._cursor = 0

    def summary(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of instruments with get-or-create access."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def value(self, name: str, default: float = 0) -> float:
        """The scalar value of a counter/gauge (histograms: the count)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        if isinstance(instrument, Histogram):
            return instrument.count
        return instrument.value

    def snapshot(self) -> dict:
        """All instrument values keyed by name, sorted for stable JSON;
        histograms expand to their summary dict."""
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def structured(self) -> dict:
        """Instruments grouped by kind: counters and gauges as plain
        name→value maps, histograms expanded to their full summary
        (count/sum/min/max/mean plus p50/p95/p99) — the ``repro metrics
        --json`` payload shape."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            else:
                out["histograms"][name] = instrument.summary()
        return out

    def reset(self) -> None:
        """Zero every instrument (registrations are kept, so counters
        materialized at zero stay visible in the next snapshot)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def clear(self) -> None:
        """Forget every instrument (test isolation)."""
        self._instruments.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._instruments))

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"


def _prom_name(name: str) -> str:
    """A dotted instrument name as a Prometheus metric name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Counters render as single samples under the conventional
    ``_total`` suffix; gauges as single samples; histograms as
    summaries — ``{quantile="…"}`` samples from the sliding window plus
    the lifetime ``_sum`` / ``_count`` pair.  The output is stable
    (name-sorted) so scrapes and golden tests diff cleanly.
    """
    lines: list = []
    for name in registry:
        instrument = registry.get(name)
        metric = _prom_name(name)
        if isinstance(instrument, Counter):
            metric += "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {instrument.value}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {instrument.value}")
        else:
            quantiles = instrument.percentiles()
            lines.append(f"# TYPE {metric} summary")
            for label, q in (("0.5", "p50"), ("0.95", "p95"),
                             ("0.99", "p99")):
                lines.append(f'{metric}{{quantile="{label}"}} '
                             f"{quantiles[q]}")
            lines.append(f"{metric}_sum {instrument.total}")
            lines.append(f"{metric}_count {instrument.count}")
    return "\n".join(lines) + "\n"
