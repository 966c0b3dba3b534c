"""Observability: metrics, events, span tracing and query EXPLAIN.

Zero-dependency and process-local, in **two tiers**:

* **Telemetry** (:data:`TELEMETRY`, *on by default*) — the production
  tier: lock-cheap counters and windowed histograms (p50/p95/p99)
  across WAL appends, transaction commits, checkpoints, recovery
  replay, index maintenance and compiled-query execution.  It is on
  in every end-to-end benchmark run, so its cost sits inside the
  ``ops_per_s`` and ``p50_us`` that ``BENCHMARK.json`` bounds, and it
  stays on in production — the numbers ``repro metrics --prom`` and
  ``repro top`` serve.
* **Diagnostics** (:data:`ENABLED`, off by default) — the deep tier:
  span tracing, per-query EXPLAIN collection and the explain log.
  These allocate per operation, so they are for investigations, not
  steady state.

Four facilities share the switches:

* :data:`REGISTRY` — the process metrics registry
  (:class:`~repro.obs.metrics.MetricsRegistry`): counters, gauges,
  histograms with snapshot/reset and Prometheus exposition;
* :data:`EVENTS` — the structured event log
  (:class:`~repro.obs.events.EventLog`): JSON-lines records with
  severity and monotonic timestamps — home of the slow-query log;
* :data:`TRACER` — the span tracer
  (:class:`~repro.obs.tracing.Tracer`): nested wall-time spans with
  tags, an in-memory recorder, a human dump and Chrome-trace export;
* :data:`EXPLAINS` — the query EXPLAIN log
  (:class:`~repro.obs.explain.ExplainLog`): per-query plan strategy,
  cache hit/miss, axis steps and nodes visited/returned.

Hot-path guards: counter/histogram sites test :data:`RECORDING`
(true when either tier is on — one attribute test when everything is
off); span and EXPLAIN sites test :data:`ENABLED` (or the explain
module's ``ACTIVE is None`` protocol on the innermost kernel).
Inherent counters (the LRU caches) use registry instruments directly
because counting is their job, enabled or not.

The **slow-query log** arms through
:func:`set_slow_query_threshold`: with a threshold set, every
evaluation collects its EXPLAIN and any query over budget emits a
``query.slow`` event to :data:`EVENTS` carrying the complete record.

Typical use::

    from repro import obs

    obs.enable()            # diagnostics on top of telemetry
    ...                     # run queries / updates / checks
    print(obs.REGISTRY.snapshot())
    print(obs.TRACER.dump())
    obs.disable()           # telemetry stays on
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    DEFAULT_EVENT_LIMIT,
    EventLog,
    EventRecord,
)
from repro.obs.explain import (
    DEFAULT_EXPLAIN_LIMIT,
    ExplainLog,
    QueryExplain,
    collect,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.statistics import NodeStats, StatisticsCollector
from repro.obs.tracing import DEFAULT_SPAN_LIMIT, SpanRecord, Tracer

#: The diagnostics switch (spans + EXPLAIN collection).  Read directly
#: (``obs.ENABLED``) on hot paths; flip only through
#: :func:`enable`/:func:`disable` so the derived flags stay in sync.
ENABLED = False

#: The always-on production tier: counters and windowed histograms.
#: Flip only through :func:`set_telemetry`.
TELEMETRY = True

#: ``ENABLED or TELEMETRY`` — the one attribute counter sites test.
#: Derived; never assign it directly.
RECORDING = True

#: Slow-query threshold in nanoseconds, or ``None`` (disarmed).  Set
#: through :func:`set_slow_query_threshold`.
SLOW_QUERY_NS: Optional[int] = None

#: The process metrics registry.
REGISTRY = MetricsRegistry()

#: The process structured event log (slow queries, checkpoints, …).
EVENTS = EventLog()

#: The process span tracer (enabled/disabled with diagnostics).
TRACER = Tracer()

#: The process query-EXPLAIN log.
EXPLAINS = ExplainLog()


def _derive() -> None:
    global RECORDING
    RECORDING = ENABLED or TELEMETRY


def enable(tracing: bool = True) -> None:
    """Turn diagnostics on (EXPLAIN collection; *tracing* optional)."""
    global ENABLED
    ENABLED = True
    TRACER.enabled = tracing
    _derive()


def disable() -> None:
    """Turn diagnostics off (telemetry keeps its own switch)."""
    global ENABLED
    ENABLED = False
    TRACER.enabled = False
    _derive()


def set_telemetry(on: bool) -> None:
    """Switch the always-on tier (off only for overhead measurement
    and hermetic zero-count tests)."""
    global TELEMETRY
    TELEMETRY = bool(on)
    _derive()


def set_slow_query_threshold(seconds: Optional[float]) -> None:
    """Arm (or with ``None`` disarm) the slow-query log.

    Any evaluation slower than *seconds* emits a ``query.slow`` event
    to :data:`EVENTS` carrying its complete EXPLAIN record.
    """
    global SLOW_QUERY_NS
    SLOW_QUERY_NS = None if seconds is None else int(seconds * 1e9)


def is_enabled() -> bool:
    return ENABLED


def reset() -> None:
    """Zero counters, drop spans/events/explains; keep the switches."""
    REGISTRY.reset()
    TRACER.reset()
    EXPLAINS.reset()
    EVENTS.reset()


def snapshot() -> dict:
    """The registry snapshot (the ``metrics`` payload of reports)."""
    return REGISTRY.snapshot()


__all__ = [
    "Counter",
    "DEFAULT_EVENT_LIMIT",
    "DEFAULT_EXPLAIN_LIMIT",
    "DEFAULT_SPAN_LIMIT",
    "ENABLED",
    "EVENTS",
    "EXPLAINS",
    "EventLog",
    "EventRecord",
    "ExplainLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeStats",
    "QueryExplain",
    "RECORDING",
    "REGISTRY",
    "SLOW_QUERY_NS",
    "SpanRecord",
    "StatisticsCollector",
    "TELEMETRY",
    "TRACER",
    "Tracer",
    "collect",
    "disable",
    "enable",
    "is_enabled",
    "render_prometheus",
    "reset",
    "set_slow_query_threshold",
    "set_telemetry",
    "snapshot",
]
