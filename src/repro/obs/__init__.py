"""Observability: metrics, events, span tracing and query EXPLAIN.

Zero-dependency and process-local.  What is recorded when:

* **Always recorded** — lock-cheap counters and windowed histograms
  (p50/p95/p99) across WAL appends, transaction commits, checkpoints,
  recovery replay, index maintenance, server requests and
  compiled-query execution, plus the event log.  There is no switch:
  the cost sits inside the ``ops_per_s`` and ``p50_us`` that
  ``BENCHMARK.json`` bounds, and these are the numbers
  ``repro metrics`` serves.
* **Diagnostics** (:data:`ENABLED`, off by default; :func:`enable` /
  :func:`disable`) — span tracing, the per-query EXPLAIN log with its
  ``query.axis_steps``/``nodes_*`` counters, per-requirement
  conformance counts and FLWOR clause timings.  These allocate per
  operation, so they are for investigations, not steady state.

Four facilities:

* :data:`REGISTRY` — the process metrics registry
  (:class:`~repro.obs.metrics.MetricsRegistry`): counters, gauges,
  histograms with snapshot/reset and Prometheus exposition;
* :data:`EVENTS` — the structured event log
  (:class:`~repro.obs.events.EventLog`): JSON-lines records with
  severity and monotonic timestamps — home of the slow-query log;
* :data:`TRACER` — the span tracer
  (:class:`~repro.obs.tracing.Tracer`): nested wall-time spans with
  tags, an in-memory recorder, a human dump and Chrome-trace export.
  ``TRACER.enabled`` mirrors :data:`ENABLED`, and a disabled
  ``TRACER.span`` is a shared null context manager, so call sites
  wrap in it unconditionally;
* :data:`EXPLAINS` — the query EXPLAIN log
  (:class:`~repro.obs.explain.ExplainLog`): per-query plan strategy,
  cache hit/miss, axis steps and nodes visited/returned.

Hot-path guards: sites whose body allocates per operation test
:data:`ENABLED`; EXPLAIN accounting tests the explain module's
``COLLECTING`` count (one global read when nothing collects).

The **slow-query log** arms through
:func:`set_slow_query_threshold`: with a threshold set, every
evaluation collects its EXPLAIN and any query over budget emits a
``query.slow`` event to :data:`EVENTS` carrying the complete record.

Typical use::

    from repro import obs

    obs.enable()            # diagnostics on top of the counters
    ...                     # run queries / updates / checks
    print(obs.REGISTRY.snapshot())
    print(obs.TRACER.dump())
    obs.disable()           # counters and histograms keep recording
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
#: :func:`enable`/:func:`disable` so ``TRACER.enabled`` follows.
ENABLED = False

#: Slow-query threshold in nanoseconds, or ``None`` (disarmed).  Set
#: through :func:`set_slow_query_threshold`.
SLOW_QUERY_NS: Optional[int] = None

#: The process metrics registry.
REGISTRY = MetricsRegistry()

#: The process structured event log (slow queries, checkpoints, …).
EVENTS = EventLog()

#: The process span tracer (``enabled`` mirrors :data:`ENABLED`).
TRACER = Tracer()

#: The process query-EXPLAIN log.
EXPLAINS = ExplainLog()


def enable() -> None:
    """Turn diagnostics on (span tracing + EXPLAIN collection)."""
    global ENABLED
    ENABLED = TRACER.enabled = True


def disable() -> None:
    """Turn diagnostics off (counters and histograms keep recording)."""
    global ENABLED
    ENABLED = TRACER.enabled = False


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
    "REGISTRY",
    "SLOW_QUERY_NS",
    "SpanRecord",
    "StatisticsCollector",
    "TRACER",
    "Tracer",
    "collect",
    "disable",
    "enable",
    "is_enabled",
    "render_prometheus",
    "reset",
    "set_slow_query_threshold",
    "snapshot",
]
