"""Span tracing: nested wall-time measurements via context managers.

A :class:`Tracer` records :class:`SpanRecord`\\ s into an in-memory
ring; spans nest (the tracer tracks depth per thread, so concurrent
workers each record their own roots), carry tags, and are timed
with an injectable monotonic clock so tests can pin durations
exactly.  ``event()`` records a zero-duration span — used for discrete
occurrences that want a site attached (e.g. a conformance violation
with its location path).

When the tracer is disabled, :meth:`Tracer.span` returns a shared
null context manager: the cost of a disabled span is one attribute
test and one constant return, with no allocation.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, List, Optional

#: Default bound on retained spans; oldest records are dropped beyond it
#: (tracing must never grow without bound inside a long benchmark run).
DEFAULT_SPAN_LIMIT = 10_000


class SpanRecord:
    """One completed (or still-open) span."""

    __slots__ = ("name", "start", "elapsed", "depth", "tags", "tid")

    def __init__(self, name: str, start: float, depth: int,
                 tags: dict, tid: int) -> None:
        self.name = name
        self.start = start
        #: Wall-clock seconds; ``None`` while the span is still open.
        self.elapsed: Optional[float] = None
        self.depth = depth
        self.tags = tags
        #: ``threading.get_ident()`` of the recording thread.
        self.tid = tid

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "depth": self.depth,
            "elapsed_s": self.elapsed,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        elapsed = ("open" if self.elapsed is None
                   else f"{self.elapsed * 1e3:.3f}ms")
        return f"SpanRecord({self.name!r}, {elapsed}, depth={self.depth})"


class _NullSpan:
    """The shared no-op context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An armed span: records on entry, stamps elapsed on exit."""

    __slots__ = ("_tracer", "_name", "_tags", "_record", "_started")

    def __init__(self, tracer: "Tracer", name: str, tags: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags

    def __enter__(self) -> SpanRecord:
        self._record = self._tracer._open(self._name, self._tags)
        self._started = self._tracer._clock()
        return self._record

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._record,
                            self._tracer._clock() - self._started)
        return False


class Tracer:
    """Records nested spans; disabled by default.

    *clock* is any zero-argument callable returning monotonically
    increasing seconds — ``time.perf_counter`` in production, a counter
    stub in the determinism tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 limit: int = DEFAULT_SPAN_LIMIT) -> None:
        self._clock = clock
        self.enabled = False
        self.limit = limit
        self.records: List[SpanRecord] = []
        self._open_spans = threading.local()  # .depth, per thread
        self.dropped = 0

    # -- recording ------------------------------------------------------

    def span(self, name: str, **tags: object):
        """A context manager timing one named span (no-op if disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, tags)

    def event(self, name: str, **tags: object) -> None:
        """Record a zero-duration span (a discrete occurrence)."""
        if not self.enabled:
            return
        record = self._open(name, tags)
        self._close(record, 0.0)

    def _open(self, name: str, tags: dict) -> SpanRecord:
        depth = getattr(self._open_spans, "depth", 0)
        record = SpanRecord(name, self._clock(), depth, tags,
                            threading.get_ident())
        self._open_spans.depth = depth + 1
        if len(self.records) >= self.limit:
            del self.records[0]
            self.dropped += 1
        self.records.append(record)
        return record

    def _close(self, record: SpanRecord, elapsed: float) -> None:
        # Back to the depth it opened at (holds across a reset()).
        self._open_spans.depth = record.depth
        record.elapsed = elapsed

    # -- inspection -----------------------------------------------------

    def find(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def iter_roots(self) -> Iterator[SpanRecord]:
        return (r for r in self.records if r.depth == 0)

    def reset(self) -> None:
        self.records.clear()
        self._open_spans = threading.local()
        self.dropped = 0

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome-trace-viewer object.

        Complete ``"X"`` (duration) events in microseconds, loadable
        directly by ``chrome://tracing`` / Perfetto.  Open spans are
        exported with zero duration; tags ride in ``args``.
        """
        events = []
        for record in self.records:
            events.append({
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": (record.elapsed or 0.0) * 1e6,
                "pid": 1,
                "tid": record.tid,
                "args": {key: str(value)
                         for key, value in record.tags.items()},
            })
        return {"traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped}}

    def dump(self) -> str:
        """A human-readable indented trace (records in start order)."""
        if not self.records:
            return "(no spans recorded)"
        lines = []
        for record in self.records:
            indent = "  " * record.depth
            elapsed = ("open" if record.elapsed is None
                       else f"{record.elapsed * 1e3:.3f}ms")
            tags = ""
            if record.tags:
                tags = " " + " ".join(f"{k}={v}"
                                      for k, v in record.tags.items())
            lines.append(f"{indent}{record.name:<32s} {elapsed}{tags}")
        if self.dropped:
            lines.append(f"({self.dropped} older spans dropped)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, {len(self.records)} spans)"
