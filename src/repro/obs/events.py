"""Structured events: a bounded JSON-lines sink with severities.

The metrics registry answers "how much"; this log answers "what
happened".  An :class:`EventLog` records discrete, structured
occurrences — a slow query with its full EXPLAIN payload, a
checkpoint, a recovery — as :class:`EventRecord`\\ s carrying a
severity, a monotonic nanosecond timestamp (injectable clock, so
tests pin timestamps exactly) and arbitrary JSON-serializable fields.

The records live in a bounded ring (oldest dropped, a counter keeps
score) and export as JSON lines (:meth:`EventLog.to_jsonl`) — one
object per line, the shape log shippers ingest without adapters.

The marquee producer is the **slow-query log**: when
``repro.obs.SLOW_QUERY_NS`` is armed, every evaluation runs with
EXPLAIN collection and any query whose wall time exceeds the threshold
emits a ``query.slow`` event whose fields are the complete EXPLAIN
record (plan strategy, cache states, per-stage ns, index probes) —
captured *during* the slow run, not reconstructed after it.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Deque, Iterator, List, Optional

#: Default bound on retained events.
DEFAULT_EVENT_LIMIT = 1024

#: Severities in increasing order of concern.
SEVERITIES = ("debug", "info", "warn", "error")


class EventRecord:
    """One structured occurrence."""

    __slots__ = ("kind", "severity", "monotonic_ns", "fields")

    def __init__(self, kind: str, severity: str, monotonic_ns: int,
                 fields: dict) -> None:
        self.kind = kind
        self.severity = severity
        self.monotonic_ns = monotonic_ns
        self.fields = fields

    def as_dict(self) -> dict:
        out = {
            "event": self.kind,
            "severity": self.severity,
            "monotonic_ns": self.monotonic_ns,
        }
        out.update(self.fields)
        return out

    def __repr__(self) -> str:
        return (f"EventRecord({self.kind!r}, {self.severity}, "
                f"t={self.monotonic_ns}ns)")


class EventLog:
    """A bounded in-memory structured event sink.

    *clock* is any zero-argument callable returning monotonically
    increasing nanoseconds — ``time.monotonic_ns`` in production, a
    counter stub in determinism tests.
    """

    def __init__(self,
                 clock: Callable[[], int] = time.monotonic_ns,
                 limit: int = DEFAULT_EVENT_LIMIT) -> None:
        self._clock = clock
        self.limit = limit
        #: A deque ring: appends evict the oldest in O(1), so emit
        #: stays constant-time on the armed slow-query path.
        self.records: Deque[EventRecord] = deque(maxlen=limit)
        self.dropped = 0

    def emit(self, kind: str, severity: str = "info",
             **fields: object) -> EventRecord:
        """Record one event; returns the record for convenience."""
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r} "
                             f"(expected one of {SEVERITIES})")
        record = EventRecord(kind, severity, self._clock(),
                             dict(fields))
        if len(self.records) == self.limit:
            self.dropped += 1  # the append below evicts the oldest
        self.records.append(record)
        return record

    # -- inspection -----------------------------------------------------

    def find(self, kind: str) -> List[EventRecord]:
        return [r for r in self.records if r.kind == kind]

    def last(self, kind: Optional[str] = None) -> Optional[EventRecord]:
        if kind is None:
            return self.records[-1] if self.records else None
        matches = self.find(kind)
        return matches[-1] if matches else None

    def to_jsonl(self) -> str:
        """The log as JSON lines (one compact object per record)."""
        return "\n".join(
            json.dumps(record.as_dict(), separators=(",", ":"),
                       default=str)
            for record in self.records)

    def reset(self) -> None:
        self.records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"EventLog({len(self.records)} events)"
