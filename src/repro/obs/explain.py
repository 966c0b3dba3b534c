"""Query EXPLAIN: per-query execution records for the storage engine.

One :class:`QueryExplain` captures what the §9 query stack actually
did for a single evaluation: which plan strategy the planner chose,
whether the plan/shape/parse caches hit, how many descriptive-schema
nodes the plan scans (and how many structural pruning discarded), how
many axis steps were navigated, and the nodes *visited* versus
*returned* — the node-visit accounting that Koch's complexity results
and the navigational-expressiveness literature tie evaluation cost to.

The recording protocol is deliberately passive so the hot path stays
hot.  The collecting record is **per thread** (the server evaluates on
several workers, and one request's accounting must not land in
another's record); :data:`COLLECTING` counts the scopes open on any
thread.  Instrumented sites (the navigation kernel, plan execution,
the planner) test that one module global and call :func:`current`
only when it is non-zero — with nothing collecting the cost is one
global read per site.

``StorageQueryEngine.evaluate`` opens a scope with :func:`begin` when
diagnostics are enabled or the slow-query log is armed, and appends
the finished record to the process :class:`ExplainLog` under
diagnostics (``repro explain`` reads it back).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

#: Default bound on retained explain records.
DEFAULT_EXPLAIN_LIMIT = 256


class QueryExplain:
    """The execution record of one query evaluation."""

    __slots__ = ("path", "strategy", "plan_cache", "shape_cache",
                 "parse_cache",
                 "schema_nodes_scanned", "pruned_schema_nodes",
                 "axis_steps", "nodes_visited", "nodes_returned",
                 "elapsed_s", "index_used", "compiled", "stage_ns",
                 "cost_table", "cost_estimated_rows", "cost_total",
                 "outer", "stage_note")

    def __init__(self, path: str) -> None:
        self.path = path
        #: The record that was collecting when this one began
        #: (:func:`begin`), resumed by :func:`end`.
        self.outer: Optional[QueryExplain] = None
        #: "empty" | "index" | "scan" | "hybrid" | "naive"
        #: (set by the planner).
        self.strategy = ""
        #: "value:<path>" when a value index answered the decisive
        #: step, "" otherwise.
        self.index_used = ""
        #: "hit" | "miss" | "invalidated" (stale plan dropped, then miss).
        self.plan_cache = ""
        #: "hit" | "miss" when the planner's shape table compiled the
        #: plan (a hit: no parse, no enumeration, no lowering from
        #: scratch), "" when it did not.
        self.shape_cache = ""
        #: "hit" | "miss" | "" (plans passed as Path objects skip parse).
        self.parse_cache = ""
        self.schema_nodes_scanned = 0
        self.pruned_schema_nodes = 0
        self.axis_steps = 0
        self.nodes_visited = 0
        self.nodes_returned = 0
        self.elapsed_s = 0.0
        #: True once the plan's lowered closure chain
        #: (:mod:`repro.query.compiled`) ran — every executed plan.
        self.compiled = False
        #: Per-stage ``(name, elapsed_ns)`` pairs of the closure chain,
        #: source first; a stage with two routes names the one it took
        #: (``step[title]/walk``, ``predicate[author=…]/sweep``).
        self.stage_ns: list = []
        #: ``(route suffix, descriptors read)`` left by the stage that
        #: is running, for the executor to fold into its stage name and
        #: :attr:`nodes_visited`; None between stages.
        self.stage_note: Optional[tuple] = None
        #: Per-candidate cost estimates from the cost-based planner
        #: (one dict per candidate, the chosen one flagged); empty
        #: when the plan was picked structurally.
        self.cost_table: list = []
        #: The chosen candidate's estimated output cardinality and
        #: total cost units — printed next to the observed rows and
        #: elapsed time for calibration.  None without a cost model.
        self.cost_estimated_rows: float | None = None
        self.cost_total: float | None = None

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "strategy": self.strategy,
            "index_used": self.index_used,
            "plan_cache": self.plan_cache,
            "shape_cache": self.shape_cache,
            "parse_cache": self.parse_cache,
            "schema_nodes_scanned": self.schema_nodes_scanned,
            "pruned_schema_nodes": self.pruned_schema_nodes,
            "axis_steps": self.axis_steps,
            "nodes_visited": self.nodes_visited,
            "nodes_returned": self.nodes_returned,
            "elapsed_s": self.elapsed_s,
            "compiled": self.compiled,
            "stage_ns": [[name, elapsed] for name, elapsed
                         in self.stage_ns],
            "cost_table": list(self.cost_table),
            "cost_estimated_rows": self.cost_estimated_rows,
            "cost_total": self.cost_total,
        }

    def render(self) -> str:
        """The human-readable EXPLAIN block for the CLI."""
        lines = [
            f"query:                {self.path}",
            f"  plan strategy:      {self.strategy or '?'}",
            f"  index used:         {self.index_used or 'none'}",
            f"  plan cache:         {self.plan_cache or 'bypassed'}",
            f"  shape cache:        {self.shape_cache or 'bypassed'}",
            f"  parse cache:        {self.parse_cache or 'bypassed'}",
            f"  schema nodes:       {self.schema_nodes_scanned} scanned, "
            f"{self.pruned_schema_nodes} pruned",
            f"  axis steps:         {self.axis_steps}",
            f"  nodes visited:      {self.nodes_visited}",
            f"  nodes returned:     {self.nodes_returned}",
            f"  elapsed:            {self.elapsed_s * 1e3:.3f}ms",
            f"  compiled:           {'yes' if self.compiled else 'no'}",
        ]
        for name, elapsed_ns in self.stage_ns:
            lines.append(
                f"    stage {name + ': ':<31}{elapsed_ns / 1e6:.3f}ms")
        if self.cost_table:
            lines.append("  cost candidates:    "
                         "(chosen marked ->, abstract units)")
            for row in self.cost_table:
                marker = "->" if row.get("chosen") else "  "
                label = row.get("strategy", "?")
                if row.get("index_used"):
                    label += f"[{row['index_used']}]"
                lines.append(
                    f"    {marker} {label:<40}"
                    f"total={row.get('total', 0):>10.1f}  "
                    f"blocks={row.get('blocks', 0):>6.1f}  "
                    f"rows={row.get('scan_rows', 0):>8.1f}  "
                    f"postings={row.get('postings', 0):>8.1f}  "
                    f"residual={row.get('residual', 0):>8.1f}  "
                    f"out={row.get('output_rows', 0):>8.1f}")
            lines.append(
                f"  cost calibration:   estimated "
                f"{self.cost_estimated_rows:.1f} rows vs "
                f"{self.nodes_returned} observed; "
                f"{self.cost_total:.1f} units vs "
                f"{self.elapsed_s * 1e9:.0f}ns observed")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"QueryExplain({self.path!r}, {self.strategy}, "
                f"visited={self.nodes_visited}, "
                f"returned={self.nodes_returned})")


#: How many collection scopes are open, on any thread — derived by
#: :func:`begin`/:func:`end`, never set.  Hot-path sites test this
#: once per call and read :func:`current` only when it is non-zero.
COLLECTING = 0

_scopes = threading.local()
_count_lock = threading.Lock()


def current() -> Optional[QueryExplain]:
    """The record the calling thread is collecting into, if any."""
    return getattr(_scopes, "record", None)


def begin(path: str) -> QueryExplain:
    """Start collecting one query's execution record on this thread;
    pair with :func:`end` in a ``finally`` (or use :func:`collect`).

    Nested evaluations (a hybrid plan navigating its suffix calls the
    shared kernel again) accumulate into the same record — that is the
    point: the record totals the whole query.  A nested scope (e.g.
    XQuery evaluating an inner path) stacks and restores.
    """
    global COLLECTING
    record = QueryExplain(path)
    record.outer = current()
    _scopes.record = record
    with _count_lock:
        COLLECTING += 1
    return record


def end(record: QueryExplain) -> None:
    """Stop collecting into *record*; the enclosing scope resumes."""
    global COLLECTING
    _scopes.record = record.outer
    with _count_lock:
        COLLECTING -= 1


@contextmanager
def collect(path: str) -> Iterator[QueryExplain]:
    """:func:`begin` / :func:`end` as a ``with`` block."""
    record = begin(path)
    try:
        yield record
    finally:
        end(record)


class ExplainLog:
    """A bounded in-memory log of finished explain records."""

    def __init__(self, limit: int = DEFAULT_EXPLAIN_LIMIT) -> None:
        self.limit = limit
        self.records: List[QueryExplain] = []

    def append(self, record: QueryExplain) -> None:
        if len(self.records) >= self.limit:
            del self.records[0]
        self.records.append(record)

    def last(self) -> Optional[QueryExplain]:
        return self.records[-1] if self.records else None

    def reset(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[QueryExplain]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"ExplainLog({len(self.records)} records)"
