"""Per-descriptive-schema-node statistics — the cost-model feed.

The §9.1 descriptive schema gives every document path exactly one
schema node, so the schema node is the natural granule of data
statistics: how many descriptors it holds, how many bytes they cost,
how many *distinct* §4 typed values appear under it and what the
value range is.  A cost-based planner prices candidate strategies
(blocks touched, postings probed, residual selectivity) from exactly
these numbers.

:class:`StatisticsCollector` maintains them **incrementally at
mutation time**: the engine calls :meth:`note_added` /
:meth:`note_removed` / :meth:`note_value_changed` from the same sites
that keep ``SchemaNode.descriptor_count`` and the secondary indexes
honest, so the statistics are always current — no analyze pass.  The
hooks are unconditional (statistics are engine state, not optional
instrumentation) and O(1) per mutation.

Sizing is a deterministic model, not process memory: a fixed
per-descriptor overhead plus the memoized label key length plus the
UTF-8 value length.  Deterministic bytes survive snapshot round-trips
bit-for-bit, which is what lets the checkpoint image persist the
digest and recovery verify it against a from-scratch
:meth:`recount`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.descriptor import NodeDescriptor
    from repro.storage.dschema import SchemaNode
    from repro.storage.engine import StorageEngine

#: Fixed modeled cost of one descriptor before its label and value:
#: the schema-node reference, four structure pointers and the
#: node-type tag of Example 10's layout.
DESCRIPTOR_OVERHEAD = 24

#: A schema node's statistics have *drifted* — and the engine's plan
#: epoch advances — once the mutations against it since its last
#: drift (descriptor count delta plus value rewrites) exceed both this
#: fraction of the count at that drift and
#: :data:`STATS_DRIFT_MIN_MUTATIONS`.  The relative threshold keeps a
#: steady trickle of inserts from re-pricing every plan; the absolute
#: floor keeps tiny nodes from thrashing the epoch on every touch.
STATS_DRIFT_THRESHOLD = 0.3
STATS_DRIFT_MIN_MUTATIONS = 16


def descriptor_bytes(descriptor: "NodeDescriptor") -> int:
    """The deterministic modeled size of one descriptor (the label
    counts its own bytes: one u16 per symbol)."""
    size = DESCRIPTOR_OVERHEAD + bytes.__len__(descriptor.nid)
    if descriptor.value is not None:
        size += len(descriptor.value.encode("utf-8"))
    return size


def _numeric_key(value: str) -> tuple:
    """A deterministic sort key for one numeric-parsing value: the
    parsed number first, the lexical form as tie-break (so ``"9"`` vs
    ``"0009"`` order never depends on dict insertion order).  ``nan``
    has no numeric position and sorts after every number."""
    number = float(value)
    if number != number:  # NaN
        return (1, 0.0, value)
    return (0, number, value)


def _typed_order(values) -> tuple[list, Callable]:
    """Values sorted in the typed space, and its key: numerically when
    every value parses as a number (lexically distinct ``"9"``/``"0009"``
    compare by value, ties broken lexicographically), by ``str``
    otherwise.  The order is a pure function of the value *set* —
    never of insertion order — because the persisted digest must equal
    a from-scratch recount that saw the same values in document order."""
    values = list(values)
    try:
        return sorted(values, key=_numeric_key), _numeric_key
    except ValueError:
        return sorted(values), str


def _in_typed_range(lexical: str, low: str, high: str, key) -> bool:
    """Is *lexical* within ``[low, high]`` in the order (*key*)
    :func:`_typed_order` built that range in?  Every value of the set
    is; a literal that is no number is in no numeric range."""
    try:
        return key(low) <= key(lexical) <= key(high)
    except ValueError:
        return False


class NodeStats:
    """The running statistics of one schema node."""

    __slots__ = ("descriptors", "byte_size", "value_counts", "_range")

    def __init__(self) -> None:
        self.descriptors = 0
        self.byte_size = 0
        #: Multiset of the live values under this node (the multiset —
        #: not a set — so removals keep ``distinct`` exact).
        self.value_counts: Dict[str, int] = {}
        #: ``(min, max, sort key)`` of the current value set (None: no
        #: values); ``False`` = not computed since the set changed.
        self._range: "Optional[tuple] | bool" = False

    @property
    def distinct_values(self) -> int:
        return len(self.value_counts)

    def add_value(self, value: str) -> None:
        count = self.value_counts.get(value, 0)
        if not count:
            self._range = False
        self.value_counts[value] = count + 1

    def remove_value(self, value: str) -> None:
        count = self.value_counts.get(value, 0) - 1
        if count > 0:
            self.value_counts[value] = count
        elif value in self.value_counts:
            del self.value_counts[value]
            self._range = False

    def _typed_range(self) -> "Optional[tuple]":
        """A pure function of the value *set*, so it is memoized until
        a value enters or leaves it."""
        if self._range is False:
            self._range = None
            if self.value_counts:
                ordered, key = _typed_order(self.value_counts)
                self._range = (ordered[0], ordered[-1], key)
        return self._range

    def value_range(self) -> "Optional[tuple[str, str]]":
        """The collected ``(min, max)`` value pair in the typed order,
        or None when the node carries no values."""
        value_range = self._typed_range()
        return value_range and value_range[:2]

    def may_hold(self, lexical: str) -> bool:
        """False only when *lexical* lies outside the value range in
        the order the range was built in — what the cost model prices
        an eq-probe key against.  A stored value never does."""
        value_range = self._typed_range()
        return value_range is None or _in_typed_range(lexical,
                                                      *value_range)

    def as_dict(self) -> dict:
        """The digest the snapshot image persists and EXPLAIN/cost
        models consume (no raw multiset — bounded size per node)."""
        low, high = self.value_range() or (None, None)
        return {
            "descriptors": self.descriptors,
            "bytes": self.byte_size,
            "distinct_values": self.distinct_values,
            "min_value": low,
            "max_value": high,
        }

    def __repr__(self) -> str:
        return (f"NodeStats({self.descriptors} descriptors, "
                f"{self.byte_size} bytes, "
                f"{self.distinct_values} distinct)")


class StatisticsCollector:
    """Schema-node-keyed statistics, maintained at mutation time.

    Beyond the per-node digests, the collector notices **drift**: when
    any node's statistics move past :data:`STATS_DRIFT_THRESHOLD`
    relative to its count at its last drift, it bumps the owning
    engine's ``plan_epoch`` — the one integer a cache hit compares —
    so every cached plan is priced again on its next use."""

    def __init__(self) -> None:
        self._stats: Dict["SchemaNode", NodeStats] = {}
        #: How many drifts this collector has seen (read by tests;
        #: nothing compares it).
        self.epoch = 0
        #: The engine whose statistics these are (set by the engine
        #: and by ``persist.finish_load``; None for a :meth:`recount`
        #: made only to compare).
        self.engine = None
        # Per node: descriptor count at its last drift and value
        # rewrites since.
        self._basis: Dict["SchemaNode", int] = {}
        self._churn: Dict["SchemaNode", int] = {}

    # -- drift ----------------------------------------------------------

    def _note_drift(self, schema_node: "SchemaNode",
                    descriptors: int) -> None:
        """O(1) drift check after one mutation against *schema_node*."""
        basis = self._basis.get(schema_node, 0)
        delta = descriptors - basis
        if delta < 0:
            delta = -delta
        drift = delta + self._churn.get(schema_node, 0)
        if drift >= STATS_DRIFT_MIN_MUTATIONS \
                and drift >= STATS_DRIFT_THRESHOLD * basis:
            self.epoch += 1
            self._basis[schema_node] = descriptors
            self._churn.pop(schema_node, None)
            if self.engine is not None:
                self.engine.plan_epoch += 1

    # -- mutation hooks (engine side) -----------------------------------

    def note_added(self, descriptor: "NodeDescriptor") -> None:
        stats = self._stats.get(descriptor.schema_node)
        if stats is None:
            stats = NodeStats()
            self._stats[descriptor.schema_node] = stats
        stats.descriptors += 1
        stats.byte_size += descriptor_bytes(descriptor)
        if descriptor.value is not None:
            stats.add_value(descriptor.value)
        self._note_drift(descriptor.schema_node, stats.descriptors)

    def note_removed(self, descriptor: "NodeDescriptor") -> None:
        stats = self._stats.get(descriptor.schema_node)
        if stats is None:  # pragma: no cover - hook misuse guard
            return
        stats.descriptors -= 1
        stats.byte_size -= descriptor_bytes(descriptor)
        if descriptor.value is not None:
            stats.remove_value(descriptor.value)
        remaining = stats.descriptors
        if remaining <= 0:
            del self._stats[descriptor.schema_node]
        self._note_drift(descriptor.schema_node, max(0, remaining))

    def note_value_changed(self, descriptor: "NodeDescriptor",
                           old_value: Optional[str]) -> None:
        """*descriptor* already carries the new value."""
        stats = self._stats.get(descriptor.schema_node)
        if stats is None:  # pragma: no cover - hook misuse guard
            return
        if old_value is not None:
            stats.byte_size -= len(old_value.encode("utf-8"))
            stats.remove_value(old_value)
        if descriptor.value is not None:
            stats.byte_size += len(descriptor.value.encode("utf-8"))
            stats.add_value(descriptor.value)
        # A rewrite shifts the value distribution (distinct, min/max)
        # without moving the descriptor count — count it toward drift.
        node = descriptor.schema_node
        self._churn[node] = self._churn.get(node, 0) + 1
        self._note_drift(node, stats.descriptors)

    # -- reading --------------------------------------------------------

    def stats_for(self, schema_node: "SchemaNode"
                  ) -> Optional[NodeStats]:
        return self._stats.get(schema_node)

    def export(self) -> dict:
        """The full digest keyed by schema path, path-sorted — the
        snapshot payload and ``repro inspect``'s table.  The
        document root's empty path renders as ``#document``."""
        out: dict = {}
        for schema_node, stats in self._stats.items():
            out[schema_node.path or "#document"] = stats.as_dict()
        return dict(sorted(out.items()))

    def reset(self) -> None:
        self._stats.clear()
        self._basis.clear()
        self._churn.clear()

    # -- consistency ----------------------------------------------------

    @classmethod
    def recount(cls, engine: "StorageEngine") -> "StatisticsCollector":
        """Statistics rebuilt from scratch off the live block lists."""
        collector = cls()
        for schema_node in engine.schema.iter_nodes():
            for block in schema_node.blocks():
                ordered: list = []
                block.extend_in_order(ordered)
                for descriptor in ordered:
                    collector.note_added(descriptor)
        return collector

    def verify_consistency(self, engine: "StorageEngine") -> None:
        """The incremental digest must equal a from-scratch recount."""
        fresh = self.recount(engine).export()
        live = self.export()
        if live != fresh:
            drift = sorted(set(live) ^ set(fresh)) or \
                [path for path in live if live[path] != fresh[path]]
            raise StorageError(
                "statistics drifted from the stored data "
                f"(first divergent paths: {drift[:3]})")

    def __repr__(self) -> str:
        return f"StatisticsCollector({len(self._stats)} schema nodes)"
