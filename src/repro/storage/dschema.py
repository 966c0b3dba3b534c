"""The descriptive schema of Section 9.1 (a DataGuide [13]).

Formally (paper): schema nodes are pairs ``E = (name, type)`` and the
descriptive schema of a document tree X is the unique tree X' such that
every root-to-node path of X appears exactly once in X' and vice versa.
The node→schema-node mapping is surjective.

Text nodes have no name; their schema node's name is ``None`` and
their path step is rendered ``#text`` (attributes render ``@name``).

Every document path has exactly one schema node, so the schema node is
the natural granule of data statistics, and it keeps its own: how many
descriptors it holds, how many bytes they cost, the multiset of the
§4 typed values under it and their range.  The engine updates them at
each mutation through :meth:`SchemaNode.note_added`, ``note_removed``
and ``note_value_changed``, the loader as it decodes, so they are
always current — no analyze pass — and the cost model prices
candidate plans from them.

Sizing is a deterministic model, not process memory: a fixed
per-descriptor overhead plus the label's bytes plus the UTF-8 value
length.  Deterministic bytes survive snapshot round-trips
bit-for-bit, which is what lets the checkpoint image persist the
digest (:meth:`DescriptiveSchema.statistics`) and recovery verify it
against a from-scratch recount
(:meth:`DescriptiveSchema.recount_statistics`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.errors import StorageError
from repro.xmlio.qname import QName

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.blocks import Block
    from repro.storage.descriptor import NodeDescriptor

_NODE_TYPES = ("document", "element", "attribute", "text")

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


class SchemaNode:
    """One node of the descriptive schema: a (name, type) pair plus the
    tree structure, the entry point to its block list (Section 9.2)
    and the statistics of the descriptors in it."""

    __slots__ = ("name", "node_type", "parent", "children",
                 "first_block", "last_block", "descriptor_count", "path",
                 "byte_size", "value_counts", "_range", "_basis",
                 "_churn")

    def __init__(self, name: Optional[QName], node_type: str,
                 parent: "SchemaNode | None") -> None:
        if node_type not in _NODE_TYPES:
            raise StorageError(f"unknown schema node type {node_type!r}")
        if node_type in ("element", "attribute") and name is None:
            raise StorageError(f"{node_type} schema nodes need a name")
        if node_type in ("document", "text") and name is not None:
            raise StorageError(f"{node_type} schema nodes are nameless")
        self.name = name
        self.node_type = node_type
        self.parent = parent
        self.children: list[SchemaNode] = []
        self.first_block: "Block | None" = None
        self.last_block: "Block | None" = None
        self.descriptor_count = 0
        self.byte_size = 0
        #: Multiset of the live values under this node (the multiset —
        #: not a set — so removals keep ``distinct_values`` exact).
        self.value_counts: dict[str, int] = {}
        #: ``(min, max, sort key)`` of the current value set (None: no
        #: values); ``False`` = not computed since the set changed.
        self._range: "Optional[tuple] | bool" = False
        #: Descriptor count at the last drift, and value rewrites since.
        self._basis = 0
        self._churn = 0
        #: Slash-separated root-to-here path (document step omitted),
        #: fixed here: a schema node never moves or renames.
        self.path = (
            "" if node_type == "document"
            else self.step if parent is None or not parent.path
            else f"{parent.path}/{self.step}")

    # -- structure --------------------------------------------------------

    @property
    def step(self) -> str:
        """The path step this node contributes (``book``, ``@id``,
        ``#text``, ``#document``)."""
        if self.node_type == "document":
            return "#document"
        if self.node_type == "text":
            return "#text"
        prefix = "@" if self.node_type == "attribute" else ""
        return f"{prefix}{self.name.local}"

    def child_index(self, child: "SchemaNode") -> int:
        for index, candidate in enumerate(self.children):
            if candidate is child:
                return index
        raise StorageError(f"{child!r} is not a child of {self!r}")

    def find_child(self, name: Optional[QName],
                   node_type: str) -> "SchemaNode | None":
        for child in self.children:
            if child.node_type == node_type and child.name == name:
                return child
        return None

    def element_children(self) -> list["SchemaNode"]:
        return [c for c in self.children if c.node_type == "element"]

    def attribute_children(self) -> list["SchemaNode"]:
        return [c for c in self.children if c.node_type == "attribute"]

    def subtree(self) -> Iterator["SchemaNode"]:
        """This node and its descendants in pre-order — the one walk
        of the descriptive schema.  An explicit stack: a schema is as
        deep as its deepest document path."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    # -- block chain -------------------------------------------------------

    def blocks(self) -> Iterator["Block"]:
        block = self.first_block
        while block is not None:
            yield block
            block = block.next_block

    def append_block(self, block: "Block") -> None:
        """Link *block* at the tail of the chain."""
        tail = self.last_block
        if tail is None:
            self.first_block = block
        else:
            tail.next_block = block
            block.prev_block = tail
        self.last_block = block

    def block_count(self) -> int:
        return sum(1 for _ in self.blocks())

    # -- statistics ---------------------------------------------------------
    # Each mutation hook is O(1) and returns True when it made this
    # node's statistics drift; the engine then bumps its plan epoch.

    def note_added(self, descriptor: "NodeDescriptor") -> bool:
        self.descriptor_count += 1
        self.byte_size += descriptor_bytes(descriptor)
        if descriptor.value is not None:
            self.add_value(descriptor.value)
        return self._drifted()

    def note_removed(self, descriptor: "NodeDescriptor") -> bool:
        self.descriptor_count -= 1
        self.byte_size -= descriptor_bytes(descriptor)
        if descriptor.value is not None:
            self.remove_value(descriptor.value)
        return self._drifted()

    def note_value_changed(self, descriptor: "NodeDescriptor",
                           old_value: Optional[str]) -> bool:
        """*descriptor* already carries the new value."""
        if old_value is not None:
            self.byte_size -= len(old_value.encode("utf-8"))
            self.remove_value(old_value)
        if descriptor.value is not None:
            self.byte_size += len(descriptor.value.encode("utf-8"))
            self.add_value(descriptor.value)
        # A rewrite shifts the value distribution (distinct, min/max)
        # without moving the descriptor count — count it toward drift.
        self._churn += 1
        return self._drifted()

    def _drifted(self) -> bool:
        count = self.descriptor_count
        drift = abs(count - self._basis) + self._churn
        if drift >= STATS_DRIFT_MIN_MUTATIONS \
                and drift >= STATS_DRIFT_THRESHOLD * self._basis:
            self._basis = count
            self._churn = 0
            return True
        return False

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

    @property
    def distinct_values(self) -> int:
        return len(self.value_counts)

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
        """The ``(min, max)`` value pair in the typed order, or None
        when the node carries no values."""
        value_range = self._typed_range()
        return value_range and value_range[:2]

    def may_hold(self, lexical: str) -> bool:
        """False only when *lexical* lies outside the value range in
        the order the range was built in — what the cost model prices
        an eq-probe key against.  A stored value never does."""
        value_range = self._typed_range()
        return value_range is None or _in_typed_range(lexical,
                                                      *value_range)

    def statistics(self) -> dict:
        """This node's row of the digest (no raw multiset — bounded
        size per node)."""
        low, high = self.value_range() or (None, None)
        return {
            "descriptors": self.descriptor_count,
            "bytes": self.byte_size,
            "distinct_values": self.distinct_values,
            "min_value": low,
            "max_value": high,
        }

    def __repr__(self) -> str:
        return f"SchemaNode({self.step!r}, {self.descriptor_count} nodes)"


def text_slot(carrier: SchemaNode) -> Optional[int]:
    """The slot of the ``#text`` schema child of an element *carrier*
    with simple content, -1 when it has no text child either (every
    instance is empty), None for complex content.

    Simple content is a schema fact: with no element schema child, no
    instance anywhere has an element child (§9.1: the node→schema-node
    mapping is surjective), so an instance's child sequence holds text
    nodes only and its string value is exactly their concatenation —
    its first text child's value when that text has no right sibling.
    """
    slot = -1
    for index, child in enumerate(carrier.children):
        if child.node_type == "element":
            return None
        if child.node_type == "text":
            slot = index
    return slot


class DescriptiveSchema:
    """The schema tree with get-or-create path extension.

    The schema carries a :attr:`version` counter that is bumped exactly
    when the tree *grows* (a new (name, type) path appears).  Pure data
    inserts reuse existing schema nodes and leave the version alone, so
    query plans compiled against the schema (the query layer's planner)
    stay valid across arbitrary data updates and invalidate precisely
    when a new document path — hence a new schema path, by the defining
    property of Section 9.1 — comes into existence.

    Growth also bumps the owning engine's ``plan_epoch``, the one
    integer a cached plan is compared against on a hit.
    """

    def __init__(self) -> None:
        self.root = SchemaNode(None, "document", None)
        self._count = 1
        self._version = 0
        #: The :class:`~repro.storage.engine.StorageEngine` this schema
        #: describes (set by the engine; None for a bare schema).
        self.engine = None

    @property
    def version(self) -> int:
        """Monotone growth counter: bumped only when a schema node is
        created, never on pure data inserts."""
        return self._version

    def get_or_add_child(self, parent: SchemaNode, name: Optional[QName],
                         node_type: str) -> SchemaNode:
        """The schema child for a (name, type) step, created on demand.

        Creation keeps the defining property: each document path has
        exactly one schema path.
        """
        existing = parent.find_child(name, node_type)
        if existing is not None:
            return existing
        child = SchemaNode(name, node_type, parent)
        parent.children.append(child)
        self._count += 1
        self._version += 1
        if self.engine is not None:
            self.engine.plan_epoch += 1
        return child

    def node_count(self) -> int:
        return self._count

    def iter_nodes(self) -> Iterator[SchemaNode]:
        """Pre-order traversal of the schema tree."""
        return self.root.subtree()

    def paths(self) -> list[tuple[str, str]]:
        """All (path, node type) pairs — the figure of Example 8."""
        return [(node.path, node.node_type)
                for node in self.iter_nodes()
                if node.node_type != "document"]

    def find_path(self, path: str) -> SchemaNode | None:
        """Look up a schema node by its slash path (as in :meth:`paths`)."""
        node = self.root
        if not path:
            return node
        for step in path.split("/"):
            found = None
            for child in node.children:
                if child.step == step:
                    found = child
                    break
            if found is None:
                return None
            node = found
        return node

    # -- statistics ---------------------------------------------------------

    def statistics(self) -> dict:
        """The digest: per schema node holding a descriptor its
        :meth:`SchemaNode.statistics` row, keyed by path (the document
        root's empty path as ``#document``), path-sorted — the
        snapshot payload and ``repro inspect``'s table."""
        return _digest((node.path, node) for node in self.iter_nodes())

    def recount_statistics(self) -> dict:
        """The digest rebuilt from scratch off the block lists: the
        oracle the live statistics are checked against."""
        def recounted(node: SchemaNode) -> SchemaNode:
            fresh = SchemaNode(node.name, node.node_type, None)
            ordered: list = []
            for block in node.blocks():
                block.extend_in_order(ordered)
            for descriptor in ordered:
                fresh.note_added(descriptor)
            return fresh

        return _digest((node.path, recounted(node))
                       for node in self.iter_nodes())

    def verify_statistics(self) -> None:
        """The live digest must equal a from-scratch recount."""
        live, fresh = self.statistics(), self.recount_statistics()
        if live != fresh:
            drift = sorted(set(live) ^ set(fresh)) or \
                [path for path in live if live[path] != fresh[path]]
            raise StorageError(
                "statistics drifted from the stored data "
                f"(first divergent paths: {drift[:3]})")

    def __repr__(self) -> str:
        return f"DescriptiveSchema({self._count} schema nodes)"


def _digest(nodes: Iterator[tuple[str, SchemaNode]]) -> dict:
    return dict(sorted((path or "#document", node.statistics())
                       for path, node in nodes if node.descriptor_count))
