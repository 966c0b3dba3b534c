"""The descriptive schema of Section 9.1 (a DataGuide [13]).

Formally (paper): schema nodes are pairs ``E = (name, type)`` and the
descriptive schema of a document tree X is the unique tree X' such that
every root-to-node path of X appears exactly once in X' and vice versa.
The node→schema-node mapping is surjective.

Text nodes have no name; their schema node's name is ``None`` and
their path step is rendered ``#text`` (attributes render ``@name``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import StorageError
from repro.xmlio.qname import QName

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.blocks import Block

_NODE_TYPES = ("document", "element", "attribute", "text")


class SchemaNode:
    """One node of the descriptive schema: a (name, type) pair plus the
    tree structure and the entry point to its block list (Section 9.2)."""

    __slots__ = ("name", "node_type", "parent", "children",
                 "first_block", "last_block", "descriptor_count", "path")

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

    def __repr__(self) -> str:
        return f"DescriptiveSchema({self._count} schema nodes)"
