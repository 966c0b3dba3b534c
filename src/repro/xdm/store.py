"""The ``NodeStore`` accessor protocol — one signature, many models.

Section 5 defines the ten XDM accessors once; Section 6 (the state
algebra) and Section 9 (the Sedna physical representation) are then
two *models* of that one signature.  This module states the signature
as an abstract class over opaque node references, so every consumer of
the data model — conformance checking (§6.2), document order (§7), the
mapping ``g`` (§8), path and XQuery evaluation — can be written once
and run over either representation:

* :class:`TreeNodeStore` interprets references as
  :class:`~repro.xdm.node.Node` objects of a state algebra tree;
* :class:`~repro.storage.store.StorageNodeStore` interprets them as
  :class:`~repro.storage.descriptor.NodeDescriptor` objects of a
  :class:`~repro.storage.engine.StorageEngine`.

Beyond the ten accessors the protocol carries the small navigation
kernel the query layer needs — subtree iteration in document order,
document-order comparison and sorting, and a stable per-node key — so
axes, result order and deduplication need no representation-specific
code either.

:func:`bisimulate` is the protocol-level consistency check: two stores
agree iff a structural bisimulation relates their roots.  The database
layer uses it to re-verify that the lockstep tree/storage copies of a
document never diverge.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Optional

from repro.errors import ModelError, StorageError
from repro.xmlio.qname import QName
from repro.xsdtypes.base import AtomicValue
from repro.xsdtypes.sequence import Sequence
from repro.xdm.node import Node

#: Opaque node reference: ``Node`` for trees, ``NodeDescriptor`` for
#: storage.  Consumers must only hand refs back to the store they came
#: from.
Ref = Any


def walk_document_order(ref: Ref, attributes, children
                        ) -> Iterator[Ref]:
    """The subtree at *ref* in §7 document order — node, then its
    attributes, then its child subtrees — through one model's two
    accessors: every §7 walk of a tree or of the storage.

    An explicit stack: each node costs one loop step (a recursive
    generator pays a frame resumption per ancestor per node) and depth
    is data, not interpreter stack.
    """
    stack = [ref]
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        yield from attributes(node)
        kids = children(node)
        if kids:
            stack.extend(reversed(kids))


class NodeStore:
    """Abstract signature: the ten §5 accessors + navigation kernel.

    Subclasses interpret the opaque node references; consumers written
    against this class run unchanged over every interpretation.
    """

    # -- the ten accessors (§5) ----------------------------------------

    def node_kind(self, ref: Ref) -> str:
        """``node-kind``: document / element / attribute / text."""
        raise NotImplementedError

    def node_name(self, ref: Ref) -> Optional[QName]:
        """``node-name``: the QName, or None where the accessor is
        the empty sequence (document and text nodes)."""
        raise NotImplementedError

    def parent(self, ref: Ref) -> Optional[Ref]:
        """``parent``: the parent reference, or None at the root."""
        raise NotImplementedError

    def string_value(self, ref: Ref) -> str:
        """``string-value``: always a string."""
        raise NotImplementedError

    def typed_value(self, ref: Ref) -> Sequence[AtomicValue]:
        """``typed-value``: a sequence of atomic values."""
        raise NotImplementedError

    def type_name(self, ref: Ref) -> Optional[QName]:
        """``type``: the type annotation QName, or None where the
        accessor is the empty sequence (document nodes)."""
        raise NotImplementedError

    def children(self, ref: Ref) -> list[Ref]:
        """``children``: the child references in document order."""
        raise NotImplementedError

    def attributes(self, ref: Ref) -> list[Ref]:
        """``attributes``: the attribute references."""
        raise NotImplementedError

    def base_uri(self, ref: Ref) -> Optional[str]:
        """``base-uri``: the URI string, or None when empty."""
        raise NotImplementedError

    def nilled(self, ref: Ref) -> Optional[bool]:
        """``nilled``: a boolean for elements, None (the empty
        sequence) for every other kind."""
        raise NotImplementedError

    # -- navigation kernel ---------------------------------------------

    def root(self) -> Ref:
        """The document reference this store is anchored at."""
        raise NotImplementedError

    def iter_document_order(self, ref: Optional[Ref] = None
                            ) -> Iterator[Ref]:
        """The (sub)tree at *ref* (default: the root) in §7 document
        order: :func:`walk_document_order` over this store's
        accessors."""
        return walk_document_order(self.root() if ref is None else ref,
                                   self.attributes, self.children)

    def descendants_of(self, ref: Ref) -> "Iterator[Ref] | list[Ref]":
        """``descendant-or-self`` incl. attributes — the ``//`` axis
        building block.  Interpretations may return a materialized list
        (the storage store batches whole blocks); consumers must treat
        the result as iterate-once."""
        return self.iter_document_order(ref)

    def before(self, first: Ref, second: Ref) -> bool:
        """``first << second`` in document order (§7)."""
        raise NotImplementedError

    def in_document_order(self, refs: list[Ref]) -> list[Ref]:
        """The duplicate-free *refs* of one document as a sequence in
        ``<<`` (§7) — the order of every path result."""
        raise NotImplementedError

    def node_key(self, ref: Ref) -> Hashable:
        """A stable per-node identity key (for dedup sets and order
        indexes); unique within one store."""
        raise NotImplementedError

    def owns_ref(self, obj: object) -> bool:
        """True iff *obj* is a node reference of this store's kind."""
        raise NotImplementedError

    # -- derived conveniences ------------------------------------------

    def document_element(self, ref: Optional[Ref] = None) -> Ref:
        """The single element child of the document node (§3)."""
        if ref is None:
            ref = self.root()
        for child in self.children(ref):
            if self.node_kind(child) == "element":
                return child
        raise ModelError("document node has no element child")

    def local_name(self, ref: Ref) -> Optional[str]:
        name = self.node_name(ref)
        return name.local if name is not None else None


class TreeNodeStore(NodeStore):
    """The state-algebra interpretation: refs are §5 ``Node`` objects.

    The accessors read the node fields the §5 methods wrap in a
    ``Sequence`` (a field a node kind fixes to the empty sequence is
    ``None`` or ``()`` on the class), so a ``TreeNodeStore`` carries no
    per-node state — the optional *root* only anchors :meth:`root` for
    consumers that start from the store itself.
    """

    def __init__(self, root: "Node | None" = None) -> None:
        self._root = root

    # -- the ten accessors ---------------------------------------------

    def node_kind(self, ref: Node) -> str:
        return ref.kind

    def node_name(self, ref: Node) -> Optional[QName]:
        return ref._name

    def parent(self, ref: Node) -> Optional[Node]:
        return ref._parent

    def string_value(self, ref: Node) -> str:
        return ref.string_value()

    def typed_value(self, ref: Node) -> Sequence[AtomicValue]:
        return ref.typed_value()

    def type_name(self, ref: Node) -> Optional[QName]:
        return ref._type_name

    def children(self, ref: Node) -> list[Node]:
        return list(ref._children)

    def attributes(self, ref: Node) -> list[Node]:
        return list(ref._attributes)

    def base_uri(self, ref: Node) -> Optional[str]:
        return ref._base_uri

    def nilled(self, ref: Node) -> Optional[bool]:
        return ref._nilled

    # -- navigation kernel ---------------------------------------------

    def root(self) -> Node:
        if self._root is None:
            raise ModelError("this TreeNodeStore has no anchored root")
        return self._root

    def before(self, first: Node, second: Node) -> bool:
        from repro.order.document_order import before as tree_before
        return tree_before(first, second)

    def in_document_order(self, refs: list[Node]) -> list[Node]:
        if len(refs) < 2:
            return refs
        # One position map per call, over the smallest subtree holding
        # every ref (a structural comparison walks the parent chain and
        # its sibling lists per pair; the whole document per call is
        # quadratic under a FLWOR that navigates from each item).
        chain = [refs[0], *refs[0].ancestors()]
        height = {node: level for level, node in enumerate(chain)}
        top = 0
        for node in refs[1:]:
            while node not in height:
                node = node.parent_or_none()
            top = max(top, height[node])
        position = {node: index for index, node in enumerate(
            self.iter_document_order(chain[top]))}
        return sorted(refs, key=position.__getitem__)

    def node_key(self, ref: Node) -> Node:
        # The node itself: equality is identity and the hash covers
        # (algebra, identifier), so keys never collide across algebras.
        return ref

    def owns_ref(self, obj: object) -> bool:
        return isinstance(obj, Node)


#: The shared stateless tree interpretation: safe for any tree node,
#: because every accessor delegates to the reference itself.
TREE_STORE = TreeNodeStore()


def as_node_store(source: "NodeStore | Node") -> NodeStore:
    """Coerce a tree node (the historical API) into a ``NodeStore``."""
    if isinstance(source, NodeStore):
        return source
    if isinstance(source, Node):
        return TreeNodeStore(source)
    raise ModelError(f"cannot interpret {source!r} as a node store")


# ----------------------------------------------------------------------
# Two-store bisimulation


def bisimulate(store_a: NodeStore, store_b: NodeStore,
               ref_a: Ref = None, ref_b: Ref = None) -> None:
    """Assert the two stores present the same document, accessor by
    accessor (kinds, names, attribute name/value sets, text values and
    child sequences); raises :class:`StorageError` at the first
    structural disagreement.

    The relation checked is exactly a strong bisimulation over the
    structural accessors — type annotations are *not* compared, since
    one side may be typed (§6.2) and the other untyped (§9 stores no
    PSVI).
    """
    if ref_a is None:
        ref_a = store_a.root()
    if ref_b is None:
        ref_b = store_b.root()
    _bisimulate_node(store_a, ref_a, store_b, ref_b)


def _bisimulate_node(store_a: NodeStore, ref_a: Ref,
                     store_b: NodeStore, ref_b: Ref) -> None:
    kind_a = store_a.node_kind(ref_a)
    kind_b = store_b.node_kind(ref_b)
    if kind_a != kind_b:
        raise StorageError(
            f"kind mismatch: {kind_a} vs {kind_b} at {ref_a!r}")
    if kind_a == "text":
        if store_a.string_value(ref_a) != store_b.string_value(ref_b):
            raise StorageError(f"text mismatch at {ref_a!r}")
        return
    if kind_a in ("element", "attribute"):
        name_a = store_a.node_name(ref_a)
        name_b = store_b.node_name(ref_b)
        if name_a != name_b:
            raise StorageError(
                f"name mismatch: {name_a!r} vs {name_b!r}")
    if kind_a == "attribute":
        if store_a.string_value(ref_a) != store_b.string_value(ref_b):
            raise StorageError(f"attribute value mismatch at {ref_a!r}")
        return
    attrs_a = {(store_a.local_name(a), store_a.string_value(a))
               for a in store_a.attributes(ref_a)}
    attrs_b = {(store_b.local_name(b), store_b.string_value(b))
               for b in store_b.attributes(ref_b)}
    if attrs_a != attrs_b:
        raise StorageError(
            f"attribute set mismatch at {ref_a!r}: "
            f"{sorted(attrs_a)} vs {sorted(attrs_b)}")
    children_a = store_a.children(ref_a)
    children_b = store_b.children(ref_b)
    if len(children_a) != len(children_b):
        raise StorageError(
            f"child count mismatch at {ref_a!r}: "
            f"{len(children_a)} vs {len(children_b)}")
    for child_a, child_b in zip(children_a, children_b):
        _bisimulate_node(store_a, child_a, store_b, child_b)


def stores_agree(store_a: NodeStore, store_b: NodeStore) -> bool:
    """True iff :func:`bisimulate` succeeds."""
    try:
        bisimulate(store_a, store_b)
    except StorageError:
        return False
    return True
