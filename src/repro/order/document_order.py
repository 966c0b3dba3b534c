"""Document order — the ``<<`` relation of Section 7.

The paper orders a tree ``s`` as follows: the document node precedes
its element child; every element precedes its attributes; attributes
precede the element's children; and the subtrees of consecutive
children are ordered blockwise (``tree(end_j) << tree(end_{j+1})``).

Three implementations are provided, all agreeing:

* :func:`document_order` — the ordered node list by one traversal,
* :class:`DocumentOrderIndex` — an O(1) comparator after O(n) setup,
* :func:`before` — a pure structural comparison that walks parent
  chains (no precomputation), the baseline of the numbering-scheme
  benchmarks.

The traversal and the precomputed index are stated over the
:class:`~repro.xdm.store.NodeStore` protocol
(:func:`store_document_order`, :class:`StoreOrderIndex`), so they run
unchanged over the state-algebra tree and the Sedna storage; the
Node-typed functions below are the tree specializations kept for the
historical API.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.errors import ModelError
from repro.xdm.node import AttributeNode, Node
from repro.xdm.store import TREE_STORE, NodeStore, Ref


def store_document_order(store: NodeStore,
                         root: Ref = None) -> list[Ref]:
    """The document-ordered reference list of (the subtree at) *root*
    in *store* — the §7 traversal over any accessor-protocol model."""
    return list(store.iter_document_order(root))


class StoreOrderIndex:
    """Precomputed positions for O(1) document-order comparison over
    any :class:`NodeStore` (positions are keyed on the store's stable
    node keys)."""

    def __init__(self, store: NodeStore, root: Ref = None) -> None:
        self._store = store
        self._positions: dict[Hashable, int] = {
            store.node_key(ref): position
            for position, ref in enumerate(
                store.iter_document_order(root))}

    def position(self, ref: Ref) -> int:
        try:
            return self._positions[self._store.node_key(ref)]
        except KeyError:
            raise ModelError(f"{ref!r} is not in the indexed tree") \
                from None

    def before(self, first: Ref, second: Ref) -> bool:
        return self.position(first) < self.position(second)

    def compare(self, first: Ref, second: Ref) -> int:
        delta = self.position(first) - self.position(second)
        if delta == 0:
            return 0
        return -1 if delta < 0 else 1

    def __len__(self) -> int:
        return len(self._positions)


def iter_document_order(root: Node) -> Iterator[Node]:
    """All nodes of the tree rooted at *root*, in document order."""
    return TREE_STORE.iter_document_order(root)


def document_order(root: Node) -> list[Node]:
    """The document-ordered node list of the tree rooted at *root*."""
    return list(iter_document_order(root))


def iter_subtree_elements(root: Node) -> Iterator[Node]:
    """The subtree of *root* in document order, attributes skipped."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def _order_path(node: Node) -> tuple[tuple[int, int], ...]:
    """The root-to-node position path.

    Each step is ``(slot, index)``: slot 0 for attributes, slot 1 for
    children, so attributes sort before children of the same element,
    and a prefix (an ancestor) sorts before its descendants.
    """
    steps: list[tuple[int, int]] = []
    current = node
    parent = current.parent_or_none()
    while parent is not None:
        if isinstance(current, AttributeNode):
            attributes = list(parent.attributes())
            steps.append((0, _index_of(attributes, current)))
        else:
            children = list(parent.children())
            steps.append((1, _index_of(children, current)))
        current = parent
        parent = current.parent_or_none()
    steps.reverse()
    return tuple(steps)


def _index_of(nodes: list[Node], target: Node) -> int:
    for index, node in enumerate(nodes):
        if node is target:
            return index
    raise ModelError(f"{target!r} not found among its parent's nodes")


def before(first: Node, second: Node) -> bool:
    """``first << second`` by structural comparison (parent-chain walk).

    Both nodes must belong to the same tree; comparing a node with
    itself yields False (``<<`` is strict).
    """
    if first is second:
        return False
    path_a = _order_path(first)
    path_b = _order_path(second)
    if first.root() is not second.root():
        raise ModelError("nodes belong to different trees")
    return path_a < path_b


def compare(first: Node, second: Node) -> int:
    """-1, 0 or 1 as *first* precedes, is, or follows *second*."""
    if first is second:
        return 0
    return -1 if before(first, second) else 1


class DocumentOrderIndex(StoreOrderIndex):
    """Precomputed positions for O(1) document-order comparison — the
    tree specialization of :class:`StoreOrderIndex`."""

    def __init__(self, root: Node) -> None:
        super().__init__(TREE_STORE, root)


def tree_before(first: Node, second: Node) -> bool:
    """The paper's ``tree(nd1) << tree(nd2)``: every node of the first
    subtree precedes every node of the second."""
    first_nodes = document_order(first)
    second_nodes = document_order(second)
    last_of_first = first_nodes[-1]
    first_of_second = second_nodes[0]
    return before(last_of_first, first_of_second)


def is_total_order(root: Node) -> bool:
    """Check that ``<<`` is a strict total order on the tree (used by
    the property tests)."""
    nodes = document_order(root)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if not before(a, b) or before(b, a):
                return False
        if before(a, a):
            return False
    return True
