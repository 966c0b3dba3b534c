"""XPath 2.0 axes over the Section 5 node model and the storage engine.

The accessors of the paper ("primitive facilities for a query
language") are exactly what these axes are built from: ``parent``,
``children`` and ``attributes`` define the tree, document order
(Section 7) defines ``following``/``preceding``.  Results are returned
in axis order (forward axes in document order, reverse axes in reverse
document order), as XPath requires.

``following``/``preceding`` are computed *structurally* — the
following siblings of each ancestor-or-self and their subtrees — so
they stream lazily and never build identifier sets over a
whole-document walk.  The storage-side variants
(:func:`storage_following_axis`, :func:`storage_preceding_axis`) go
further, deciding membership by label comparison alone: ``before`` and
``is_ancestor`` from Section 9.3 answer each structural test in
O(label length) with no tree navigation at all.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from repro.xdm.node import AttributeNode, Node
from repro.order.document_order import (
    iter_subtree_elements,
    iter_subtree_elements_reversed,
)
from repro.storage.descriptor import NodeDescriptor, doc_order_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import StorageEngine


def self_axis(node: Node) -> Iterator[Node]:
    yield node


def child_axis(node: Node) -> Iterator[Node]:
    yield from node.children()


def attribute_axis(node: Node) -> Iterator[Node]:
    yield from node.attributes()


def parent_axis(node: Node) -> Iterator[Node]:
    yield from node.parent()


def ancestor_axis(node: Node) -> Iterator[Node]:
    yield from node.ancestors()


def ancestor_or_self_axis(node: Node) -> Iterator[Node]:
    yield node
    yield from node.ancestors()


def descendant_axis(node: Node) -> Iterator[Node]:
    return islice(iter_subtree_elements(node), 1, None)


def descendant_or_self_axis(node: Node) -> Iterator[Node]:
    return iter_subtree_elements(node)


def following_sibling_axis(node: Node) -> Iterator[Node]:
    parent = node.parent_or_none()
    if parent is None or isinstance(node, AttributeNode):
        return
    seen = False
    for sibling in parent.children():
        if seen:
            yield sibling
        elif sibling is node:
            seen = True


def preceding_sibling_axis(node: Node) -> Iterator[Node]:
    """Siblings before the node, in reverse document order."""
    parent = node.parent_or_none()
    if parent is None or isinstance(node, AttributeNode):
        return
    before: list[Node] = []
    for sibling in parent.children():
        if sibling is node:
            break
        before.append(sibling)
    yield from reversed(before)


def following_axis(node: Node) -> Iterator[Node]:
    """Nodes after the node in document order, excluding descendants
    and attributes (per XPath).

    Structural formulation: for the node and each of its ancestors,
    the subtrees of the following siblings, nearest level first.  The
    generator is lazy — the first result costs O(depth + fan-out), not
    a whole-document walk, and no identifier set is ever allocated.
    An attribute context first yields the subtrees of its owner's
    children (everything after the attribute inside the owner element).
    """
    current = node
    if isinstance(node, AttributeNode):
        owner = node.parent_or_none()
        if owner is None:
            return
        for child in owner.children():
            yield from iter_subtree_elements(child)
        current = owner
    while True:
        parent = current.parent_or_none()
        if parent is None:
            return
        seen_self = False
        for sibling in parent.children():
            if seen_self:
                yield from iter_subtree_elements(sibling)
            elif sibling is current:
                seen_self = True
        current = parent


def preceding_axis(node: Node) -> Iterator[Node]:
    """Nodes before the node in document order, excluding ancestors
    and attributes, in reverse document order.

    Structural formulation: for the node and each of its ancestors,
    the subtrees of the preceding siblings in reverse order, nearest
    level first.  Only per-level sibling lists are buffered, never a
    whole-document set.  An attribute's preceding axis equals its
    owner element's (everything before the attribute is the owner, its
    attributes, or nodes before the owner).
    """
    current = node.parent_or_none() if isinstance(node, AttributeNode) \
        else node
    while current is not None:
        parent = current.parent_or_none()
        if parent is None:
            return
        level: list[Node] = []
        for sibling in parent.children():
            if sibling is current:
                break
            level.append(sibling)
        for sibling in reversed(level):
            yield from iter_subtree_elements_reversed(sibling)
        current = parent


# ----------------------------------------------------------------------
# Storage-side following/preceding: pure label comparison (§9.3).


def _storage_document_stream(engine: "StorageEngine"
                             ) -> Iterator["NodeDescriptor"]:
    """All non-attribute descriptors in document order, as a lazy
    k-way merge of the per-schema-node block scans keyed on the
    labels."""
    streams = [engine.scan_schema_node(schema_node)
               for schema_node in engine.schema.iter_nodes()
               if schema_node.node_type != "attribute"]
    return heapq.merge(*streams, key=doc_order_key)


def storage_following_axis(engine: "StorageEngine",
                           descriptor: "NodeDescriptor"
                           ) -> Iterator["NodeDescriptor"]:
    """``following::`` over descriptors, decided by packed label keys
    alone: a bytewise ``<`` places x after the context and a prefix
    test (``startswith``) excludes its descendants — each test is one
    C-level bytes operation, with no navigation and no node sets."""
    context_key = descriptor.nid
    for candidate in _storage_document_stream(engine):
        candidate_key = candidate.nid
        if not context_key < candidate_key:
            continue  # at or before the context node
        if candidate_key.startswith(context_key):
            continue  # a descendant of the context
        yield candidate


def storage_preceding_axis(engine: "StorageEngine",
                           descriptor: "NodeDescriptor"
                           ) -> Iterator["NodeDescriptor"]:
    """``preceding::`` over descriptors by packed-key comparison, in
    reverse document order.  The merged stream is document-ordered, so
    the scan stops at the context key; only the (necessarily
    materialized, because the axis is reversed) result list is
    buffered — ancestors are excluded by a key prefix test, not by set
    membership."""
    context_key = descriptor.nid
    out: list["NodeDescriptor"] = []
    for candidate in _storage_document_stream(engine):
        candidate_key = candidate.nid
        if not candidate_key < context_key:
            break  # reached the context: nothing later can precede it
        if context_key.startswith(candidate_key):
            continue  # an ancestor of the context
        out.append(candidate)
    yield from reversed(out)


#: All axes by their XPath names.
AXES = {
    "self": self_axis,
    "child": child_axis,
    "attribute": attribute_axis,
    "parent": parent_axis,
    "ancestor": ancestor_axis,
    "ancestor-or-self": ancestor_or_self_axis,
    "descendant": descendant_axis,
    "descendant-or-self": descendant_or_self_axis,
    "following-sibling": following_sibling_axis,
    "preceding-sibling": preceding_sibling_axis,
    "following": following_axis,
    "preceding": preceding_axis,
}

#: Storage-side axes by name (engine + descriptor signature).
STORAGE_AXES = {
    "following": storage_following_axis,
    "preceding": storage_preceding_axis,
}
