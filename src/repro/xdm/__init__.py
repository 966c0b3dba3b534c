"""The XQuery 1.0 / XPath 2.0 data-model node classes (Section 5) and
the :class:`NodeStore` protocol that states the ten accessors over any
model.  The fn:* builtins live in the XQuery evaluator
(:mod:`repro.xquery.evaluator`), written over that protocol.
"""

from repro.xdm.node import (
    ANY_TYPE_NAME,
    UNTYPED_ATOMIC_NAME,
    AttributeNode,
    DocumentNode,
    ElementNode,
    Node,
    TextNode,
)
from repro.xdm.store import (
    TREE_STORE,
    NodeStore,
    TreeNodeStore,
    as_node_store,
    bisimulate,
    stores_agree,
)

__all__ = [
    "ANY_TYPE_NAME",
    "AttributeNode",
    "DocumentNode",
    "ElementNode",
    "Node",
    "NodeStore",
    "TextNode",
    "TREE_STORE",
    "TreeNodeStore",
    "UNTYPED_ATOMIC_NAME",
    "as_node_store",
    "bisimulate",
    "stores_agree",
]
