"""Document order (Section 7): the << relation and its implementations."""

from repro.order.document_order import (
    DocumentOrderIndex,
    StoreOrderIndex,
    before,
    compare,
    document_order,
    is_total_order,
    iter_document_order,
    iter_subtree_elements,
    store_document_order,
    tree_before,
)

__all__ = [
    "DocumentOrderIndex",
    "StoreOrderIndex",
    "store_document_order",
    "before",
    "compare",
    "document_order",
    "is_total_order",
    "iter_document_order",
    "iter_subtree_elements",
    "tree_before",
]
