"""Node descriptors — the physical node representation of Example 10.

A descriptor carries exactly the fields of the paper's figure:

* ``parent`` pointer,
* ``left_sibling`` / ``right_sibling`` pointers,
* the ``nid`` numbering label,
* ``next_in_block`` / ``prev_in_block`` *short* (2-byte) pointers that
  reconstruct document order among the unordered descriptors of one
  block,
* for element (and document) nodes, pointers to the *first* child per
  schema child rather than to every child,

plus the text value for the "text-enabled" kinds (text and attribute
nodes), which Sedna stores out of line.  The modelled size of a
descriptor is :func:`repro.storage.dschema.descriptor_bytes`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.storage.labels import NidLabel

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.blocks import Block
    from repro.storage.dschema import SchemaNode

#: The null slot value of the in-block short pointers.
NO_SLOT = -1


class NodeDescriptor:
    """The physical representation of one node instance."""

    __slots__ = ("schema_node", "nid", "node_type", "parent",
                 "left_sibling", "right_sibling", "next_in_block",
                 "prev_in_block", "children_by_schema", "value", "block",
                 "slot")

    def __init__(self, schema_node: "SchemaNode", nid: NidLabel,
                 value: str | None = None) -> None:
        self.schema_node = schema_node
        self.nid = nid
        # Denormalized from the schema node (which never changes type):
        # node_type is read in every step test of the query layer, so
        # it is a slot, not a property chased through two attributes.
        self.node_type = schema_node.node_type
        self.parent: Optional[NodeDescriptor] = None
        self.left_sibling: Optional[NodeDescriptor] = None
        self.right_sibling: Optional[NodeDescriptor] = None
        # Short pointers: slot numbers within this descriptor's block.
        self.next_in_block: int = NO_SLOT
        self.prev_in_block: int = NO_SLOT
        # First child per schema child index (sparse map).
        self.children_by_schema: dict[int, NodeDescriptor] = {}
        self.value = value
        self.block: "Block | None" = None
        self.slot: int = NO_SLOT

    # -- derived properties ------------------------------------------------

    @property
    def is_text_enabled(self) -> bool:
        """Text and attribute descriptors carry a value."""
        return self.node_type in ("text", "attribute")

    def first_child_for(self, schema_child_index: int
                        ) -> "NodeDescriptor | None":
        """The stored pointer to the first child by schema (§9.2)."""
        return self.children_by_schema.get(schema_child_index)

    def __repr__(self) -> str:
        return (f"NodeDescriptor({self.schema_node.step!r}, "
                f"{self.nid!r})")


#: The document-order key (§9.3) of a descriptor, its label — the one
#: sort key of the whole storage-side query layer.
doc_order_key = attrgetter("nid")
