"""The Sedna interpretation of the :class:`~repro.xdm.store.NodeStore`
protocol: node references are :class:`NodeDescriptor` objects.

Every accessor is answered from descriptor + schema-node data alone —
the claim of Section 9.2 — by delegating to the
:class:`~repro.storage.engine.StorageEngine` accessor methods.  The
``type`` and ``typed-value`` accessors extend the same idea to the
typed model: a document path determines its schema path (§9.1) and a
document schema assigns types by path (§2/§6.2 item 4), so one type
annotation *per descriptive-schema node* — the schema's compiled type
for that path, gathered by :func:`schema_type_annotations` — types
every instance descriptor, with no per-node PSVI stored at all.
Without annotations the store presents the untyped view
(``xs:anyType`` elements, ``xdt:untypedAtomic`` leaves), which is
exactly what an untyped state algebra tree of the same document
presents.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ModelError
from repro.xmlio.qname import QName
from repro.xsdtypes.base import AtomicValue, UNTYPED_ATOMIC
from repro.xsdtypes.sequence import Sequence
from repro.xdm.node import ANY_TYPE_NAME, UNTYPED_ATOMIC_NAME
from repro.xdm.store import NodeStore
from repro.schema.ast import DocumentSchema
from repro.schema.compiled import CompiledType
from repro.storage.blocks import sweep
from repro.storage.descriptor import NodeDescriptor, doc_order_key
from repro.storage.dschema import SchemaNode
from repro.storage.engine import StorageEngine


def schema_type_annotations(engine: StorageEngine,
                            schema: DocumentSchema
                            ) -> dict[SchemaNode, CompiledType]:
    """Type every descriptive-schema node from the document schema.

    One walk of the descriptive schema (one node per document path,
    §9.1) over the compiled types' child and attribute tables (the
    schema types by path) gives the annotation map the
    :class:`StorageNodeStore` uses to answer ``type`` and
    ``typed-value``.  Paths the schema does not declare stay
    unannotated and present the untyped view.
    """
    annotations: dict[SchemaNode, CompiledType] = {}
    root_declaration = schema.root_element
    pending = [(node, schema.type_of(root_declaration))
               for node in engine.schema.root.element_children()
               if node.name.local == root_declaration.name]
    while pending:
        node, compiled = pending.pop()
        annotations[node] = compiled
        for attribute in node.attribute_children():
            attribute_type = (compiled.attributes or {}).get(
                attribute.name.local)
            if attribute_type is not None:
                annotations[attribute] = attribute_type
        model = compiled.model
        if model is not None:
            pending.extend((child, compiled.child(child.name.local)[1])
                           for child in node.element_children()
                           if model.knows(child.name.local))
    return annotations


class StorageNodeStore(NodeStore):
    """Refs are node descriptors; accessors read descriptor + schema
    node (+ the shared per-schema-node type annotations, when given).
    """

    def __init__(self, engine: StorageEngine,
                 annotations: "dict[SchemaNode, CompiledType] | None"
                 = None,
                 document_uri: str | None = None) -> None:
        self._engine = engine
        self._annotations = annotations or {}
        self._document_uri = document_uri

    @property
    def engine(self) -> StorageEngine:
        return self._engine

    @classmethod
    def typed(cls, engine: StorageEngine, schema: DocumentSchema,
              document_uri: str | None = None) -> "StorageNodeStore":
        """A store presenting the typed (§6.2) accessor view."""
        return cls(engine, schema_type_annotations(engine, schema),
                   document_uri=document_uri)

    def _annotation_of(self, ref: NodeDescriptor
                       ) -> "CompiledType | None":
        return self._annotations.get(ref.schema_node)

    # -- the ten accessors ---------------------------------------------

    def node_kind(self, ref: NodeDescriptor) -> str:
        return ref.node_type

    def node_name(self, ref: NodeDescriptor) -> Optional[QName]:
        return ref.schema_node.name

    def parent(self, ref: NodeDescriptor) -> Optional[NodeDescriptor]:
        return ref.parent

    def string_value(self, ref: NodeDescriptor) -> str:
        return self._engine.string_value(ref)

    def typed_value(self, ref: NodeDescriptor) -> Sequence[AtomicValue]:
        kind = ref.node_type
        if kind in ("text", "document"):
            return Sequence.of(
                AtomicValue(self.string_value(ref), UNTYPED_ATOMIC))
        annotation = self._annotation_of(ref)
        if annotation is not None and annotation.simple_type is not None:
            return Sequence(
                annotation.simple_type.typed_value(self.string_value(ref)))
        if kind == "element" and annotation is not None \
                and annotation.type_name != ANY_TYPE_NAME \
                and any(child.node_type == "element"
                        for child in self.children(ref)):
            raise ModelError(
                f"element {self.local_name(ref)} has element-only "
                "content; its typed value is undefined")
        return Sequence.of(
            AtomicValue(self.string_value(ref), UNTYPED_ATOMIC))

    def type_name(self, ref: NodeDescriptor) -> Optional[QName]:
        kind = ref.node_type
        if kind == "document":
            return None
        if kind == "text":
            return UNTYPED_ATOMIC_NAME
        annotation = self._annotation_of(ref)
        if annotation is not None:
            return annotation.type_name
        return (ANY_TYPE_NAME if kind == "element"
                else UNTYPED_ATOMIC_NAME)

    def children(self, ref: NodeDescriptor) -> list[NodeDescriptor]:
        return self._engine.children(ref)

    def attributes(self, ref: NodeDescriptor) -> list[NodeDescriptor]:
        return self._engine.attributes(ref)

    def base_uri(self, ref: NodeDescriptor) -> Optional[str]:
        # §6.2: base-uri is inherited from the document downward, and
        # the engine stores one document — so one URI covers all nodes.
        return self._document_uri

    def nilled(self, ref: NodeDescriptor) -> Optional[bool]:
        # The physical store holds no xsi:nil PSVI; elements present
        # the un-nilled value, other kinds the empty sequence.
        return False if ref.node_type == "element" else None

    # -- navigation kernel ---------------------------------------------

    def root(self) -> NodeDescriptor:
        document = self._engine.document
        if document is None:
            raise ModelError("storage engine holds no document")
        return document

    def descendants_of(self, ref: NodeDescriptor
                       ) -> "list[NodeDescriptor]":
        """Batched ``descendant-or-self``: descriptors are gathered one
        *block* at a time from the schema subtree's block lists and
        document order is restored by the one merge on the packed label
        keys (:func:`~repro.storage.blocks.sweep`), instead of per-node
        generator hops down the tree.

        From the document root the prefix filter accepts everything, so
        the sweep touches every block exactly once; below the root only
        subtrees big enough to amortize the block sweep win, so a
        smaller context walks its subtree
        (:meth:`~repro.storage.engine.StorageEngine.iter_document_order`).
        """
        engine = self._engine
        if ref is engine.document:
            return sweep(engine.schema.iter_nodes())
        return list(engine.iter_document_order(ref))

    def in_document_order(self, refs: "list[NodeDescriptor]"
                          ) -> "list[NodeDescriptor]":
        # On storage ``<<`` is label order (§9.3).
        return sorted(refs, key=doc_order_key)

    def before(self, first: NodeDescriptor,
               second: NodeDescriptor) -> bool:
        return first.nid < second.nid

    def node_key(self, ref: NodeDescriptor) -> bytes:
        # The label is bytes: repeated dedup hashing re-uses its
        # cached hash.
        return ref.nid

    def owns_ref(self, obj: object) -> bool:
        return isinstance(obj, NodeDescriptor)
