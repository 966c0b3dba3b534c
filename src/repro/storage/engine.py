"""The Sedna-style storage engine (Section 9).

The engine owns a descriptive schema, a numbering scheme and the block
store.  Loading a document distributes its node descriptors into
per-schema-node block lists; every accessor of the Section 5 data model
is then answered from descriptor + schema-node data alone (the claim of
Section 9.2), and updates insert or delete descriptors **without ever
relabeling** existing nodes (Proposition 1) and without shifting
descriptors inside blocks (the unordered-block design).

Every write that changes what a block would persist as drops that
block's entry from the payload memo (:attr:`StorageEngine.payloads`),
so a checkpoint on any backend re-encodes exactly the blocks written
since their last encoding.  Instrumentation counters (splits, inserts,
relabels) feed the benchmark harness.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterator, Optional

from repro import obs
from repro.errors import StorageError, UpdateError
from repro.xmlio.nodes import XmlDocument, XmlElement, XmlText
from repro.xmlio.qname import QName
from repro.xdm.node import DocumentNode, ElementNode, TextNode
from repro.xdm.store import walk_document_order
from repro.storage import faults
from repro.storage.blocks import Block
from repro.storage.descriptor import NodeDescriptor, doc_order_key
from repro.storage.dschema import DescriptiveSchema, SchemaNode, text_slot
from repro.storage.indexes import IndexManager
from repro.storage.labels import NidLabel, NumberingScheme, is_parent

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.txn import TransactionManager

#: Looked up once: a bulk load allocates one descriptor per node.
_ALLOCATED = obs.REGISTRY.counter("storage.descriptors.allocated")


class StorageEngine:
    """One stored document: descriptive schema + blocks + labels."""

    def __init__(self, base: int = 256, block_capacity: int = 64) -> None:
        #: The one freshness stamp of a cached query plan, compared on
        #: a hit.  Bumped by each source of plan staleness — schema
        #: growth, index DDL, statistics drift, a load — and by nothing
        #: else; it only grows, so no value repeats for one engine.
        self.plan_epoch = 0
        self.schema = DescriptiveSchema()
        self.schema.engine = self
        self.numbering = NumberingScheme(base)
        self.block_capacity = block_capacity
        self.document: Optional[NodeDescriptor] = None
        #: Set by :class:`~repro.storage.txn.TransactionManager`; when
        #: attached, every mutation is write-ahead logged (and wrapped
        #: in a single-operation transaction unless one is open).
        self.txn_manager: "TransactionManager | None" = None
        #: The WAL horizon of the image this engine was loaded from
        #: (0 for engines built in memory) — recovery replays past it.
        self.checkpoint_lsn = 0
        #: Declared secondary indexes (checkpoints persist the
        #: definitions; contents are rebuilt from the blocks).
        self.indexes = IndexManager(self)
        #: The payload memo, ``block_id → encoded payload``, for every
        #: block no write has reached since it was encoded
        #: (:func:`repro.storage.persist.block_payload`): the one record
        #: of what changed since a checkpoint, which every backend reads.
        self.payloads: dict[int, bytes] = {}
        # Instrumentation.
        self.insert_count = 0
        self.delete_count = 0
        self.split_count = 0
        self.relabel_count = 0  # stays 0: Proposition 1
        # Materialize the relabel counter at zero: the engine never
        # increments it (Proposition 1), and an explicit 0 in every
        # snapshot is the claim being made.
        obs.REGISTRY.counter("storage.relabels")

    # ==================================================================
    # Loading

    def load_document(self, document: XmlDocument,
                      preserve_whitespace: bool = False) -> NodeDescriptor:
        """Bulk-load a raw parsed document.

        With the default ``preserve_whitespace=False``, whitespace-only
        text nodes between elements are dropped, which reproduces the
        descriptive schema the paper draws for Example 8; pass True to
        store every text node verbatim.
        """
        def expand(element: XmlElement):
            children: list[object] = []
            for child in element.children:
                if not isinstance(child, XmlText):
                    children.append(child)
                elif preserve_whitespace or child.text.strip():
                    children.append(child.text)
            return list(element.attributes.items()), children

        return self._load(document.root, expand)

    def load_tree(self, document: DocumentNode) -> NodeDescriptor:
        """Bulk-load a data-model tree (Section 5 nodes)."""
        def expand(element: ElementNode):
            children: list[object] = []
            for child in element._children:
                if isinstance(child, TextNode):
                    children.append(child._value)
                elif isinstance(child, ElementNode):
                    children.append(child)
                else:
                    raise StorageError(
                        f"unsupported child kind {child.kind!r}")
            return ([(a._name, a._value) for a in element._attributes],
                    children)

        return self._load(document.document_element(), expand)

    def _load(self, element, expand) -> NodeDescriptor:
        """The one bulk loader: store the document node and *element*
        under it, then walk down.  ``expand(element)`` is all a source
        representation has to say about itself: the ``(QName, value)``
        attribute pairs and the children, in order — a ``str`` for a
        text child, else a source element whose ``.name`` is its QName.
        """
        if self.document is not None:
            raise StorageError("engine already holds a document")
        root_descriptor = self._new_descriptor(
            self.schema.root, self.numbering.root_label())
        self._append_to_schema_blocks(root_descriptor)
        self.document = root_descriptor
        (label,) = self.numbering.child_labels(root_descriptor.nid, 1)
        self._load_children(root_descriptor, [(label, element)], expand)
        return root_descriptor

    def _new_descriptor(self, schema_node: SchemaNode, nid: NidLabel,
                        value: str | None = None) -> NodeDescriptor:
        descriptor = NodeDescriptor(schema_node, nid, value=value)
        _ALLOCATED.inc()
        return descriptor

    def _load_children(self, parent: NodeDescriptor, pending,
                       expand) -> None:
        """Store the ``(label, child)`` pairs *pending* below *parent*
        and every child element's subtree, in document order — each
        element's attributes, then its children, a child's subtree
        before its next sibling — with an explicit stack of frames
        ``[parent, its pairs still to store, its last child stored]``.
        """
        stack = [[parent, iter(pending), None]]
        while stack:
            frame = stack[-1]
            parent, pending, previous = frame
            for label, child in pending:
                is_text = isinstance(child, str)
                schema_node = self.schema.get_or_add_child(
                    parent.schema_node, None if is_text else child.name,
                    "text" if is_text else "element")
                descriptor = self._new_descriptor(
                    schema_node, label, value=child if is_text else None)
                descriptor.parent = parent
                descriptor.left_sibling = previous
                if previous is not None:
                    previous.right_sibling = descriptor
                frame[2] = previous = descriptor
                self._append_to_schema_blocks(descriptor)
                self._register_child_pointer(parent, descriptor)
                if not is_text:
                    stack.append([descriptor, self._load_attributes(
                        descriptor, child, expand), None])
                    break
            else:
                stack.pop()

    def _load_attributes(self, parent: NodeDescriptor, element, expand):
        """Label *element*'s attributes and children, store the
        attributes and return the children's ``(label, child)`` pairs.
        """
        attributes, children = expand(element)
        labels = self.numbering.child_labels(
            parent.nid, len(attributes) + len(children))
        for label, (name, value) in zip(labels, attributes):
            schema_node = self.schema.get_or_add_child(
                parent.schema_node, name, "attribute")
            descriptor = self._new_descriptor(schema_node, label,
                                              value=value)
            descriptor.parent = parent
            self._append_to_schema_blocks(descriptor)
            self._register_child_pointer(parent, descriptor)
        return zip(labels[len(attributes):], children)

    # ==================================================================
    # Block placement

    def _changed(self, block: Optional[Block]) -> None:
        """*block*'s persisted form changed (slot membership, in-block
        order, a descriptor's value or links): its memoized payload is
        stale."""
        if block is not None:
            self.payloads.pop(block.block_id, None)

    def _append_to_schema_blocks(self, descriptor: NodeDescriptor) -> None:
        """Bulk-load placement: document order equals load order, so the
        descriptor goes to the tail of its schema node's block list."""
        schema_node = descriptor.schema_node
        block = schema_node.last_block
        if block is None or block.is_full:
            block = Block(schema_node, self.block_capacity)
            schema_node.append_block(block)
        block.insert_after(descriptor, block.last_descriptor())
        if schema_node.note_added(descriptor):
            self.plan_epoch += 1
        self._changed(block)

    def _place_descriptor(self, descriptor: NodeDescriptor) -> None:
        """Update-path placement: find the document-order position among
        the schema node's existing descriptors, splitting a full block
        when needed.  Only the target block is touched.

        The position is found by label, a bytes key: one compare per
        block down the chain to the first block whose last descriptor
        orders after the new one, then a bisection of that block's
        memoized run for the predecessor."""
        key = descriptor.nid
        target = descriptor.schema_node.first_block
        while target is not None:
            last = target.last_descriptor()
            if last is None or key < last.nid:
                break
            target = target.next_block
        if target is None:
            # Belongs after everything (or the chain is empty): append
            # at the tail.
            self._append_to_schema_blocks(descriptor)
            return
        if target.is_full:
            sibling = target.split()
            faults.fire("block.split")
            self.split_count += 1
            # Both halves changed their persisted slot membership.
            self._changed(target)
            self._changed(sibling)
            obs.REGISTRY.counter("storage.blocks.split").inc()
            first_of_sibling = sibling.first_descriptor()
            if (first_of_sibling is not None
                    and first_of_sibling.nid < key):
                target = sibling
        target.insert_after(descriptor, target.predecessor(key))
        if descriptor.schema_node.note_added(descriptor):
            self.plan_epoch += 1
        self._changed(target)

    # ==================================================================
    # Accessor evaluation (descriptor + schema node only, §9.2)

    def node_kind(self, descriptor: NodeDescriptor) -> str:
        return descriptor.schema_node.node_type

    def node_name(self, descriptor: NodeDescriptor) -> QName | None:
        return descriptor.schema_node.name

    def parent(self, descriptor: NodeDescriptor) -> NodeDescriptor | None:
        return descriptor.parent

    def first_child(self, descriptor: NodeDescriptor
                    ) -> NodeDescriptor | None:
        """Head of the child sequence: the first-child-by-schema
        pointer (§9.2) that has no left sibling."""
        for candidate in descriptor.children_by_schema.values():
            if (candidate.left_sibling is None
                    and candidate.node_type != "attribute"):
                return candidate
        return None

    def children(self, descriptor: NodeDescriptor) -> list[NodeDescriptor]:
        """The child sequence in document order, reconstructed from the
        first-child-by-schema pointers and the sibling chain."""
        out: list[NodeDescriptor] = []
        node = self.first_child(descriptor)
        while node is not None:
            out.append(node)
            node = node.right_sibling
        return out

    def first_child_by_schema(self, descriptor: NodeDescriptor,
                              schema_child: SchemaNode
                              ) -> NodeDescriptor | None:
        """Direct use of the §9.2 pointer: the first child attributed
        to *schema_child*, without scanning the sibling chain."""
        index = descriptor.schema_node.child_index(schema_child)
        return descriptor.first_child_for(index)

    def attributes(self, descriptor: NodeDescriptor
                   ) -> list[NodeDescriptor]:
        """The attributes in label order (§7) — not the order the
        descriptive schema first saw their names in."""
        out: list[NodeDescriptor] = []
        for index, schema_child in enumerate(
                descriptor.schema_node.children):
            if schema_child.node_type != "attribute":
                continue
            attribute = descriptor.first_child_for(index)
            if attribute is not None:
                out.append(attribute)
        if len(out) > 1:
            out.sort(key=doc_order_key)
        return out

    def string_value(self, descriptor: NodeDescriptor) -> str:
        node_type = descriptor.node_type
        if node_type == "text" or node_type == "attribute":
            return descriptor.value or ""
        # An element (or the document): the text below it, in document
        # order, read off the sibling chain in place.
        node = self.first_child(descriptor)
        if node is None:
            return ""
        if node.right_sibling is None and node.node_type == "text":
            # The common leaf element: one text child.
            return node.value or ""
        return "".join(node.value or ""
                       for node in self.iter_document_order(descriptor)
                       if node.node_type == "text")

    def string_values(self, descriptors) -> list[str]:
        """``[string_value(d) for d in descriptors]`` in one pass.

        A path result is mostly runs of one schema node, so the text
        slot (:func:`~repro.storage.dschema.text_slot`) is resolved
        once per run: an element with simple content reads its first
        text child's value through the §9.2 pointer when that text is
        its only child, and one without a text child (slot -1 holds
        none) reads ``""``.  Everything else
        — texts, attributes, the document, complex content, several
        texts — is :meth:`string_value`'s."""
        out: list[str] = []
        append = out.append
        string_value = self.string_value
        schema_node = slot = None
        for descriptor in descriptors:
            if descriptor.schema_node is not schema_node:
                schema_node = descriptor.schema_node
                slot = (text_slot(schema_node)
                        if schema_node.node_type == "element" else None)
            if slot is None:
                append(string_value(descriptor))
            else:
                text = descriptor.children_by_schema.get(slot)
                if text is None:
                    append("")
                elif text.right_sibling is None:
                    append(text.value or "")
                else:
                    append(string_value(descriptor))
        return out

    # ==================================================================
    # Scans

    def iter_document_order(self, descriptor: NodeDescriptor | None = None
                            ) -> Iterator[NodeDescriptor]:
        """Whole-(sub)tree scan in document order (Section 7 rules):
        :func:`~repro.xdm.store.walk_document_order` over this
        engine's accessors."""
        if descriptor is None:
            descriptor = self.document
            if descriptor is None:
                return iter(())
        return walk_document_order(descriptor, self.attributes,
                                   self.children)

    def scan_schema_node(self, schema_node: SchemaNode
                         ) -> Iterator[NodeDescriptor]:
        """All instances of one schema node in document order: the block
        chain gives the partial order, the short-pointer chain recovers
        the order inside each block."""
        for block in schema_node.blocks():
            yield from block.iter_in_order()

    # ==================================================================
    # Updates
    #
    # Each public mutation validates its arguments completely before
    # touching any structure (a refused update raises ``UpdateError``
    # and changes nothing), then runs under ``_autocommit``: with a
    # transaction manager attached, the operation is grouped — into
    # the open transaction if there is one, into a single-operation
    # autocommit transaction otherwise — and says its own logical
    # update once, around the in-memory change: the WAL record (with
    # the label the mutation is about to assign) reaches the log
    # first, the inverse is pushed on the transaction's undo list
    # only once the change is in memory.

    def _autocommit(self):
        manager = self.txn_manager
        if manager is None or not manager.autocommit_needed():
            return nullcontext()
        return manager.transaction()

    def _open_transaction(self):
        """``(wal, transaction)`` for a mutation to log to and push
        its inverse on; ``(None, None)`` with no manager attached or
        while a rollback is running the inverses."""
        manager = self.txn_manager
        if manager is not None and manager.logging:
            return manager.wal, manager.active
        return None, None

    def insert_child(self, parent: NodeDescriptor, index: int,
                     name: QName | None = None,
                     text: str | None = None) -> NodeDescriptor:
        """Insert a new element (give *name*) or text node (give
        *text*) at *index* among *parent*'s children.

        No existing node is relabeled and no descriptor moves between
        blocks except by an explicit split of the target block.
        """
        if (name is None) == (text is None):
            raise UpdateError("give exactly one of name= or text=")
        if parent.is_text_enabled:
            raise UpdateError("text and attribute nodes have no children")
        if parent.block is None:
            raise UpdateError(f"{parent!r} is not stored in this engine")
        siblings = self.children(parent)
        if not 0 <= index <= len(siblings):
            raise UpdateError(
                f"index {index} out of range 0..{len(siblings)}")
        with self._autocommit():
            return self._insert_child(parent, index, siblings, name, text)

    def _insert_child(self, parent: NodeDescriptor, index: int,
                      siblings: list[NodeDescriptor],
                      name: QName | None,
                      text: str | None) -> NodeDescriptor:
        left = siblings[index - 1] if index > 0 else None
        right = siblings[index] if index < len(siblings) else None
        # Attributes precede the children in document order (§7), so
        # a new first child is labelled after the last of them.
        lower = left if left is not None \
            else self._last_attribute(parent)
        nid = self.numbering.child_label(
            parent.nid,
            lower.nid if lower is not None else None,
            right.nid if right is not None else None)
        wal, txn = self._open_transaction()
        if txn is not None:
            if name is not None:
                wal.append_insert_element(txn.txn_id, parent.nid, index,
                                          name, nid)
            else:
                wal.append_insert_text(txn.txn_id, parent.nid, index,
                                       text, nid)
        schema_node = self.schema.get_or_add_child(
            parent.schema_node, name,
            "element" if name is not None else "text")
        descriptor = self._attach(parent, schema_node, nid, text, left,
                                  right)
        self.insert_count += 1
        obs.REGISTRY.counter("storage.inserts").inc()
        if txn is not None:
            txn.undo.append((self._detach, descriptor))
        return descriptor

    def _last_attribute(self, parent: NodeDescriptor
                        ) -> NodeDescriptor | None:
        """*parent*'s attribute with the greatest label, if any."""
        attributes = self.attributes(parent)
        return attributes[-1] if attributes else None

    def _attach(self, parent: NodeDescriptor, schema_node: SchemaNode,
                nid: NidLabel, value: str | None,
                left: NodeDescriptor | None,
                right: NodeDescriptor | None) -> NodeDescriptor:
        """Store a new descriptor at exactly the label *nid* below
        *parent*, between the siblings *left* and *right* (None at an
        edge, both None for an attribute) — a live insert and its
        replay alike."""
        descriptor = self._new_descriptor(schema_node, nid, value=value)
        descriptor.parent = parent
        self._link(descriptor, left, right)
        return descriptor

    def _link(self, descriptor: NodeDescriptor,
              left: NodeDescriptor | None,
              right: NodeDescriptor | None) -> None:
        """Put an unstored *descriptor* in at its label: sibling chain,
        block slot, first-child pointer, indexes."""
        descriptor.left_sibling = left
        descriptor.right_sibling = right
        if left is not None:
            left.right_sibling = descriptor
            self._changed(left.block)
        if right is not None:
            right.left_sibling = descriptor
            self._changed(right.block)
        self._place_descriptor(descriptor)
        self._register_child_pointer(descriptor.parent, descriptor)
        if self.indexes.active:
            self.indexes.note_added(descriptor)

    def _detach(self, descriptor: NodeDescriptor) -> None:
        """Take one childless descriptor out again — the inverse of
        :meth:`_link`; it keeps its label, value and parent."""
        self._unlink_from_siblings(descriptor)
        self._remove_descriptor(descriptor)

    def set_attribute(self, parent: NodeDescriptor, name: QName,
                      value: str,
                      replace: bool = False) -> NodeDescriptor:
        """Attach an attribute descriptor (one per name per element).

        With ``replace=True`` an already-present attribute of the same
        name has its value overwritten in place — the descriptor keeps
        its label and block slot, so no relabeling and no block motion
        (Proposition 1 extends to value updates).  Without it, a
        duplicate raises.
        """
        if parent.node_type != "element":
            raise UpdateError(
                f"only element nodes take attributes, not "
                f"{parent.node_type}")
        if parent.block is None:
            raise UpdateError(f"{parent!r} is not stored in this engine")
        schema_node = self.schema.get_or_add_child(
            parent.schema_node, name, "attribute")
        existing = parent.first_child_for(
            parent.schema_node.child_index(schema_node))
        if existing is not None and not replace:
            raise UpdateError(
                f"attribute {name.lexical} already present")
        with self._autocommit():
            return self._set_attribute(parent, name, value, schema_node,
                                       existing)

    def _set_attribute(self, parent: NodeDescriptor, name: QName,
                       value: str, schema_node: SchemaNode,
                       existing: NodeDescriptor | None) -> NodeDescriptor:
        wal, txn = self._open_transaction()
        if existing is not None:
            if txn is not None:
                wal.append_set_attribute(txn.txn_id, parent.nid, name,
                                         value, existing.nid, True)
            old_value = self._set_value(existing, value)
            if txn is not None:
                txn.undo.append((self._set_value, existing, old_value))
            return existing
        left = self._last_attribute(parent)
        right = self.first_child(parent)
        nid = self.numbering.child_label(
            parent.nid,
            left.nid if left is not None else None,
            right.nid if right is not None else None)
        if txn is not None:
            wal.append_set_attribute(txn.txn_id, parent.nid, name, value,
                                     nid, False)
        # An attribute is outside the sibling chain: no neighbours.
        descriptor = self._attach(parent, schema_node, nid, value, None,
                                  None)
        self.insert_count += 1
        obs.REGISTRY.counter("storage.inserts").inc()
        if txn is not None:
            txn.undo.append((self._detach, descriptor))
        return descriptor

    def _set_value(self, descriptor: NodeDescriptor,
                   value: str | None) -> str | None:
        """Overwrite a stored value in place and return the one it
        replaced — with which the same call is its own inverse."""
        old_value = descriptor.value
        descriptor.value = value
        if descriptor.schema_node.note_value_changed(descriptor,
                                                     old_value):
            self.plan_epoch += 1
        self._changed(descriptor.block)
        if self.indexes.active:
            self.indexes.note_value_changed(descriptor)
        return old_value

    def delete_subtree(self, descriptor: NodeDescriptor) -> int:
        """Remove a node and its whole subtree; returns nodes removed."""
        if descriptor is self.document:
            raise UpdateError("cannot delete the document node")
        if descriptor.block is None:
            raise UpdateError(
                f"{descriptor!r} is not stored (already deleted?)")
        with self._autocommit():
            wal, txn = self._open_transaction()
            if txn is not None:
                wal.append_delete(txn.txn_id, descriptor.nid)
            doomed = list(self.iter_document_order(descriptor))
            self._delete_subtree(doomed)
            if txn is not None:
                txn.undo.append((self._restore_subtree, doomed))
            return len(doomed)

    def _delete_subtree(self, doomed: list[NodeDescriptor]) -> None:
        """Take out a subtree listed in document order, last node
        first: every node leaves after its descendants, so each
        element or text is childless when it is detached."""
        deletes = obs.REGISTRY.counter("storage.deletes")
        for descriptor in reversed(doomed):
            if descriptor.node_type == "attribute":
                self._remove_descriptor(descriptor)
                continue
            self._detach(descriptor)
            self.delete_count += 1
            deletes.inc()

    def _restore_subtree(self, doomed: list[NodeDescriptor]) -> None:
        """Put a deleted subtree back label-exactly, parents first.

        The descriptors themselves go back in — each kept its label,
        value and parent when it was taken out — so an older inverse
        of the same transaction that names one of them (the insert
        that created it, a value it had replaced) still finds it
        stored.  Sibling positions are recovered from the labels
        alone — which is exactly why labels make inverse operations
        cheap.
        """
        for descriptor in doomed:
            left = right = None
            if descriptor.node_type != "attribute":
                for sibling in self.children(descriptor.parent):
                    if sibling.nid < descriptor.nid:
                        left = sibling
                    else:
                        right = sibling
                        break
            self._link(descriptor, left, right)

    # ==================================================================
    # Index DDL
    #
    # Declarations follow the same discipline as data mutations: full
    # validation first (``UpdateError`` changes nothing), then a
    # write-ahead CREATE_INDEX/DROP_INDEX record under autocommit, then
    # the in-memory effect.  Index *contents* are derived state — the
    # build is one block-list scan, and recovery re-derives it.

    def create_index(self, path: str, value_type: str = "string"):
        """Declare a value index: the §4 typed values of one attribute
        or element schema path (``library/book/@year``) under the
        simple type *value_type*.  Returns the built index.
        """
        definition = self.indexes.validate(path, value_type)
        with self._autocommit():
            wal, txn = self._open_transaction()
            if txn is not None:
                wal.append_create_index(txn.txn_id, definition.path,
                                        definition.kind,
                                        definition.value_type)
            index = self.indexes.install(definition)
            if txn is not None:
                txn.undo.append((self.indexes.uninstall, definition))
            return index

    def drop_index(self, path: str):
        """Drop a declared index; returns its definition."""
        definition = self.indexes.find(path)
        with self._autocommit():
            wal, txn = self._open_transaction()
            if txn is not None:
                wal.append_drop_index(txn.txn_id, definition.path,
                                      definition.kind)
            self.indexes.uninstall(definition)
            if txn is not None:
                txn.undo.append((self.indexes.install, definition))
            return definition

    def _unlink_from_siblings(self, descriptor: NodeDescriptor) -> None:
        parent = descriptor.parent
        left, right = descriptor.left_sibling, descriptor.right_sibling
        if left is not None:
            left.right_sibling = right
            self._changed(left.block)
        if right is not None:
            right.left_sibling = left
            self._changed(right.block)
        if parent is not None:
            schema_node = descriptor.schema_node
            index = parent.schema_node.child_index(schema_node)
            if parent.first_child_for(index) is descriptor:
                # The next instance of the same schema node, if any.
                node = right
                replacement = None
                while node is not None:
                    if node.schema_node is schema_node:
                        replacement = node
                        break
                    node = node.right_sibling
                if replacement is None:
                    parent.children_by_schema.pop(index, None)
                else:
                    parent.children_by_schema[index] = replacement
        descriptor.left_sibling = None
        descriptor.right_sibling = None

    def _remove_descriptor(self, descriptor: NodeDescriptor) -> None:
        faults.fire("descriptor.unlink")
        block = descriptor.block
        if block is None:
            raise StorageError(f"{descriptor!r} is not stored")
        if self.indexes.active:
            # Siblings are already unlinked (non-attribute nodes), so
            # recomputed string values no longer see this descriptor.
            self.indexes.note_removed(descriptor)
        schema_node = descriptor.schema_node
        if descriptor.node_type == "attribute" and \
                descriptor.parent is not None:
            index = descriptor.parent.schema_node.child_index(schema_node)
            if descriptor.parent.first_child_for(index) is descriptor:
                descriptor.parent.children_by_schema.pop(index, None)
        block.remove(descriptor)
        if schema_node.note_removed(descriptor):
            self.plan_epoch += 1
        if block.is_empty:
            self._unlink_block(block)
        self._changed(block)

    def _unlink_block(self, block: Block) -> None:
        schema_node = block.schema_node
        if block.prev_block is not None:
            block.prev_block.next_block = block.next_block
        else:
            schema_node.first_block = block.next_block
        if block.next_block is not None:
            block.next_block.prev_block = block.prev_block
        else:
            schema_node.last_block = block.prev_block

    def _register_child_pointer(self, parent: NodeDescriptor,
                                child: NodeDescriptor) -> None:
        """Maintain the first-child-by-schema pointer of §9.2."""
        index = parent.schema_node.child_index(child.schema_node)
        current = parent.first_child_for(index)
        if current is None or child.nid < current.nid:
            parent.children_by_schema[index] = child

    # ==================================================================
    # Statistics and invariants

    def node_count(self) -> int:
        return sum(node.descriptor_count
                   for node in self.schema.iter_nodes())

    def block_count(self) -> int:
        return sum(node.block_count() for node in self.schema.iter_nodes())

    def size_bytes(self) -> int:
        total = 0
        for schema_node in self.schema.iter_nodes():
            for block in schema_node.blocks():
                total += block.size_bytes()
        return total

    def blocks_per_schema_node(self) -> dict[str, int]:
        return {node.path or "#document": node.block_count()
                for node in self.schema.iter_nodes()}

    def check_invariants(self, touched=None) -> None:
        """Re-verify the §9 invariants (used heavily by the tests):
        every block chain and every child list.  Every block is walked
        afresh (:meth:`Block.verify`), which refreshes its verdict.

        With *touched* — the descriptors a replay inserted, overwrote
        or deleted — only the block chains of their schema nodes and
        the child lists of their still-stored parents are checked:
        the same two checks over what a local change can have broken.
        Inside those chains a block whose verdict stands (its chain
        has not changed since it last passed) is not walked again;
        every block boundary still is compared.  The cost is the
        changed blocks × capacity plus the blocks of the touched
        schema nodes plus the touched parents' child lists.

        Every chain walk is bounded — an in-block chain by the block's
        count, a sibling chain by the stored descriptor count (scoped:
        the descriptors stored under the parent's schema children, so
        no walk of the whole descriptive schema) — so links that loop
        (a crafted image) are reported, not followed.
        """
        if touched is not None:
            for schema_node in {d.schema_node for d in touched}:
                self._check_block_chain(schema_node, scoped=True)
            for parent in {d.parent for d in touched}:
                if parent is not None and parent.block is not None:
                    self._check_children(parent, sum(
                        child.descriptor_count
                        for child in parent.schema_node.children))
            return
        limit = self.node_count()
        for schema_node in self.schema.iter_nodes():
            self._check_block_chain(schema_node)
        if self.document is not None:
            pending = [self.document]
            while pending:
                pending.extend(
                    self._check_children(pending.pop(), limit))

    def _check_block_chain(self, schema_node: SchemaNode,
                           scoped: bool = False) -> None:
        """One schema node's block list: each block's own invariants
        (:meth:`Block.verify`; *scoped* skips a block whose verdict
        stands) and document order across every block boundary, on
        labels."""
        previous_last = b""
        for block in schema_node.blocks():
            if block.schema_node is not schema_node:
                raise StorageError(
                    f"{block!r} stored under the wrong schema node")
            if not (scoped and block.verified):
                block.verify()
            first = block.first_descriptor()
            if first is None:
                continue
            if first.nid <= previous_last:
                raise StorageError(
                    f"{block!r}: partial order across blocks violated")
            previous_last = block.last_descriptor().nid

    def _check_children(self, descriptor: NodeDescriptor,
                        limit: int) -> list[NodeDescriptor]:
        """One node's attributes and child sequence: child labels,
        parent pointers, attributes before children, sibling order.
        Returns the children, so the full check walks the tree
        without computing them twice.  The sibling chain must end
        within *limit* links."""
        children: list[NodeDescriptor] = []
        child = self.first_child(descriptor)
        while child is not None:
            if len(children) == limit:
                raise StorageError(
                    f"the sibling chain below {descriptor!r} does not "
                    f"end within the {limit} stored descriptors")
            children.append(child)
            child = child.right_sibling
        attributes = self.attributes(descriptor)
        for child in attributes + children:
            if not is_parent(descriptor.nid, child.nid):
                raise StorageError(
                    f"label of {child!r} is not a child label of "
                    f"{descriptor!r}")
            if child.parent is not descriptor:
                raise StorageError(f"{child!r} has the wrong parent")
        if children:
            for attribute in attributes:
                if attribute.nid >= children[0].nid:
                    raise StorageError(
                        f"{attribute!r} is labelled after a child")
        for previous, child in zip(children, children[1:]):
            if previous.nid >= child.nid:
                raise StorageError("sibling labels out of order")
        return children

    def __repr__(self) -> str:
        return (f"StorageEngine({self.node_count()} nodes, "
                f"{self.block_count()} blocks, "
                f"{self.schema.node_count()} schema nodes)")
