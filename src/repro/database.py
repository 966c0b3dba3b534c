"""An XML database of named documents evolving through states.

Section 6.1 motivates the state algebra with "frequent insertion of
new documents, updating existing documents and deleting obsolete
documents: a database evolves through different database states".
Each stored document here keeps *both* representations — the formal
node tree (Sections 5-6) and the Sedna-style storage (Section 9) —
updates the two in lockstep, and can re-verify at any time that they
agree node-for-node and that the tree still conforms to its schema.
The tree twin is the oracle: ``verify_consistency`` bisimulates two
structures that were updated independently.  The lock-step rule:

* **Same path on both sides.**  An update names its target by a path,
  which must select exactly one element on the tree and one in
  storage.  Nothing remembers which descriptor belongs to which node:
  a path's semantics is defined on the document alone, so it addresses
  the same node in either representation (``evaluate ≡ evaluate_tree``).
* **Storage first.**  The engine validates an update before it changes
  anything; the tree moves only after storage accepted, so a rejected
  update changes neither representation.
* **Typing by path.**  A document path has one descriptive-schema
  path (§9.1) and the schema types by path (§6.2 item 4), so an
  inserted element takes the compiled type its descriptor's schema
  path names (``DocumentSchema.type_at``, one content-model step per
  level).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ReproError
from repro.xmlio.nodes import XmlDocument
from repro.xmlio.parser import parse_document
from repro.xmlio.qname import QName
from repro.xmlio.serializer import serialize_document
from repro.xdm.node import DocumentNode, ElementNode, Node, TextNode
from repro.xdm.store import TreeNodeStore, bisimulate
from repro.algebra.conformance import ConformanceChecker, Violation
from repro.algebra.state import StateAlgebra
from repro.mapping.doc_to_tree import (
    document_to_tree,
    untyped_document_to_tree,
)
from repro.mapping.tree_to_doc import tree_to_document
from repro.query.engine import StorageQueryEngine, evaluate_tree
from repro.schema.ast import DocumentSchema
from repro.storage.engine import NodeDescriptor, StorageEngine
from repro.storage.store import StorageNodeStore


class DatabaseError(ReproError):
    """Misuse of the database layer (unknown document, bad target...)."""


class StoredDocument:
    """One document held in both representations, updated in lockstep."""

    def __init__(self, name: str, tree: DocumentNode,
                 schema: DocumentSchema | None) -> None:
        self.name = name
        self.schema = schema
        self.tree = tree
        self.algebra: StateAlgebra = tree.algebra
        self.engine = StorageEngine()
        self.engine.load_tree(tree)
        self._queries = StorageQueryEngine(self.engine)
        #: The two accessor-protocol views of this document.
        self.tree_store = TreeNodeStore(tree)
        self.storage_store = StorageNodeStore(self.engine)
        #: Number of state transitions this document has gone through.
        self.version = 0

    # -- reading ----------------------------------------------------------

    def query(self, path: str) -> list[Node]:
        """Evaluate a path over the formal tree."""
        return evaluate_tree(self.tree, path)

    def query_values(self, path: str) -> list[str]:
        """String values of the query result."""
        return [node.string_value() for node in self.query(path)]

    def query_storage(self, path: str) -> list[NodeDescriptor]:
        """The same query, answered by the storage engine through the
        plan cache (safe across updates: plans invalidate when the
        descriptive schema grows, and a data-only update just adds
        descriptors to block lists the cached plan already scans)."""
        return self._queries.evaluate(path)

    def serialize(self, indent: str | None = None) -> str:
        """The mapping g composed with the text serializer."""
        return serialize_document(tree_to_document(self.tree),
                                  indent=indent)

    # -- updates ------------------------------------------------------------

    def _target(self, path: str) -> tuple[ElementNode, NodeDescriptor]:
        """The single element *path* selects, on both sides."""
        nodes = [node for node in self.query(path)
                 if isinstance(node, ElementNode)]
        if not nodes:
            raise DatabaseError(f"{path!r} selects no element")
        if len(nodes) > 1:
            raise DatabaseError(
                f"{path!r} selects {len(nodes)} elements; updates "
                "need exactly one target")
        descriptors = [d for d in self.query_storage(path)
                       if d.node_type == "element"]
        if len(descriptors) != 1:
            raise DatabaseError("tree and storage have diverged")
        return nodes[0], descriptors[0]

    def insert_element(self, parent_path: str, index: int,
                       name: str) -> ElementNode:
        """Insert an empty element under the (single) element selected
        by *parent_path*, in both representations, typed as the schema
        types its path so conformance can be re-checked after updates."""
        parent, parent_descriptor = self._target(parent_path)
        qname = QName(parent.name.uri, name)
        descriptor = self.engine.insert_child(parent_descriptor, index,
                                              name=qname)
        element = self.algebra.create_element(qname)
        if self.schema is not None:
            compiled = self.schema.type_at(
                descriptor.schema_node.path.split("/"))
            if compiled is not None:
                self.algebra.annotate_element(
                    element, compiled.type_name,
                    simple_type=compiled.simple_type)
        self.algebra.insert_child(parent, index, element)
        self.version += 1
        return element

    def insert_text(self, parent_path: str, index: int,
                    text: str) -> TextNode:
        """Insert a text node in both representations."""
        parent, parent_descriptor = self._target(parent_path)
        self.engine.insert_child(parent_descriptor, index, text=text)
        node = self.algebra.create_text(text)
        self.algebra.insert_child(parent, index, node)
        self.version += 1
        return node

    def delete(self, path: str) -> int:
        """Delete the (single) element selected by *path* and its
        subtree from both representations; returns nodes removed."""
        target, descriptor = self._target(path)
        parent = target.parent_or_none()
        # Only elements below the root element are deletable: a
        # document must keep its single element child (Section 3).
        if not isinstance(parent, ElementNode):
            raise DatabaseError("cannot delete the document root")
        removed = self.engine.delete_subtree(descriptor)
        self.algebra.remove_child(parent, target)
        self.version += 1
        return removed

    def set_attribute(self, path: str, name: str, value: str) -> None:
        """Set an attribute in both representations: attach it when
        absent, replace its value in place when already present."""
        target, descriptor = self._target(path)
        qname = QName("", name)
        existing = next((a for a in target.attributes()
                         if a.name == qname), None)
        self.engine.set_attribute(descriptor, qname, value,
                                  replace=existing is not None)
        if existing is not None:
            self.algebra.set_attribute_value(existing, value)
        else:
            self.algebra.attach_attribute(
                target, self.algebra.create_attribute(qname, value))
        self.version += 1

    # -- verification ---------------------------------------------------------

    def check_conformance(self) -> list[Violation]:
        """Section 6.2 violations of the current state (empty if the
        document has no schema)."""
        if self.schema is None:
            return []
        return ConformanceChecker(self.schema).check(self.tree)

    def verify_consistency(self) -> None:
        """Assert the two representations agree node-for-node: the §9
        invariants hold and the tree and storage views bisimulate."""
        self.engine.check_invariants()
        bisimulate(self.tree_store, self.storage_store)

    def __repr__(self) -> str:
        return (f"StoredDocument({self.name!r}, version={self.version}, "
                f"{self.engine.node_count()} nodes)")


class XmlDatabase:
    """A collection of named stored documents."""

    def __init__(self) -> None:
        self._documents: dict[str, StoredDocument] = {}

    # -- document lifecycle --------------------------------------------------

    def store(self, name: str, source: "str | XmlDocument",
              schema: DocumentSchema | None = None) -> StoredDocument:
        """Insert a new document (text or parsed), optionally typed by
        *schema* (in which case the mapping f validates it)."""
        if name in self._documents:
            raise DatabaseError(f"document {name!r} already stored")
        document = (parse_document(source) if isinstance(source, str)
                    else source)
        if schema is not None:
            tree = document_to_tree(document, schema)
        else:
            tree = untyped_document_to_tree(document)
        stored = StoredDocument(name, tree, schema)
        self._documents[name] = stored
        return stored

    def get(self, name: str) -> StoredDocument:
        try:
            return self._documents[name]
        except KeyError:
            raise DatabaseError(f"no document named {name!r}") from None

    def drop(self, name: str) -> None:
        """Delete an obsolete document."""
        if name not in self._documents:
            raise DatabaseError(f"no document named {name!r}")
        del self._documents[name]

    def names(self) -> list[str]:
        return sorted(self._documents)

    def __contains__(self, name: str) -> bool:
        return name in self._documents

    def __len__(self) -> int:
        return len(self._documents)

    def documents(self) -> Iterator[StoredDocument]:
        yield from self._documents.values()

    # -- cross-document queries ---------------------------------------------

    def query_all(self, path: str) -> dict[str, list[str]]:
        """Evaluate one path over every stored document."""
        return {name: self._documents[name].query_values(path)
                for name in self.names()}

    def __repr__(self) -> str:
        return f"XmlDatabase({len(self)} documents)"
