"""The Section 6.2 conformance requirements, checked item by item.

Given a document — presented either as a Section 5/6 node tree or as
any other :class:`~repro.xdm.store.NodeStore` model (e.g. the Sedna
storage of Section 9) — and a document schema,
:class:`ConformanceChecker` verifies every numbered requirement of
Section 6.2 and reports violations tagged with the paper's item
numbers (``"1"`` through ``"7"``, with sub-items like ``"5.3.1"``).

Every check reads the document exclusively through the ten accessors,
which is what lets one checker serve both representations: the paper
states the requirements over accessor values, not over node classes.

This is deliberately separate from the mapping ``f``
(:mod:`repro.mapping.doc_to_tree`): ``f`` *constructs* conforming
trees, the checker *verifies* arbitrary trees — including hand-built
or mutated ones — against the requirements.  The test suite uses the
checker as the oracle for ``f`` and for the instance builder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ConformanceError
from repro.xdm.node import UNTYPED_ATOMIC_NAME, DocumentNode, Node
from repro.xdm.store import NodeStore, Ref, as_node_store
from repro.xsdtypes.base import SimpleType
from repro.schema.ast import DocumentSchema, ElementDeclaration
from repro.schema.compiled import CompiledType


@dataclass
class Violation:
    """One violated requirement: the paper's item number, a location
    path and a human-readable message."""

    item: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"[item {self.item}] {self.path}: {self.message}"

    def as_error(self) -> ConformanceError:
        return ConformanceError(self.item, self.message, self.path)


class ConformanceChecker:
    """Checks documents against one schema's requirements, through the
    accessor protocol — any :class:`NodeStore` model can be checked."""

    def __init__(self, schema: DocumentSchema) -> None:
        self._schema = schema

    # -- public API ----------------------------------------------------------

    def check(self, document: "DocumentNode | Node | NodeStore"
              ) -> list[Violation]:
        """All violations found (empty list = the tree is an S-tree).

        *document* is a tree node (the historical API) or any
        ``NodeStore`` (checked from its root).
        """
        if isinstance(document, NodeStore):
            return self.check_store(document)
        return self.check_store(as_node_store(document), document)

    def check_store(self, store: NodeStore,
                    root: Ref = None) -> list[Violation]:
        """All violations of the document presented by *store*."""
        self._store = store
        self._violations: list[Violation] = []
        self._seen: set = set()
        if root is None:
            root = store.root()
        obs.REGISTRY.counter("conformance.documents_checked").inc()
        with obs.TRACER.span("conformance.check"):
            self._check_document(root)
            self._check_no_other_nodes(root)
        if self._violations:
            obs.REGISTRY.counter("conformance.documents_failed").inc()
        return self._violations

    def conforms(self, document: "DocumentNode | NodeStore") -> bool:
        return not self.check(document)

    def assert_conforms(self,
                        document: "DocumentNode | NodeStore") -> None:
        violations = self.check(document)
        if violations:
            raise violations[0].as_error()

    # -- items 1-4 -------------------------------------------------------

    def _report(self, item: str, path: str, message: str) -> None:
        self._violations.append(Violation(item, path, message))
        if obs.ENABLED:
            # Failure sites keyed by the paper's top-level item number;
            # the trace event keeps the exact sub-item and location.
            top = item.split(".", 1)[0]
            obs.REGISTRY.counter(
                f"conformance.violations.item{top}").inc()
            obs.TRACER.event("conformance.violation", item=item,
                             path=path)

    def _count_check(self, item: str) -> None:
        """Count one evaluation of a Section 6.2 requirement."""
        if obs.ENABLED:
            obs.REGISTRY.counter(f"conformance.checks.item{item}").inc()

    def _mark_seen(self, ref: Ref) -> None:
        self._seen.add(self._store.node_key(ref))

    def _check_document(self, document: Ref) -> None:
        store = self._store
        path = "/"
        self._count_check("1")
        if store.node_kind(document) != "document":
            self._report("1", path, "the tree root is not a document node")
            return
        self._mark_seen(document)
        # Item 1: fixed accessors of the document node.
        if store.node_name(document) is not None:
            self._report("1", path,
                         "document node's node_name must be empty")
        if store.type_name(document) is not None:
            self._report("1", path, "document node's type must be empty")
        if store.attributes(document):
            self._report("1", path,
                         "document node's attributes must be empty")
        if store.nilled(document) is not None:
            self._report("1", path, "document node's nilled must be empty")
        if store.parent(document) is not None:
            self._report("1", path, "document node's parent must be empty")
        children = store.children(document)
        # Item 3: exactly one element child.
        self._count_check("3")
        elements = [c for c in children
                    if store.node_kind(c) == "element"]
        if len(children) != 1 or len(elements) != 1:
            self._report(
                "3", path,
                f"document node must have exactly one element child, "
                f"found {len(children)} children")
            return
        (end,) = elements
        # Item 1: string value of the document = string value of child.
        if store.string_value(document) != store.string_value(end):
            self._report(
                "1", path,
                "document string-value differs from its child's")
        if not self._same_node(store.parent(end), document):
            self._report("3", path, "child's parent accessor is wrong")
        declaration = self._schema.root_element
        self._check_element(end, declaration,
                            self._schema.type_of(declaration),
                            f"/{declaration.name}")

    def _same_node(self, first: "Ref | None",
                   second: "Ref | None") -> bool:
        if first is None or second is None:
            return first is None and second is None
        store = self._store
        return store.node_key(first) == store.node_key(second)

    def _check_element(self, element: Ref,
                       declaration: ElementDeclaration,
                       compiled: CompiledType, path: str) -> None:
        store = self._store
        self._count_check("4")
        if store.node_kind(element) != "element":
            self._report("4", path, "expected an element node")
            return
        self._mark_seen(element)
        # Item 4: name and type accessor values.
        name = store.node_name(element)
        if name is None or name.local != declaration.name:
            self._report(
                "4", path,
                f"node-name {name!r} does not match declaration "
                f"{declaration.name!r}")
        expected_type = compiled.type_name
        type_name = store.type_name(element)
        if type_name != expected_type:
            self._report(
                "4", path,
                f"type accessor {type_name!r} must be "
                f"{expected_type.lexical}")
        self._check_base_uri(element, path, item="4")

        nilled = bool(store.nilled(element))

        if not declaration.nillable:
            # Item 5: nid = false forces nilled(end) = false.
            self._count_check("5")
            if nilled:
                self._report(
                    "5", path,
                    "nilled is true but the declaration is not nillable")
                return
            self._check_content(element, compiled, path)
        else:
            # Item 6.
            self._count_check("6")
            if nilled:
                if store.children(element):
                    self._report(
                        "6", path, "a nilled element must have no children")
                if compiled.attributes is not None:
                    self._check_attributes(element, compiled.attributes,
                                           path)
                elif store.attributes(element):
                    self._report(
                        "6.1", path,
                        "a nilled simple-typed element has attributes")
            else:
                self._check_content(element, compiled, path)

    def _check_base_uri(self, ref: Ref, path: str, item: str) -> None:
        store = self._store
        parent = store.parent(ref)
        if parent is None:
            return
        if store.base_uri(ref) != store.base_uri(parent):
            self._report(
                item, path,
                "base-uri must be inherited from the parent")

    # -- item 5 dispatch -----------------------------------------------------

    def _check_content(self, element: Ref, compiled: CompiledType,
                       path: str) -> None:
        if compiled.attributes is None:
            if self._store.attributes(element):
                self._report(
                    "5.1", path,
                    "a simple-typed element must not have attributes")
        else:
            self._check_attributes(element, compiled.attributes, path)
        if compiled.simple_type is not None:
            self._check_simple_value(element, compiled.simple_type, path)
        else:
            self._check_complex_children(element, compiled, path)

    # -- item 5.1.1 ---------------------------------------------------------

    def _check_simple_value(self, element: Ref,
                            simple: SimpleType, path: str) -> None:
        store = self._store
        children = store.children(element)
        if len(children) != 1 or store.node_kind(children[0]) != "text":
            self._report(
                "5.1.1", path,
                "a simple-typed element must have exactly one text child")
            return
        text = children[0]
        self._mark_seen(text)
        self._check_text_node(text, element, path)
        if not simple.validate(store.string_value(text)):
            self._report(
                "5.1.1", path,
                f"text {store.string_value(text)!r} is not a valid "
                f"{simple.type_name}")

    def _check_text_node(self, text: Ref, parent: Ref,
                         path: str) -> None:
        store = self._store
        if not self._same_node(store.parent(text), parent):
            self._report("5.1.1", path, "text node's parent is wrong")
        if store.type_name(text) != UNTYPED_ATOMIC_NAME:
            self._report(
                "5.1.1", path,
                "text node's type must be xdt:untypedAtomic")
        self._check_base_uri(text, path, item="5.1.1")

    # -- item 5.3.1 ---------------------------------------------------------

    def _check_attributes(self, element: Ref,
                          declared: dict[str, CompiledType],
                          path: str) -> None:
        store = self._store
        present: dict[str, Ref] = {}
        for attribute in store.attributes(element):
            if store.node_kind(attribute) != "attribute":
                self._report(
                    "5.3.1", path,
                    f"non-attribute node {attribute!r} in attributes()")
                continue
            self._mark_seen(attribute)
            name = store.node_name(attribute)
            local = name.local if name is not None else ""
            if local in present:
                self._report("5.3.1", path,
                             f"duplicate attribute {local!r}")
                continue
            present[local] = attribute
        # The automorphism σ: same name sets, order free.
        if set(present) != set(declared):
            self._report(
                "5.3.1", path,
                f"attribute names {sorted(present)} do not match the "
                f"declared {sorted(declared)}")
            return
        for local, attribute in present.items():
            attribute_type = declared[local]
            if not self._same_node(store.parent(attribute), element):
                self._report("5.3.1", path,
                             f"attribute {local!r} has the wrong parent")
            self._check_base_uri(attribute, path, item="5.3.1")
            expected_type = attribute_type.type_name
            type_name = store.type_name(attribute)
            if type_name != expected_type:
                self._report(
                    "5.3.1", path,
                    f"attribute {local!r} type accessor must be "
                    f"{expected_type.lexical}")
            simple = attribute_type.simple_type
            if not simple.validate(store.string_value(attribute)):
                self._report(
                    "5.3.1", path,
                    f"attribute {local}={store.string_value(attribute)!r} "
                    f"is not a valid {simple.type_name}")

    # -- items 5.4.x ----------------------------------------------------------

    def _check_complex_children(self, element: Ref,
                                compiled: CompiledType,
                                path: str) -> None:
        store = self._store
        children = store.children(element)
        texts = [c for c in children if store.node_kind(c) == "text"]
        elements = [c for c in children
                    if store.node_kind(c) == "element"]
        strays = [c for c in children
                  if store.node_kind(c) not in ("text", "element")]
        for stray in strays:
            self._report(
                "7", path, f"unexpected node {stray!r} among children")

        model = compiled.model
        if model is None:
            # Item 5.4.1.
            if elements:
                self._report(
                    "5.4.1", path,
                    "element children where the type has empty content")
            if compiled.mixed:
                # 5.4.1.1: () or a single text node.
                if len(texts) > 1:
                    self._report(
                        "5.4.1.1", path,
                        "empty mixed content allows at most one text node")
                for text in texts:
                    self._mark_seen(text)
                    self._check_text_node(text, element, path)
            elif texts:
                # 5.4.1.2.
                self._report(
                    "5.4.1.2", path,
                    "text content where mixed is false")
            return

        # Item 5.4.2: children are roots of a tree sequence.
        if compiled.mixed:
            # 5.4.2.2: no two adjacent text nodes.
            for first, second in zip(children, children[1:]):
                if store.node_kind(first) == "text" and \
                        store.node_kind(second) == "text":
                    self._report(
                        "5.4.2.2", path, "adjacent text nodes")
            for text in texts:
                self._mark_seen(text)
                self._check_text_node(text, element, path)
        elif texts:
            # 5.4.2.1: children(end) = roots(ss) — no text at all.
            self._report(
                "5.4.2.1", path,
                "text children where mixed is false")

        # Item 5.4.2.3: the ss sequence decomposes per the group.
        names = [store.local_name(e) for e in elements]
        if not model.matches(names):
            self._report("5.4.2.3", path, model.explain(names))
        counters: dict[str, int] = {}
        for child in elements:
            local = store.local_name(child)
            counters[local] = counters.get(local, 0) + 1
            child_path = f"{path}/{local}[{counters[local]}]"
            if not model.knows(local):
                continue  # already reported by matches()
            declaration, child_type = compiled.child(local)
            # Requirements "starting from item 4" apply recursively.
            self._check_element(child, declaration, child_type,
                                child_path)

    # -- item 7 ------------------------------------------------------------

    def _check_no_other_nodes(self, document: Ref) -> None:
        """Item 7: every node reachable in the tree must be one the
        requirements demanded (i.e. visited by the checks above)."""
        if self._violations:
            # An invalid tree already fails; unvisited nodes below the
            # failure point would only produce noise.
            return
        self._count_check("7")
        store = self._store

        def walk(ref: Ref, path: str) -> None:
            if store.node_key(ref) not in self._seen:
                self._report(
                    "7", path,
                    f"node {ref!r} is not required by any requirement")
            for attribute in store.attributes(ref):
                if store.node_key(attribute) not in self._seen:
                    self._report(
                        "7", path, f"extra attribute node {attribute!r}")
            for index, child in enumerate(store.children(ref), start=1):
                walk(child, f"{path}/*[{index}]")

        walk(document, "")


def check_conformance(document: "DocumentNode | NodeStore",
                      schema: DocumentSchema) -> list[Violation]:
    """Convenience wrapper: all Section 6.2 violations of *document*
    (a tree node or any ``NodeStore``)."""
    return ConformanceChecker(schema).check(document)


def conforms(document: "DocumentNode | NodeStore",
             schema: DocumentSchema) -> bool:
    """True iff *document* is an S-tree for *schema*."""
    return ConformanceChecker(schema).conforms(document)
