"""The state algebra of Section 6.1.

Each database state is a many-sorted algebra: for every node class ``C``
there is a carrier set ``A_C`` of node identifiers, the carriers are
pairwise disjoint, and ``A_Node`` is their union.  Accessor functions
are defined on those carriers.

:class:`StateAlgebra` realizes this: it owns every node it creates,
allocates identifiers from a single counter (so the carriers are
disjoint by construction and membership is checkable), and exposes the
mutation operations — attaching children and attributes — that keep the
``parent``/``children``/``attributes`` accessor values mutually
consistent.  Documents evolve between states by these mutations, which
is exactly the paper's motivation for modelling the database (not a
single frozen document).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import AlgebraError
from repro.xmlio.qname import QName
from repro.xsdtypes.base import SimpleType
from repro.xdm.node import (
    AttributeNode,
    DocumentNode,
    ElementNode,
    Node,
    TextNode,
)

_KIND_CLASSES = {
    "document": DocumentNode,
    "element": ElementNode,
    "attribute": AttributeNode,
    "text": TextNode,
}


class StateAlgebra:
    """One database state: disjoint node carriers plus accessors."""

    def __init__(self) -> None:
        self._next_identifier = 0
        self._carriers: dict[str, list[Node]] = {
            kind: [] for kind in _KIND_CLASSES}

    # -- carriers ---------------------------------------------------------

    def carrier(self, kind: str) -> tuple[Node, ...]:
        """The carrier set ``A_kind`` (e.g. ``A_Element``)."""
        try:
            return tuple(self._carriers[kind])
        except KeyError:
            raise AlgebraError(f"unknown node sort {kind!r}") from None

    def nodes(self) -> Iterator[Node]:
        """``A_Node``: the union of all carriers."""
        for carrier in self._carriers.values():
            yield from carrier

    def node_count(self) -> int:
        return sum(len(carrier) for carrier in self._carriers.values())

    def owns(self, node: Node) -> bool:
        """True iff *node* was created by this algebra."""
        return node.algebra is self

    # -- node construction ---------------------------------------------------

    def _allocate(self) -> int:
        identifier = self._next_identifier
        self._next_identifier += 1
        return identifier

    def create_document(self, base_uri: str | None = None) -> DocumentNode:
        """A new document node (Section 6.1: name/parent/type/attributes/
        nilled are empty by construction)."""
        node = DocumentNode(self, self._allocate())
        node._base_uri = base_uri
        self._carriers["document"].append(node)
        return node

    def create_element(self, name: QName) -> ElementNode:
        node = ElementNode(self, self._allocate(), name)
        self._carriers["element"].append(node)
        return node

    def create_attribute(self, name: QName, value: str) -> AttributeNode:
        node = AttributeNode(self, self._allocate(), name, value)
        self._carriers["attribute"].append(node)
        return node

    def create_text(self, value: str) -> TextNode:
        node = TextNode(self, self._allocate(), value)
        self._carriers["text"].append(node)
        return node

    # -- structural mutation --------------------------------------------------

    def _check_attachable(self, parent: Node, child: Node) -> None:
        if not self.owns(parent) or not self.owns(child):
            raise AlgebraError("nodes belong to a different state algebra")
        if child.parent_or_none() is not None:
            raise AlgebraError(f"{child!r} already has a parent")
        if child is parent:
            raise AlgebraError("a node cannot be its own child")

    def append_child(self, parent: Node, child: Node) -> None:
        """Attach *child* as the last child of *parent*.

        Only document and element nodes may have children; a document
        node may have a single element child (Section 3); attribute
        nodes are attached with :meth:`attach_attribute` instead.
        """
        self.insert_child(parent, len(self._children_list(parent)), child)

    def insert_child(self, parent: Node, index: int, child: Node) -> None:
        """Attach *child* at *index* among *parent*'s children."""
        self._check_attachable(parent, child)
        if isinstance(child, AttributeNode):
            raise AlgebraError(
                "attributes are attached with attach_attribute")
        if isinstance(child, DocumentNode):
            raise AlgebraError("a document node cannot be a child")
        children = self._children_list(parent)
        if isinstance(parent, DocumentNode):
            if not isinstance(child, ElementNode):
                raise AlgebraError(
                    "the document node's child must be an element "
                    "(Section 3 single-root model)")
            if any(isinstance(c, ElementNode) for c in children):
                raise AlgebraError(
                    "the document node already has an element child")
        if not 0 <= index <= len(children):
            raise AlgebraError(
                f"index {index} out of range 0..{len(children)}")
        children.insert(index, child)
        child._parent = parent
        if child._base_uri is None:
            child._base_uri = parent._base_uri

    def remove_child(self, parent: Node, child: Node) -> None:
        """Detach *child* from *parent*."""
        children = self._children_list(parent)
        try:
            children.remove(child)
        except ValueError:
            raise AlgebraError(f"{child!r} is not a child of {parent!r}") \
                from None
        child._parent = None

    def attach_attribute(self, element: ElementNode,
                         attribute: AttributeNode) -> None:
        """Attach *attribute* to *element* (appended to the attribute
        sequence)."""
        self._check_attachable(element, attribute)
        if not isinstance(element, ElementNode):
            raise AlgebraError("only elements carry attributes")
        names = {a.name for a in element._attributes}
        if attribute.name in names:
            raise AlgebraError(
                f"duplicate attribute {attribute.name.lexical}")
        element._attributes.append(attribute)
        attribute._parent = element
        if attribute._base_uri is None:
            attribute._base_uri = element._base_uri

    def set_attribute_value(self, attribute: AttributeNode,
                            value: str) -> None:
        """Replace the string content of an attached attribute in place
        (the update form of ``set_attribute``: same node identifier,
        new ``string-value``)."""
        if not self.owns(attribute):
            raise AlgebraError("attribute belongs to a different algebra")
        attribute._value = value

    @staticmethod
    def _children_list(parent: Node) -> list[Node]:
        if isinstance(parent, DocumentNode):
            return parent._children
        if isinstance(parent, ElementNode):
            return parent._children
        raise AlgebraError(
            f"{parent!r} cannot have children (kind {parent.kind!r})")

    # -- typing annotations --------------------------------------------------

    def annotate_element(self, element: ElementNode,
                         type_name: QName,
                         simple_type: SimpleType | None = None,
                         nilled: bool = False) -> None:
        """Set the ``type`` and ``nilled`` accessor values of an element."""
        if not self.owns(element):
            raise AlgebraError("element belongs to a different algebra")
        element._type_name = type_name
        element._simple_type = simple_type
        element._nilled = nilled

    def annotate_attribute(self, attribute: AttributeNode,
                           type_name: QName,
                           simple_type: SimpleType | None = None) -> None:
        """Set the ``type`` accessor value of an attribute."""
        if not self.owns(attribute):
            raise AlgebraError("attribute belongs to a different algebra")
        attribute._type_name = type_name
        attribute._simple_type = simple_type

    # -- invariants --------------------------------------------------------

    def check_sort_disjointness(self) -> None:
        """Verify the carriers are pairwise disjoint (they are by
        construction; this re-checks the invariant for tests)."""
        seen: dict[int, str] = {}
        for kind, carrier in self._carriers.items():
            for node in carrier:
                if node.identifier in seen:
                    raise AlgebraError(
                        f"identifier {node.identifier} occurs in both "
                        f"{seen[node.identifier]} and {kind}")
                if not isinstance(node, _KIND_CLASSES[kind]):
                    raise AlgebraError(
                        f"node {node!r} is in the wrong carrier {kind}")
                seen[node.identifier] = kind

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{kind}:{len(carrier)}"
            for kind, carrier in self._carriers.items())
        return f"StateAlgebra({sizes})"


def build_element_tree(algebra: StateAlgebra, spec: object) -> ElementNode:
    """Build a subtree from a nested ``(name, attrs, children)`` spec.

    A convenience for tests and examples: *spec* is either a string
    (a text node is created) or a tuple ``(name, {attr: value},
    [child_spec, ...])``.
    """
    if isinstance(spec, str):
        raise AlgebraError("the root of a tree spec must be an element")
    return _build_spec(algebra, spec)


def _build_spec(algebra: StateAlgebra, spec) -> ElementNode:
    name, attrs, children = spec
    element = algebra.create_element(
        name if isinstance(name, QName) else QName("", name))
    for attr_name, value in attrs.items():
        attribute = algebra.create_attribute(
            attr_name if isinstance(attr_name, QName)
            else QName("", attr_name), value)
        algebra.attach_attribute(element, attribute)
    for child_spec in children:
        if isinstance(child_spec, str):
            algebra.append_child(element, algebra.create_text(child_spec))
        else:
            algebra.append_child(element, _build_spec(algebra, child_spec))
    return element
