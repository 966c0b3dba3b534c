"""The node classes of Section 5 with their ten accessors.

The paper's class hierarchy: ``Node`` is the base class with accessors
``base-uri``, ``node-kind``, ``node-name``, ``parent``, ``string-value``,
``typed-value``, ``type``, ``children``, ``attributes`` and ``nilled``;
``Document``, ``Element``, ``Attribute`` and ``Text`` are subclasses.

Nodes are *identified* objects: equality is identity, matching the
paper's treatment of node identifiers in the state algebra.  Every node
belongs to exactly one :class:`~repro.algebra.state.StateAlgebra`,
which allocates its identifier and enforces the sort structure; nodes
are therefore constructed through the algebra's factory methods, not
directly.

Accessor values follow Section 6.1 exactly; in particular the accessors
that a node kind fixes to the empty sequence (e.g. ``attributes`` of a
text node) really return the empty sequence rather than raising.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import ModelError
from repro.xmlio.qname import QName, xdt, xsd
from repro.xsdtypes.base import AtomicValue, SimpleType, UNTYPED_ATOMIC
from repro.xsdtypes.sequence import Sequence

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from repro.algebra.state import StateAlgebra

#: The ``type`` accessor value of untyped elements (§6.2 item 4).
ANY_TYPE_NAME = xsd("anyType")

#: The ``type`` accessor value of text nodes (§6.2 item 5.1.1).
UNTYPED_ATOMIC_NAME = xdt("untypedAtomic")


class Node:
    """Base class: a uniquely identified node of the data model."""

    __slots__ = ("_algebra", "_identifier", "_parent", "_base_uri")

    kind = "node"

    # Accessor fields a node kind fixes to empty; other kinds use slots.
    _name: Optional[QName] = None
    _children: tuple = ()
    _attributes: tuple = ()
    _type_name: Optional[QName] = None
    _nilled: Optional[bool] = None

    def __init__(self, algebra: "StateAlgebra", identifier: int) -> None:
        self._algebra = algebra
        self._identifier = identifier
        self._parent: Optional[Node] = None
        self._base_uri: Optional[str] = None

    # -- identity ----------------------------------------------------------

    @property
    def identifier(self) -> int:
        """The node identifier allocated by the state algebra."""
        return self._identifier

    @property
    def algebra(self) -> "StateAlgebra":
        return self._algebra

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash((id(self._algebra), self._identifier))

    # -- the ten accessors -----------------------------------------------

    def base_uri(self) -> Sequence[str]:
        """``base-uri``: empty or one-element sequence of anyURI."""
        if self._base_uri is None:
            return Sequence.empty()
        return Sequence.of(self._base_uri)

    def node_kind(self) -> str:
        """``node-kind``: one of document/element/attribute/text."""
        return self.kind

    def node_name(self) -> Sequence[QName]:
        """``node-name``: empty or one-element sequence of QName."""
        return Sequence.empty()

    def parent(self) -> Sequence["Node"]:
        """``parent``: empty or one-element sequence."""
        if self._parent is None:
            return Sequence.empty()
        return Sequence.of(self._parent)

    def string_value(self) -> str:
        """``string-value``: always a string."""
        raise NotImplementedError

    def typed_value(self) -> Sequence[AtomicValue]:
        """``typed-value``: a sequence of zero or more atomic values."""
        raise NotImplementedError

    def type(self) -> Sequence[QName]:
        """``type``: empty or one-element sequence of type names."""
        return Sequence.empty()

    def children(self) -> Sequence["Node"]:
        """``children``: zero or more nodes."""
        return Sequence.empty()

    def attributes(self) -> Sequence["Node"]:
        """``attributes``: zero or more nodes."""
        return Sequence.empty()

    def nilled(self) -> Sequence[bool]:
        """``nilled``: empty or one-element sequence of booleans."""
        return Sequence.empty()

    # -- conveniences beyond the paper's accessor set ----------------------

    def parent_or_none(self) -> Optional["Node"]:
        return self._parent

    def root(self) -> "Node":
        """The topmost ancestor (the document node of a complete tree)."""
        node: Node = self
        while node._parent is not None:
            node = node._parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        """Strict ancestors, nearest first."""
        node = self._parent
        while node is not None:
            yield node
            node = node._parent

    def __repr__(self) -> str:
        return f"{type(self).__name__}#{self._identifier}"


class DocumentNode(Node):
    """The document information item: one element child, no name/type.

    Per Section 6.1, ``node-name``, ``parent``, ``type``, ``attributes``
    and ``nilled`` are empty; per Section 6.2 item 1, the string value
    is the string value of the single child.
    """

    __slots__ = ("_children",)

    kind = "document"

    def __init__(self, algebra: "StateAlgebra", identifier: int) -> None:
        super().__init__(algebra, identifier)
        self._children: list[Node] = []

    def children(self) -> Sequence[Node]:
        return Sequence(self._children)

    def string_value(self) -> str:
        return "".join(child.string_value() for child in self._children)

    def typed_value(self) -> Sequence[AtomicValue]:
        return Sequence.of(AtomicValue(self.string_value(), UNTYPED_ATOMIC))

    def document_element(self) -> "ElementNode":
        """The single element child required by Section 3."""
        for child in self._children:
            if isinstance(child, ElementNode):
                return child
        raise ModelError("document node has no element child")

    def __repr__(self) -> str:
        return f"DocumentNode#{self._identifier}"


class ElementNode(Node):
    """An element information item."""

    __slots__ = ("_name", "_children", "_attributes", "_type_name",
                 "_simple_type", "_nilled")

    kind = "element"

    def __init__(self, algebra: "StateAlgebra", identifier: int,
                 name: QName) -> None:
        super().__init__(algebra, identifier)
        self._name = name
        self._children: list[Node] = []
        self._attributes: list[AttributeNode] = []
        self._type_name: QName = ANY_TYPE_NAME
        self._simple_type: Optional[SimpleType] = None
        self._nilled = False

    def node_name(self) -> Sequence[QName]:
        return Sequence.of(self._name)

    def type(self) -> Sequence[QName]:
        return Sequence.of(self._type_name)

    def children(self) -> Sequence[Node]:
        return Sequence(self._children)

    def attributes(self) -> Sequence[Node]:
        return Sequence(self._attributes)

    def nilled(self) -> Sequence[bool]:
        return Sequence.of(self._nilled)

    def string_value(self) -> str:
        """Concatenated string values of descendant text nodes (XDM
        Section 6.2.2)."""
        parts: list[str] = []
        stack: list[Node] = list(reversed(self._children))
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                parts.append(node.string_value())
            elif isinstance(node, ElementNode):
                stack.extend(reversed(node._children))
        return "".join(parts)

    def typed_value(self) -> Sequence[AtomicValue]:
        """Typed value per the XDM rules.

        * nilled elements have the empty typed value;
        * simple-typed elements (incl. simple content) parse their
          string value against the simple type;
        * untyped (``xs:anyType``) or mixed elements yield one
          untypedAtomic item;
        * an element annotated with a complex type whose content holds
          element children but no simple type has no typed value (an
          error in XDM).
        """
        if self._nilled:
            return Sequence.empty()
        if self._simple_type is not None:
            return Sequence(self._simple_type.typed_value(
                self.string_value()))
        if (self._type_name != ANY_TYPE_NAME
                and any(isinstance(child, ElementNode)
                        for child in self._children)):
            raise ModelError(
                f"element {self._name.lexical} has element-only content; "
                "its typed value is undefined")
        return Sequence.of(AtomicValue(self.string_value(), UNTYPED_ATOMIC))

    # -- element-specific helpers -----------------------------------------

    @property
    def name(self) -> QName:
        return self._name

    def element_children(self) -> list["ElementNode"]:
        return [c for c in self._children if isinstance(c, ElementNode)]

    def attribute_by_name(self, name: QName) -> "AttributeNode | None":
        for attribute in self._attributes:
            if attribute.name == name:
                return attribute
        return None

    def __repr__(self) -> str:
        return f"ElementNode#{self._identifier}({self._name.lexical})"


class AttributeNode(Node):
    """An attribute information item.

    Per Section 6.1, ``children``, ``attributes`` and ``nilled`` are
    empty sequences.
    """

    __slots__ = ("_name", "_value", "_type_name", "_simple_type")

    kind = "attribute"

    def __init__(self, algebra: "StateAlgebra", identifier: int,
                 name: QName, value: str) -> None:
        super().__init__(algebra, identifier)
        self._name = name
        self._value = value
        self._type_name: QName = UNTYPED_ATOMIC_NAME
        self._simple_type: Optional[SimpleType] = None

    def node_name(self) -> Sequence[QName]:
        return Sequence.of(self._name)

    def type(self) -> Sequence[QName]:
        return Sequence.of(self._type_name)

    def string_value(self) -> str:
        return self._value

    def typed_value(self) -> Sequence[AtomicValue]:
        if self._simple_type is not None:
            return Sequence(self._simple_type.typed_value(self._value))
        return Sequence.of(AtomicValue(self._value, UNTYPED_ATOMIC))

    @property
    def name(self) -> QName:
        return self._name

    def __repr__(self) -> str:
        return f"AttributeNode#{self._identifier}({self._name.lexical})"


class TextNode(Node):
    """A text node.

    Per Section 6.1, ``node-name``, ``children``, ``attributes`` and
    ``nilled`` are empty; per Section 6.2, its type is
    ``xdt:untypedAtomic``.
    """

    __slots__ = ("_value",)

    kind = "text"

    _type_name = UNTYPED_ATOMIC_NAME

    def __init__(self, algebra: "StateAlgebra", identifier: int,
                 value: str) -> None:
        super().__init__(algebra, identifier)
        self._value = value

    def type(self) -> Sequence[QName]:
        return Sequence.of(UNTYPED_ATOMIC_NAME)

    def string_value(self) -> str:
        return self._value

    def typed_value(self) -> Sequence[AtomicValue]:
        return Sequence.of(AtomicValue(self._value, UNTYPED_ATOMIC))

    def __repr__(self) -> str:
        preview = (self._value if len(self._value) <= 20
                   else self._value[:17] + "...")
        return f"TextNode#{self._identifier}({preview!r})"
