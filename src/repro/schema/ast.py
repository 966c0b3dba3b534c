"""Abstract syntax of element declarations, types and schemas (§2–§3).

The classes here mirror the paper's syntactic domains one-for-one:

========================  =============================================
Paper domain              Class
========================  =============================================
ElementDeclaration        :class:`ElementDeclaration`
RepetitionFactor          :class:`RepetitionFactor`
GroupDefinition           :class:`GroupDefinition`
CombinationFactor         :class:`CombinationFactor`
AttributeDeclarations     :class:`AttributeDeclarations`
Type (simple content)     :class:`SimpleContentType`
Type (complex content)    :class:`ComplexContentType`
TypeName                  :class:`TypeName`
AnonymousTypeDefinition   an inline :class:`SimpleContentType`/
                          :class:`ComplexContentType`/
                          :class:`InlineSimpleType`
DocumentSchema            :class:`DocumentSchema`
========================  =============================================

Footnote 1 of the paper notes that a local group definition may itself
be a group definition; we support that nesting as the documented
extension (the Section 6.2 checker handles the paper's flat core, the
general content-model matcher handles nesting).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union as TypingUnion

from repro.errors import SchemaError, TypeUsageError
from repro.xmlio.chars import is_ncname
from repro.xmlio.qname import QName
from repro.xsdtypes.base import SimpleType
from repro.xsdtypes.registry import BUILTINS, TypeRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.schema.compiled import CompiledType

#: The distinguished maximum, ``Union(NatNumber, {"unbounded"})``.
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class RepetitionFactor:
    """``Pair(Minimum, Maximum)`` — the (minOccurs, maxOccurs) pair."""

    minimum: int = 1
    maximum: int | str = 1

    def __post_init__(self) -> None:
        if self.minimum < 0:
            raise SchemaError("minOccurs must be a natural number")
        if self.maximum != UNBOUNDED:
            if not isinstance(self.maximum, int) or self.maximum < 0:
                raise SchemaError(
                    "maxOccurs must be a natural number or 'unbounded'")
            if self.maximum < self.minimum:
                raise SchemaError(
                    f"maxOccurs {self.maximum} < minOccurs {self.minimum}")

    @property
    def unbounded(self) -> bool:
        return self.maximum == UNBOUNDED

    def permits(self, count: int) -> bool:
        """True iff *count* occurrences satisfy this factor."""
        if count < self.minimum:
            return False
        return self.unbounded or count <= self.maximum

    def as_pair(self) -> tuple[int, int | str]:
        return (self.minimum, self.maximum)

    def __repr__(self) -> str:
        return f"({self.minimum}, {self.maximum})"


#: The default repetition factor (minOccurs=1, maxOccurs=1).
ONCE = RepetitionFactor(1, 1)


class CombinationFactor(enum.Enum):
    """``Enumeration("sequence", "choice")``."""

    SEQUENCE = "sequence"
    CHOICE = "choice"

    def __repr__(self) -> str:
        return f"CombinationFactor.{self.name}"


@dataclass(frozen=True)
class TypeName:
    """A reference to a named (simple or complex) type."""

    qname: QName

    def __repr__(self) -> str:
        return f"TypeName({self.qname.lexical})"


@dataclass(frozen=True)
class InlineSimpleType:
    """An anonymous simple type defined inline (restriction/list/union).

    The paper assumes all simple types are predefined and named; inline
    simple types are supported as a documented extension because XSD
    uses them pervasively.
    """

    simple_type: SimpleType

    def __repr__(self) -> str:
        return f"InlineSimpleType({self.simple_type.type_name})"


@dataclass(frozen=True)
class ElementDeclaration:
    """``Tuple(ElemName, Type, RepetitionFactor, NillIndicator)``."""

    name: str
    type: "TypeRef"
    repetition: RepetitionFactor = ONCE
    nillable: bool = False

    def __post_init__(self) -> None:
        if not is_ncname(self.name):
            raise SchemaError(f"invalid element name {self.name!r}")

    def as_tuple(self) -> tuple:
        """The formal 4-tuple of the paper."""
        return (self.name, self.type, self.repetition, self.nillable)

    def __repr__(self) -> str:
        return (f"ElementDeclaration({self.name!r}, {self.type!r}, "
                f"{self.repetition!r}, nillable={self.nillable})")


GroupMember = TypingUnion[ElementDeclaration, "GroupDefinition"]


@dataclass(frozen=True)
class AllGroup:
    """An *all option definition* (footnote 2 of the paper).

    Children may appear in any order; per XSD 1.0 every member is an
    element declaration occurring at most once, and the group itself
    is not repeatable.
    """

    members: tuple[ElementDeclaration, ...] = ()
    repetition: RepetitionFactor = ONCE

    def __post_init__(self) -> None:
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise SchemaError(
                f"element names in an all group must differ: {names}")
        for member in self.members:
            if not isinstance(member, ElementDeclaration):
                raise SchemaError(
                    "an all group may only hold element declarations")
            if member.repetition.maximum not in (0, 1):
                raise SchemaError(
                    "all-group members may occur at most once")
        if self.repetition.as_pair() not in ((0, 1), (1, 1)):
            raise SchemaError("an all group itself is not repeatable")

    @property
    def empty_content(self) -> bool:
        return not self.members

    @property
    def is_flat(self) -> bool:
        return True

    def element_declarations(self) -> Iterator[ElementDeclaration]:
        yield from self.members

    def __repr__(self) -> str:
        return f"AllGroup({len(self.members)} members)"


@dataclass(frozen=True)
class GroupDefinition:
    """``Tuple(Seq(LocalGroupDefinition), CombinationFactor,
    RepetitionFactor)``.

    A group with no members has the paper's *empty content*, in which
    case the combination and repetition factors are meaningless.
    """

    members: tuple[GroupMember, ...] = ()
    combination: CombinationFactor = CombinationFactor.SEQUENCE
    repetition: RepetitionFactor = ONCE

    def __post_init__(self) -> None:
        names = [m.name for m in self.members
                 if isinstance(m, ElementDeclaration)]
        if len(set(names)) != len(names):
            raise SchemaError(
                "element names in a group must be pairwise different: "
                f"{names}")

    @property
    def empty_content(self) -> bool:
        return not self.members

    @property
    def is_flat(self) -> bool:
        """True iff every member is an element declaration (paper core)."""
        return all(isinstance(m, ElementDeclaration) for m in self.members)

    def element_declarations(self) -> Iterator[ElementDeclaration]:
        """All element declarations in the group, recursively."""
        for member in self.members:
            if isinstance(member, ElementDeclaration):
                yield member
            else:
                yield from member.element_declarations()

    def __repr__(self) -> str:
        return (f"GroupDefinition({len(self.members)} members, "
                f"{self.combination.value}, {self.repetition!r})")


@dataclass(frozen=True)
class AttributeDeclarations:
    """``FM(AttrName, SimpleTypeName)`` — an ordered finite mapping."""

    items: tuple[tuple[str, "TypeName | InlineSimpleType"], ...] = ()

    def __post_init__(self) -> None:
        names = [name for name, _ in self.items]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {names}")
        for name, _ in self.items:
            if not is_ncname(name):
                raise SchemaError(f"invalid attribute name {name!r}")

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __iter__(self) -> Iterator[tuple[str, "TypeName | InlineSimpleType"]]:
        return iter(self.items)

    def names(self) -> tuple[str, ...]:
        """``dom(atds)`` — the declared attribute names, in order."""
        return tuple(name for name, _ in self.items)

    def type_of(self, name: str) -> "TypeName | InlineSimpleType":
        for item_name, type_ref in self.items:
            if item_name == name:
                return type_ref
        raise KeyError(name)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}: {t!r}" for n, t in self.items)
        return f"AttributeDeclarations({body})"


#: The empty attribute declaration mapping.
NO_ATTRIBUTES = AttributeDeclarations()


@dataclass(frozen=True)
class SimpleContentType:
    """A complex type with simple content: a simple type plus attributes.

    Example 5 of the paper: a ``xsd:decimal`` value carrying a
    ``currency`` attribute.
    """

    base: "TypeName | InlineSimpleType"
    attributes: AttributeDeclarations = NO_ATTRIBUTES

    def __repr__(self) -> str:
        return f"SimpleContentType({self.base!r}, {self.attributes!r})"


@dataclass(frozen=True)
class ComplexContentType:
    """A complex type with complex content: ``(mid, leds, atds)``.

    ``group`` is the local element declarations (``leds``); ``None``
    stands for the paper's attribute-only variant ``(mid, atds)``.
    A present group with no members is the *empty content* case 5.4.1.
    """

    mixed: bool = False
    group: "GroupDefinition | AllGroup | None" = None
    attributes: AttributeDeclarations = NO_ATTRIBUTES

    def __repr__(self) -> str:
        return (f"ComplexContentType(mixed={self.mixed}, "
                f"group={self.group!r}, attributes={self.attributes!r})")


ComplexType = TypingUnion[SimpleContentType, ComplexContentType]
TypeRef = TypingUnion[TypeName, SimpleContentType, ComplexContentType,
                      InlineSimpleType]


class DocumentSchema:
    """``Pair(GlobElementDeclaration, ComplexTypeDefinitionSet)`` (§3).

    A schema has exactly one global element declaration (the paper's
    single-root restriction) and a finite mapping ``ctd`` of complex
    type names to definitions.  ``registry`` resolves simple type
    names; it defaults to the builtin registry.  Construction compiles
    the schema once (:meth:`check_type_usage`); its readers ask
    :meth:`type_of` and :meth:`type_at`, never :meth:`resolve`.
    """

    def __init__(self, root_element: ElementDeclaration,
                 complex_types: dict[QName, ComplexType] | None = None,
                 target_namespace: str = "",
                 registry: TypeRegistry | None = None) -> None:
        self.root_element = root_element
        self.complex_types: dict[QName, ComplexType] = dict(
            complex_types or {})
        self.target_namespace = target_namespace
        self.registry = registry or BUILTINS
        self.check_type_usage()

    # -- resolution -----------------------------------------------------

    def resolve(self, ref: TypeRef) -> "SimpleType | ComplexType":
        """Resolve a type reference to a simple type or a complex type.

        Implements the §3 requirement: a named type must be in
        ``dom(ctd)`` or a simple type name; anonymous definitions stand
        for themselves.
        """
        if isinstance(ref, (SimpleContentType, ComplexContentType)):
            return ref
        if isinstance(ref, InlineSimpleType):
            return ref.simple_type
        if isinstance(ref, TypeName):
            if ref.qname in self.complex_types:
                return self.complex_types[ref.qname]
            if ref.qname in self.registry:
                type_ = self.registry.lookup(ref.qname)
                if isinstance(type_, SimpleType):
                    return type_
            raise TypeUsageError(
                f"type {ref.qname.lexical} is neither in dom(ctd) nor "
                "a simple type name")
        raise TypeUsageError(f"unrecognized type reference {ref!r}")

    def is_simple_ref(self, ref: TypeRef) -> bool:
        """True iff *ref* resolves to a simple type."""
        return isinstance(self.resolve(ref), SimpleType)

    # -- §3 type-usage requirement: the compiled form ---------------------

    def check_type_usage(self) -> None:
        """Compile the schema, which verifies that every type reference
        resolves and that attribute types and simple-content bases are
        simple (:func:`~repro.schema.compiled.compile_types`)."""
        # Imported here: the compiled form imports this module.
        from repro.schema.compiled import compile_types
        self._types = compile_types(self)

    def type_of(self, declaration: ElementDeclaration) -> "CompiledType":
        """The compiled type of one of this schema's declarations."""
        return self._types[id(declaration)]

    def type_at(self, names: list[str]) -> "CompiledType | None":
        """The compiled type of the element path *names* (local names
        from the root element down), or ``None`` where no declaration
        types that path — one content-model step per level."""
        root = self.root_element
        if not names or names[0] != root.name:
            return None
        compiled = self.type_of(root)
        for name in names[1:]:
            if compiled.model is None or not compiled.model.knows(name):
                return None
            compiled = compiled.child(name)[1]
        return compiled

    def __repr__(self) -> str:
        return (f"DocumentSchema(root={self.root_element.name!r}, "
                f"{len(self.complex_types)} complex types)")
