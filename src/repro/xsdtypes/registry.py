"""The type registry: name → type lookup plus hierarchy queries.

A registry holds every builtin type of Section 4 and any user-defined
simple types.  Schemas consult it to resolve ``SimpleTypeName``s and the
conformance checker uses it to compute typed values.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import TypeSystemError
from repro.xmlio.qname import XSD_NAMESPACE, QName, xdt, xsd
from repro.xsdtypes.base import (
    ANY_ATOMIC_TYPE,
    ANY_SIMPLE_TYPE,
    ANY_TYPE,
    UNTYPED_ATOMIC,
    AtomicType,
    SimpleType,
    TypeDefinition,
)
from repro.xsdtypes.derived import build_derived_types
from repro.xsdtypes.facets import WhiteSpaceFacet
from repro.xsdtypes.primitives import PRIMITIVE_SPECS


class TypeRegistry:
    """A mutable mapping of qualified names to type definitions."""

    def __init__(self) -> None:
        self._types: dict[QName, TypeDefinition] = {}

    # -- population ------------------------------------------------------

    def register(self, type_: TypeDefinition) -> TypeDefinition:
        """Add a named type; re-registering the same name is an error."""
        if type_.name is None:
            raise TypeSystemError("cannot register an anonymous type")
        if type_.name in self._types:
            raise TypeSystemError(
                f"type {type_.name.lexical} is already registered")
        self._types[type_.name] = type_
        return type_

    def clone(self) -> "TypeRegistry":
        """A shallow copy; used to extend the builtins per schema."""
        copy = TypeRegistry()
        copy._types = dict(self._types)
        return copy

    # -- lookup ------------------------------------------------------------

    def __contains__(self, name: QName) -> bool:
        return name in self._types

    def lookup(self, name: QName) -> TypeDefinition:
        try:
            return self._types[name]
        except KeyError:
            raise TypeSystemError(
                f"unknown type {name.lexical}") from None

    def lookup_simple(self, name: QName) -> SimpleType:
        type_ = self.lookup(name)
        if not isinstance(type_, SimpleType):
            raise TypeSystemError(f"{name.lexical} is not a simple type")
        return type_

    def simple(self, local: str) -> SimpleType:
        """Shorthand: the builtin simple type ``xs:<local>``."""
        return self.lookup_simple(QName(XSD_NAMESPACE, local))

    def names(self) -> Iterator[QName]:
        return iter(self._types)

    def __len__(self) -> int:
        return len(self._types)


def builtin_registry() -> TypeRegistry:
    """Create a registry containing every Section 4 builtin type."""
    registry = TypeRegistry()
    registry.register(ANY_TYPE)
    registry.register(ANY_SIMPLE_TYPE)
    registry.register(ANY_ATOMIC_TYPE)
    registry.register(UNTYPED_ATOMIC)

    primitives: dict[QName, SimpleType] = {}
    for local, (parser, canonicalizer) in PRIMITIVE_SPECS.items():
        facets = ()
        if local == "string":
            facets = (WhiteSpaceFacet("preserve"),)
        primitive = AtomicType(
            xsd(local), ANY_ATOMIC_TYPE, facets=facets,
            parser=parser, canonicalizer=canonicalizer, primitive=True)
        primitives[primitive.name] = primitive
        registry.register(primitive)

    for derived in build_derived_types(primitives).values():
        registry.register(derived)
    return registry


#: A single shared registry of builtins; treat as read-only.
BUILTINS = builtin_registry()


def builtin(local: str) -> SimpleType:
    """The builtin simple type ``xs:<local>`` from the shared registry."""
    return BUILTINS.simple(local)


def xdt_type(local: str) -> SimpleType:
    """A builtin from the xdt namespace (``anyAtomicType``...)."""
    return BUILTINS.lookup_simple(xdt(local))
