"""The compiled form of a document schema: each type reference resolved
once.

§3 says a type reference is a name in ``dom(ctd)`` or a simple type
name (an anonymous definition stands for itself); §6.2 item 4 says the
``type`` accessor is that name, or ``xs:anyType`` for an anonymous
type.  :func:`compile_types` states both once, in the walk that checks
§3 type usage, and every reader of a schema — the mapping ``f``, the
§6.2 checker, the instance builder and the storage typing — reads the
:class:`CompiledType` of a declaration instead of resolving references
per node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TypeUsageError
from repro.xdm.node import ANY_TYPE_NAME
from repro.xsdtypes.base import SimpleType
from repro.schema.ast import (
    ElementDeclaration,
    SimpleContentType,
    TypeName,
    TypeRef,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.content.matcher import ContentModel
    from repro.schema.ast import DocumentSchema


class CompiledType:
    """One resolved type reference, as every schema reader sees it.

    * ``type_name`` — the item-4 ``type`` accessor value;
    * ``simple_type`` — the simple type driving typed-value: the type
      itself, or the base of a simple-content type (``None`` for
      complex content);
    * ``attributes`` — each declared attribute's name mapped to the
      compiled (simple) type of its reference, in declaration order;
      ``None`` for a simple type, which declares no attributes at all
      (item 5.1);
    * ``mixed`` — the mixed flag of complex content;
    * ``model`` — the type's one :class:`ContentModel`, ``None`` for
      empty content.  Its declaration map is the table of allowed
      children, read through :meth:`child`.
    """

    __slots__ = ("type_name", "simple_type", "attributes", "mixed",
                 "model", "_types")

    def __init__(self, type_name, types: dict[int, "CompiledType"]) -> None:
        self.type_name = type_name
        self.simple_type: SimpleType | None = None
        self.attributes: dict[str, CompiledType] | None = None
        self.mixed = False
        self.model: ContentModel | None = None
        self._types = types

    def child(self, name: str
              ) -> tuple[ElementDeclaration, "CompiledType"]:
        """The declaration a child named *name* is attributed to, and
        its compiled type (``model.knows(name)`` must hold)."""
        declaration = self.model.declaration_for(name)
        return declaration, self._types[id(declaration)]

    def __repr__(self) -> str:
        return f"CompiledType({self.type_name.lexical})"


def compile_types(schema: "DocumentSchema"
                  ) -> dict[int, CompiledType]:
    """Resolve every type reference of *schema* once: the compiled type
    of each element declaration, keyed by the declaration's identity.

    This is the §3 type-usage check.  It raises :class:`TypeUsageError`
    for a reference that is neither in ``dom(ctd)`` nor a simple type
    name, and for an attribute type or simple-content base that is not
    a simple type.  A named type is compiled once however often it is
    referenced (once per spelling: the item-4 value keeps the
    reference's prefix), so each complex type builds its content model
    once.
    """
    # Imported here: repro.content itself imports the schema AST, so a
    # module-level import would be circular.
    from repro.content.matcher import ContentModel
    types: dict[int, CompiledType] = {}
    compiled_refs: dict[object, CompiledType] = {}

    def compile_ref(ref: TypeRef) -> CompiledType:
        named = isinstance(ref, TypeName)
        key = (ref.qname, ref.qname.prefix) if named else id(ref)
        compiled = compiled_refs.get(key)
        if compiled is not None:
            return compiled
        resolved = schema.resolve(ref)
        compiled = compiled_refs[key] = CompiledType(
            ref.qname if named else ANY_TYPE_NAME, types)
        if isinstance(resolved, SimpleType):
            compiled.simple_type = resolved
            return compiled
        compiled.attributes = attributes = {}
        for name, attribute_ref in resolved.attributes:
            attributes[name] = compile_simple(
                attribute_ref, f"the type of attribute {name!r}")
        if isinstance(resolved, SimpleContentType):
            compiled.simple_type = compile_simple(
                resolved.base, "the simple content base").simple_type
            return compiled
        compiled.mixed = resolved.mixed
        group = resolved.group
        if group is not None and not group.empty_content:
            compiled.model = ContentModel(group)
            for declaration in group.element_declarations():
                types[id(declaration)] = compile_ref(declaration.type)
        return compiled

    def compile_simple(ref: TypeRef, what: str) -> CompiledType:
        compiled = compile_ref(ref)
        if compiled.attributes is not None:
            raise TypeUsageError(
                f"{what} must be simple, not "
                f"{compiled.type_name.lexical}")
        return compiled

    root = schema.root_element
    types[id(root)] = compile_ref(root.type)
    # Named types the root never reaches are checked too (§3 covers
    # all of dom(ctd)); one reached under any spelling is done.
    reached = {key[0] for key in compiled_refs if isinstance(key, tuple)}
    for qname in schema.complex_types:
        if qname not in reached:
            compile_ref(TypeName(qname))
    return types
