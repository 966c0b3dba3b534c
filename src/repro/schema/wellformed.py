"""Static well-formedness diagnostics for document schemas.

Beyond the hard constraints enforced at construction time (distinct
names per group, the §3 type-usage requirement), this module reports
the *soft* problems a schema author would want flagged:

* UPA violations — content models that are not 1-unambiguous
  (:func:`repro.content.competing_names`, ``maxOccurs`` unexpanded);
* unreachable particles — ``maxOccurs="0"`` declarations and groups;
* degenerate groups — empty content with a meaningless combination or
  repetition factor (the paper notes these "do not make sense");
* unused named complex types.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.ast import (
    AllGroup,
    ComplexContentType,
    DocumentSchema,
    ElementDeclaration,
    GroupDefinition,
    SimpleContentType,
    TypeName,
    TypeRef,
)


@dataclass
class SchemaIssue:
    """One diagnostic: severity ("error"/"warning"), location, message."""

    severity: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


class SchemaLinter:
    """Collects diagnostics over one document schema."""

    def __init__(self, schema: DocumentSchema) -> None:
        self._schema = schema

    def lint(self) -> list[SchemaIssue]:
        self._issues: list[SchemaIssue] = []
        self._visited: set[int] = set()
        self._used_types: set[str] = set()
        self._check_element(self._schema.root_element,
                            self._schema.root_element.name)
        for qname, definition in self._schema.complex_types.items():
            self._check_type(definition, qname.lexical)
        for qname in self._schema.complex_types:
            if qname.local not in self._used_types:
                self._issues.append(SchemaIssue(
                    "warning", qname.lexical,
                    "named complex type is never used"))
        return self._issues

    # ------------------------------------------------------------------

    def _check_element(self, declaration: ElementDeclaration,
                       location: str) -> None:
        self._check_reachable(declaration, location, "declaration")
        if isinstance(declaration.type, TypeName):
            self._used_types.add(declaration.type.qname.local)
            return  # named types are checked once, at the top level
        self._check_type(declaration.type, location)

    def _check_reachable(self, item: ElementDeclaration | GroupDefinition,
                         location: str, what: str) -> None:
        if item.repetition.maximum == 0:
            self._issues.append(SchemaIssue(
                "warning", location,
                f"maxOccurs=0 makes this {what} unusable"))

    def _check_type(self, definition: TypeRef, location: str) -> None:
        if id(definition) in self._visited:
            return
        self._visited.add(id(definition))
        if isinstance(definition, SimpleContentType):
            return
        if not isinstance(definition, ComplexContentType):
            return
        group = definition.group
        if group is None:
            return
        if isinstance(group, AllGroup):
            for member in group.members:
                self._check_element(member, f"{location}/{member.name}")
            return
        if group.empty_content:
            if group.repetition.as_pair() != (1, 1):
                self._issues.append(SchemaIssue(
                    "warning", location,
                    "repetition factor on empty content does not make "
                    "sense (paper, Section 2)"))
            return
        self._check_group(group, location)

    def _check_group(self, group: GroupDefinition, location: str) -> None:
        # Imported here: repro.content itself imports the schema AST,
        # so a module-level import would be circular.
        from repro.content import compile_group, competing_names
        names = competing_names(compile_group(group))
        if names:
            self._issues.append(SchemaIssue(
                "error", location,
                f"content model violates Unique Particle Attribution: "
                f"competing particles for {names}"))
        self._check_members(group, location)

    def _check_members(self, group: GroupDefinition, location: str) -> None:
        # UPA is decided once, on the type's whole group; a nested
        # group's conflict is already one of its conflicts.
        self._check_reachable(group, location,
                              f"{group.combination.value} group")
        for member in group.members:
            if isinstance(member, ElementDeclaration):
                self._check_element(member, f"{location}/{member.name}")
            else:
                self._check_members(member, location)


def lint_schema(schema: DocumentSchema) -> list[SchemaIssue]:
    """All diagnostics for *schema* (errors first)."""
    issues = SchemaLinter(schema).lint()
    issues.sort(key=lambda issue: (issue.severity != "error",
                                   issue.location))
    return issues
