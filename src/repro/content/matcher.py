"""The public content-model matching facade.

``ContentModel`` wraps a group definition and answers whether a
sequence of child-element names is permitted, with the derivative
matcher (counter-based, no expansion).
"""

from __future__ import annotations

from typing import Iterable

from repro.content.derivatives import DerivativeMatcher
from repro.content.particles import Particle, compile_group
from repro.schema.ast import ElementDeclaration, GroupDefinition


class ContentModel:
    """Compiled content model of one complex type's group."""

    def __init__(self, group: GroupDefinition) -> None:
        self.group = group
        self.particle: Particle = compile_group(group)
        self._matcher = DerivativeMatcher(self.particle)
        self._declarations: dict[str, ElementDeclaration] = {
            eld.name: eld for eld in group.element_declarations()}

    # -- matching ----------------------------------------------------------

    def matches(self, names: Iterable[str]) -> bool:
        """True iff the child-name sequence satisfies the model."""
        return self._matcher.matches(names)

    def explain(self, names: list[str]) -> str:
        """Human-readable reason a sequence is (not) accepted."""
        return self._matcher.explain_failure(names)

    def declaration_for(self, name: str) -> ElementDeclaration:
        """The element declaration a child with *name* is attributed to."""
        return self._declarations[name]

    def knows(self, name: str) -> bool:
        return name in self._declarations

    def __repr__(self) -> str:
        return f"ContentModel({self.particle!r})"
