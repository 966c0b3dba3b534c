"""Particle trees: the normal form of content models.

A :class:`~repro.schema.ast.GroupDefinition` is compiled into a small
regular-expression-like tree over element names:

* :class:`NameParticle` — one element name (a leaf),
* :class:`SequenceParticle` — ordered concatenation,
* :class:`ChoiceParticle` — alternation,
* :class:`RepeatParticle` — bounded or unbounded repetition
  (minOccurs/maxOccurs),
* :class:`EmptyParticle` — the empty content model (matches only the
  empty word).

The derivative matcher and the UPA check (:mod:`repro.content.upa`)
both work on this normal form, repetition factors unexpanded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ContentModelError
from repro.schema.ast import (
    AllGroup,
    CombinationFactor,
    ElementDeclaration,
    GroupDefinition,
    RepetitionFactor,
)


class Particle:
    """Base class of the particle tree."""

    def nullable(self) -> bool:
        """True iff this particle matches the empty word."""
        raise NotImplementedError

    def names(self) -> Iterator[str]:
        """All element names occurring in the particle."""
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyParticle(Particle):
    """Matches exactly the empty word (the paper's *empty content*)."""

    def nullable(self) -> bool:
        return True

    def names(self) -> Iterator[str]:
        return iter(())

    def __repr__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class NameParticle(Particle):
    """Matches a single child element with the given name."""

    name: str

    def nullable(self) -> bool:
        return False

    def names(self) -> Iterator[str]:
        yield self.name

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SequenceParticle(Particle):
    children: tuple[Particle, ...]

    def nullable(self) -> bool:
        return all(child.nullable() for child in self.children)

    def names(self) -> Iterator[str]:
        for child in self.children:
            yield from child.names()

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(c) for c in self.children) + ")"


@dataclass(frozen=True)
class ChoiceParticle(Particle):
    children: tuple[Particle, ...]

    def nullable(self) -> bool:
        return any(child.nullable() for child in self.children)

    def names(self) -> Iterator[str]:
        for child in self.children:
            yield from child.names()

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(c) for c in self.children) + ")"


@dataclass(frozen=True)
class AllParticle(Particle):
    """Interleave: each named item once (or optionally), any order."""

    items: tuple[tuple[str, bool], ...]  # (name, required)

    def nullable(self) -> bool:
        return not any(required for _name, required in self.items)

    def names(self) -> Iterator[str]:
        for name, _required in self.items:
            yield name

    def __repr__(self) -> str:
        body = " & ".join(name if required else f"{name}?"
                          for name, required in self.items)
        return f"({body})"


@dataclass(frozen=True)
class RepeatParticle(Particle):
    """``child{minimum, maximum}``; ``maximum=None`` means unbounded."""

    child: Particle
    minimum: int
    maximum: int | None

    def __post_init__(self) -> None:
        if self.minimum < 0:
            raise ContentModelError("negative minimum repetition")
        if self.maximum is not None and self.maximum < self.minimum:
            raise ContentModelError("maximum repetition below minimum")

    def nullable(self) -> bool:
        return self.minimum == 0 or self.child.nullable()

    def names(self) -> Iterator[str]:
        yield from self.child.names()

    def __repr__(self) -> str:
        upper = "∞" if self.maximum is None else str(self.maximum)
        return f"{self.child!r}{{{self.minimum},{upper}}}"


def _wrap_repetition(particle: Particle,
                     repetition: RepetitionFactor) -> Particle:
    if repetition.minimum == 1 and repetition.maximum == 1:
        return particle
    maximum = None if repetition.unbounded else int(repetition.maximum)
    if maximum == 0:
        return EmptyParticle()
    return RepeatParticle(particle, repetition.minimum, maximum)


def compile_group(group: "GroupDefinition | AllGroup") -> Particle:
    """Compile a group definition into its particle normal form."""
    if isinstance(group, AllGroup):
        items = tuple(
            (member.name, member.repetition.minimum >= 1)
            for member in group.members
            if member.repetition.maximum != 0)
        particle: Particle = AllParticle(items) if items \
            else EmptyParticle()
        return _wrap_repetition(particle, group.repetition)
    if group.empty_content:
        return EmptyParticle()
    children: list[Particle] = []
    for member in group.members:
        if isinstance(member, ElementDeclaration):
            children.append(
                _wrap_repetition(NameParticle(member.name),
                                 member.repetition))
        elif isinstance(member, GroupDefinition):
            children.append(compile_group(member))
        else:  # pragma: no cover - AST guarantees the union
            raise ContentModelError(f"bad group member {member!r}")
    if group.combination is CombinationFactor.SEQUENCE:
        inner: Particle = SequenceParticle(tuple(children))
    else:
        inner = ChoiceParticle(tuple(children))
    return _wrap_repetition(inner, group.repetition)
