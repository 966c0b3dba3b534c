"""The tests' oracle: a Glushkov position automaton on the expansion.

The classical construction: every name occurrence in the particle,
with bounded repetition written out as copies, becomes a *position*;
the automaton's transitions follow the ``first``/``follow`` sets.  It
is exponential in nested bounds and factorial in an all group, which
is why ``repro.content`` never builds it, and independent of the code
under test, which is why the suite does.  It provides

* a second matcher to cross-check the derivative matcher,
* the Unique Particle Attribution oracle for
  :func:`repro.content.competing_names`: two positions of distinct
  original leaves with one name in one first/follow set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from repro.content import (
    AllParticle,
    ChoiceParticle,
    EmptyParticle,
    NameParticle,
    Particle,
    RepeatParticle,
    SequenceParticle,
)


@dataclass
class _Linearized:
    """The annotated form: nullable flag plus first/last/follow sets."""

    nullable: bool
    first: frozenset[int]
    last: frozenset[int]


class GlushkovAutomaton:
    """A position NFA for one content model."""

    def __init__(self, particle: Particle) -> None:
        expanded = _expand(particle)
        self._names: list[str] = []
        self._origins: list[int] = []
        self._follow: dict[int, set[int]] = {}
        info = self._build(expanded)
        self._nullable = info.nullable
        self._first = info.first
        self._last = info.last

    # -- construction ----------------------------------------------------

    def _new_position(self, name: str, origin: int) -> int:
        position = len(self._names)
        self._names.append(name)
        self._origins.append(origin)
        self._follow[position] = set()
        return position

    def _build(self, particle: Particle) -> _Linearized:
        if isinstance(particle, EmptyParticle):
            return _Linearized(True, frozenset(), frozenset())
        if isinstance(particle, NameParticle):
            # Expansion of a counted particle reuses the same NameParticle
            # object, so object identity recovers the original particle:
            # positions sharing an origin do not compete under UPA.
            position = self._new_position(particle.name, id(particle))
            singleton = frozenset((position,))
            return _Linearized(False, singleton, singleton)
        if isinstance(particle, ChoiceParticle):
            if not particle.children:
                return _Linearized(False, frozenset(), frozenset())
            parts = [self._build(child) for child in particle.children]
            return _Linearized(
                any(p.nullable for p in parts),
                frozenset().union(*(p.first for p in parts)),
                frozenset().union(*(p.last for p in parts)))
        if isinstance(particle, SequenceParticle):
            result = _Linearized(True, frozenset(), frozenset())
            for child in particle.children:
                part = self._build(child)
                for position in result.last:
                    self._follow[position] |= part.first
                result = _Linearized(
                    result.nullable and part.nullable,
                    result.first | part.first if result.nullable
                    else result.first,
                    part.last | result.last if part.nullable
                    else part.last)
            return result
        if isinstance(particle, RepeatParticle):
            part = self._build(particle.child)
            if particle.maximum is None and particle.minimum == 0:
                # Kleene star: last positions loop back to first.
                for position in part.last:
                    self._follow[position] |= part.first
                return _Linearized(True, part.first, part.last)
            if particle.minimum == 0 and particle.maximum == 1:
                return _Linearized(True, part.first, part.last)
            raise AssertionError(f"unexpanded repetition {particle!r}")
        raise AssertionError(f"unknown particle {particle!r}")

    # -- matching ----------------------------------------------------------

    @property
    def position_count(self) -> int:
        return len(self._names)

    def matches(self, names: Iterable[str]) -> bool:
        """Simulate the NFA over the name sequence."""
        names = list(names)
        if not names:
            return self._nullable
        current = {p for p in self._first if self._names[p] == names[0]}
        if not current:
            return False
        for name in names[1:]:
            current = {
                q
                for p in current
                for q in self._follow[p]
                if self._names[q] == name}
            if not current:
                return False
        return bool(current & self._last)

    # -- UPA / 1-unambiguity ------------------------------------------------

    def competing_positions(self) -> list[tuple[str, int, int]]:
        """Pairs of distinct positions with equal names competing in one
        first/follow set — the witnesses of a UPA violation."""
        conflicts: list[tuple[str, int, int]] = []

        def scan(positions: Iterable[int]) -> None:
            by_name: dict[str, int] = {}
            for position in sorted(positions):
                name = self._names[position]
                if name in by_name:
                    other = by_name[name]
                    if self._origins[other] != self._origins[position]:
                        conflicts.append((name, other, position))
                else:
                    by_name[name] = position
        scan(self._first)
        for followers in self._follow.values():
            scan(followers)
        return conflicts


def _expand(particle: Particle) -> Particle:
    """Rewrite bounded repetition into explicit copies.

    ``R{m,n}`` becomes ``R^m (R?)^(n-m)`` and ``R{m,∞}`` becomes
    ``R^m R*``; an all group becomes the choice over its permutations.
    A copy reuses its original's ``NameParticle`` object, which is how
    positions remember their origin.
    """
    if isinstance(particle, (EmptyParticle, NameParticle)):
        return particle
    if isinstance(particle, AllParticle):
        alternatives = []
        for permutation in itertools.permutations(particle.items):
            parts = []
            for name, required in permutation:
                leaf = NameParticle(name)
                parts.append(leaf if required
                             else RepeatParticle(leaf, 0, 1))
            alternatives.append(
                SequenceParticle(tuple(parts)) if len(parts) != 1
                else parts[0])
        if not alternatives:
            return EmptyParticle()
        return ChoiceParticle(tuple(alternatives))
    if isinstance(particle, SequenceParticle):
        return SequenceParticle(
            tuple(_expand(c) for c in particle.children))
    if isinstance(particle, ChoiceParticle):
        return ChoiceParticle(tuple(_expand(c) for c in particle.children))
    if isinstance(particle, RepeatParticle):
        child = _expand(particle.child)
        required = [child] * particle.minimum
        if particle.maximum is None:
            # Star is Repeat(0, None), which the construction handles.
            star = RepeatParticle(child, 0, None)
            return SequenceParticle(tuple(required + [star]))
        optional = [RepeatParticle(child, 0, 1)
                    ] * (particle.maximum - particle.minimum)
        parts = required + optional
        if not parts:
            return EmptyParticle()
        if len(parts) == 1:
            return parts[0]
        return SequenceParticle(tuple(parts))
    raise AssertionError(f"unknown particle {particle!r}")
