"""Unique Particle Attribution on the counted particle.

UPA holds iff no two distinct name leaves with one name both start the
model or both follow one leaf.  ``R{m,n}`` is never expanded (after
Kilpeläinen and Tuhkanen, Inf. Comput. 2007): a copy of ``R`` may be
followed by ``first(R)`` and by what follows the repetition (when
n = ∞, n − 1 ≥ max(m, 1), or R is nullable and n ≥ 2), by ``first(R)``
only (when m ≥ 2 and R is not nullable), or, as the last copy, by what
follows only (when n is finite).  The first kind's set holds both
others', so only without it do the two stay apart, and the work does
not depend on the bounds.
"""

from __future__ import annotations

from collections import Counter

from repro.content.particles import (
    AllParticle,
    ChoiceParticle,
    NameParticle,
    Particle,
    RepeatParticle,
    SequenceParticle,
)

#: (particle id, name); the items of an all group share its id.
Leaf = tuple[int, str]


def _first(node: Particle) -> frozenset[Leaf]:
    if isinstance(node, NameParticle):
        return frozenset(((id(node), node.name),))
    if isinstance(node, AllParticle):
        return frozenset((id(node), name) for name, _ in node.items)
    if isinstance(node, SequenceParticle):
        first: frozenset[Leaf] = frozenset()
        for child in node.children:
            first |= _first(child)
            if not child.nullable():
                break
        return first
    if isinstance(node, ChoiceParticle):
        return frozenset().union(*map(_first, node.children))
    if isinstance(node, RepeatParticle) and node.maximum != 0:
        return _first(node.child)
    return frozenset()


def competing_names(particle: Particle) -> list[str]:
    """The names of distinct leaves competing in *particle*, sorted;
    ``[]`` iff the content model satisfies UPA."""
    candidates = [_first(particle)]

    def walk(node: Particle, follows: list[frozenset[Leaf]]) -> None:
        """*follows*: the largest leaf sets that can follow *node*."""
        if isinstance(node, NameParticle):
            candidates.extend(follows)
        elif isinstance(node, AllParticle):
            # Any item may follow any other, or end the group.
            candidates.extend(_first(node) | after for after in follows)
        elif isinstance(node, SequenceParticle):
            for child in reversed(node.children):
                walk(child, follows)
                first = _first(child)
                follows = ([first | after for after in follows]
                           if child.nullable() else [first])
        elif isinstance(node, ChoiceParticle):
            for child in node.children:
                walk(child, follows)
        elif isinstance(node, RepeatParticle) and node.maximum != 0:
            low, high, first = node.minimum, node.maximum, _first(node)
            nullable = node.child.nullable()
            if high is None or high - 1 >= max(low, 1) \
                    or (nullable and high >= 2):
                follows = [first | after for after in follows]
            elif low >= 2 and not nullable:
                follows = [first, *follows]
            walk(node.child, follows)

    walk(particle, [frozenset()])
    return sorted({name for leaves in candidates
                   for name, count in Counter(n for _, n in leaves).items()
                   if count > 1})
