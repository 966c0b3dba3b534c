"""Brzozowski-derivative matcher for content models.

The derivative of a particle with respect to an element name is the
particle matching the remainder of the word.  Bounded repetition is
handled with counters (no expansion), so ``maxOccurs="1000000"`` costs
nothing; :meth:`DerivativeMatcher.matches` remembers the derivatives
it has taken, which makes it a lazily built DFA of bounded size.  This
is the primary matcher used by validation and the
Section 6.2 conformance checker; the Glushkov matcher cross-checks it
in the test suite.
"""

from __future__ import annotations

from typing import Iterable

from repro.content.particles import (
    AllParticle,
    ChoiceParticle,
    EmptyParticle,
    NameParticle,
    Particle,
    RepeatParticle,
    SequenceParticle,
)

#: A particle matching nothing at all (the failure sink).
_FAIL = ChoiceParticle(())

_EMPTY = EmptyParticle()

#: Memoised transitions one matcher keeps before it starts over.
_MAX_TRANSITIONS = 512


def _is_fail(particle: Particle) -> bool:
    return isinstance(particle, ChoiceParticle) and not particle.children


def _sequence(parts: Iterable[Particle]) -> Particle:
    flat: list[Particle] = []
    for part in parts:
        if _is_fail(part):
            return _FAIL
        if isinstance(part, EmptyParticle):
            continue
        if isinstance(part, SequenceParticle):
            flat.extend(part.children)
        else:
            flat.append(part)
    if not flat:
        return _EMPTY
    if len(flat) == 1:
        return flat[0]
    return SequenceParticle(tuple(flat))


def _choice(parts: Iterable[Particle]) -> Particle:
    flat: list[Particle] = []
    seen: set[Particle] = set()
    for part in parts:
        if _is_fail(part):
            continue
        candidates = (part.children
                      if isinstance(part, ChoiceParticle) else (part,))
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                flat.append(candidate)
    if not flat:
        return _FAIL
    if len(flat) == 1:
        return flat[0]
    return ChoiceParticle(tuple(flat))


def derive(particle: Particle, name: str) -> Particle:
    """The Brzozowski derivative of *particle* with respect to *name*."""
    if isinstance(particle, EmptyParticle):
        return _FAIL
    if isinstance(particle, NameParticle):
        return _EMPTY if particle.name == name else _FAIL
    if isinstance(particle, ChoiceParticle):
        return _choice(derive(child, name) for child in particle.children)
    if isinstance(particle, SequenceParticle):
        # d(AB) = d(A)B | [A nullable] d(B)
        alternatives: list[Particle] = []
        children = particle.children
        for index, child in enumerate(children):
            alternatives.append(
                _sequence([derive(child, name), *children[index + 1:]]))
            if not child.nullable():
                break
        return _choice(alternatives)
    if isinstance(particle, AllParticle):
        # Consuming one interleaved item removes it from the set.
        remaining = tuple(item for item in particle.items
                          if item[0] != name)
        if len(remaining) == len(particle.items):
            return _FAIL
        if not remaining:
            return _EMPTY
        return AllParticle(remaining)
    if isinstance(particle, RepeatParticle):
        # d(R{m,n}) = d(R) . R{max(m-1,0), n-1}
        inner = derive(particle.child, name)
        if _is_fail(inner):
            return _FAIL
        new_min = max(particle.minimum - 1, 0)
        new_max = None if particle.maximum is None else particle.maximum - 1
        if new_max == 0:
            rest: Particle = _EMPTY
        elif new_max is None and new_min == 0 and isinstance(
                particle.child, NameParticle):
            rest = RepeatParticle(particle.child, 0, None)
        else:
            rest = RepeatParticle(particle.child, new_min, new_max)
        return _sequence([inner, rest])
    raise TypeError(f"unknown particle {particle!r}")


class DerivativeMatcher:
    """Matches sequences of child-element names against a particle."""

    def __init__(self, particle: Particle) -> None:
        self._particle = particle
        self._alphabet = frozenset(particle.names())
        # The lazily built DFA behind matches(): (state, name) ->
        # state, keyed by particle *value*, so equal derivatives are
        # one state ((book|paper)* never leaves its start state).
        self._transitions: dict[tuple[Particle, str], Particle] = {}

    @property
    def alphabet(self) -> frozenset[str]:
        return self._alphabet

    def matches(self, names: Iterable[str]) -> bool:
        """True iff the whole name sequence is accepted."""
        transitions = self._transitions
        state = self._particle
        for name in names:
            following = transitions.get((state, name))
            if following is None:
                if name not in self._alphabet:
                    return False
                following = derive(state, name)
                if len(transitions) >= _MAX_TRANSITIONS:
                    # A counted particle has a state per count.
                    transitions.clear()
                transitions[state, name] = following
            if _is_fail(following):
                return False
            state = following
        return state.nullable()

    def residual(self, names: Iterable[str]) -> Particle:
        """The particle left after consuming *names* (may be the sink)."""
        state = self._particle
        for name in names:
            state = derive(state, name)
        return state

    def explain_failure(self, names: list[str]) -> str:
        """A human-readable account of why the sequence is rejected."""
        state = self._particle
        for position, name in enumerate(names):
            if name not in self._alphabet:
                return (f"element {name!r} at position {position + 1} does "
                        "not occur in the content model")
            next_state = derive(state, name)
            if _is_fail(next_state):
                return (f"element {name!r} at position {position + 1} is "
                        f"not allowed here (expected one of "
                        f"{sorted(_first_names(state))})")
            state = next_state
        if not state.nullable():
            return ("content ended prematurely; expected one of "
                    f"{sorted(_first_names(state))}")
        return "the sequence matches"


def _first_names(particle: Particle) -> set[str]:
    """The set of names that can begin a word of *particle*."""
    if isinstance(particle, NameParticle):
        return {particle.name}
    if isinstance(particle, EmptyParticle):
        return set()
    if isinstance(particle, ChoiceParticle):
        out: set[str] = set()
        for child in particle.children:
            out |= _first_names(child)
        return out
    if isinstance(particle, SequenceParticle):
        out = set()
        for child in particle.children:
            out |= _first_names(child)
            if not child.nullable():
                break
        return out
    if isinstance(particle, RepeatParticle):
        return _first_names(particle.child)
    if isinstance(particle, AllParticle):
        return {name for name, _required in particle.items}
    raise TypeError(f"unknown particle {particle!r}")
