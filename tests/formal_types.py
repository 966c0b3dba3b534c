"""The tests' oracle for Section 2: the formal type constructors.

The paper phrases its abstract syntax with seven constructors over
syntactic domains::

    Seq(T)                ordered sets of T (empty included)
    FM(T1, T2)            finite mappings from T1 to T2 (ordered pairs)
    Union(T1, ..., Tn)    disjoint union
    Enumeration           enumeration of literals
    Pair(T1, T2)          pairs
    Interleave(T1, T2)    two-item sets in either order
    Tuple(T1, ..., Tn)    tuples

This module realizes them as *runtime-checkable descriptions*: each
constructor yields an object with a ``contains(value)`` predicate, so
the suite can verify that the AST classes of :mod:`repro.schema.ast`
really inhabit the formal types the paper assigns to them.  Python's
weak typing is exactly the "formal fidelity" gap the reproduction
notes call out; these checkers close it at runtime.  Nothing in the
package imports them.
"""

from __future__ import annotations

from typing import Callable

Check = Callable[[object], bool]


class FormalType:
    """A runtime-checkable description of a syntactic domain."""

    def __init__(self, name: str, check: Check) -> None:
        self.name = name
        self._check = check

    def contains(self, value: object) -> bool:
        """True iff *value* inhabits this formal type."""
        return self._check(value)

    def __repr__(self) -> str:
        return self.name


def Atom(name: str, predicate: Check) -> FormalType:
    """A base syntactic domain defined by a predicate."""
    return FormalType(name, predicate)


#: Natural numbers (including zero), the paper's ``NatNumber``.
NAT_NUMBER = Atom("NatNumber",
                  lambda v: isinstance(v, int)
                  and not isinstance(v, bool) and v >= 0)

#: Booleans, the paper's ``Boolean``.
BOOLEAN = Atom("Boolean", lambda v: isinstance(v, bool))

#: Names of document entities, the paper's ``Name``.
NAME = Atom("Name", lambda v: isinstance(v, str) and bool(v))


def Seq(item: FormalType) -> FormalType:
    """``Seq(T)`` — ordered sets of values of T, empty included."""
    def check(value: object) -> bool:
        if not isinstance(value, (tuple, list)):
            return False
        return all(item.contains(v) for v in value)
    return FormalType(f"Seq({item.name})", check)


def FM(key: FormalType, val: FormalType) -> FormalType:
    """``FM(T1, T2)`` — ordered finite mappings (distinct keys)."""
    def check(value: object) -> bool:
        if isinstance(value, dict):
            pairs = list(value.items())
        elif isinstance(value, (tuple, list)):
            pairs = [p for p in value]
            if not all(isinstance(p, tuple) and len(p) == 2 for p in pairs):
                return False
        else:
            return False
        keys = [k for k, _ in pairs]
        if len(set(keys)) != len(keys):
            return False
        return all(key.contains(k) and val.contains(v) for k, v in pairs)
    return FormalType(f"FM({key.name}, {val.name})", check)


def Union(*alternatives: FormalType) -> FormalType:
    """``Union(T1, ..., Tn)`` — a value of any one alternative."""
    names = ", ".join(a.name for a in alternatives)

    def check(value: object) -> bool:
        return any(a.contains(value) for a in alternatives)
    return FormalType(f"Union({names})", check)


def Enumeration(*literals: object) -> FormalType:
    """``Enumeration`` — one of an explicit set of literals."""
    allowed = tuple(literals)
    names = ", ".join(repr(lit) for lit in allowed)

    def check(value: object) -> bool:
        return value in allowed
    return FormalType(f"Enumeration({names})", check)


def Pair(first: FormalType, second: FormalType) -> FormalType:
    """``Pair(T1, T2)`` — ordered pairs."""
    def check(value: object) -> bool:
        return (isinstance(value, tuple) and len(value) == 2
                and first.contains(value[0]) and second.contains(value[1]))
    return FormalType(f"Pair({first.name}, {second.name})", check)


def Interleave(first: FormalType, second: FormalType) -> FormalType:
    """``Interleave(T1, T2)`` — a two-item set in either order."""
    def check(value: object) -> bool:
        if not isinstance(value, (tuple, list, frozenset, set)):
            return False
        items = list(value)
        if len(items) != 2:
            return False
        a, b = items
        return ((first.contains(a) and second.contains(b))
                or (first.contains(b) and second.contains(a)))
    return FormalType(f"Interleave({first.name}, {second.name})", check)


def Tuple(*components: FormalType) -> FormalType:
    """``Tuple(T1, ..., Tn)`` — fixed-arity tuples."""
    names = ", ".join(c.name for c in components)

    def check(value: object) -> bool:
        if not isinstance(value, tuple) or len(value) != len(components):
            return False
        return all(c.contains(v) for c, v in zip(components, value))
    return FormalType(f"Tuple({names})", check)


def Instance(cls: type, project: "Callable[[object], object] | None" = None,
             inner: FormalType | None = None) -> FormalType:
    """A domain inhabited by instances of a Python class.

    When *project* and *inner* are given, the projection of the instance
    must additionally inhabit *inner* — used to tie an AST dataclass to
    its formal tuple shape.
    """
    def check(value: object) -> bool:
        if not isinstance(value, cls):
            return False
        if project is not None and inner is not None:
            return inner.contains(project(value))
        return True
    return FormalType(cls.__name__, check)


def union_of_instances(*classes: type) -> FormalType:
    """Shorthand: ``Union(Instance(C1), ..., Instance(Cn))``."""
    return Union(*(Instance(cls) for cls in classes))
