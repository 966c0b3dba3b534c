"""The tests' oracle: the three comparison rules of Section 9.3 on
symbol sequences.

A label is a tuple of symbols over Ω, each digit ``d`` written as
``d + 1`` and every component ended by the separator 0 = Ω_min.  The
rules are stated here on those tuples, one symbol at a time, exactly
as the paper states them; :mod:`repro.storage.labels` answers the same
questions with ``bytes`` operations on its big-endian key, and
``tests/test_storage_labels.py`` checks one against the other.
"""

from __future__ import annotations

SEPARATOR = 0


def symbols(components) -> tuple[int, ...]:
    """The symbol sequence of a label given as digit strings."""
    out: list[int] = []
    for component in components:
        out.extend(digit + 1 for digit in component)
        out.append(SEPARATOR)
    return tuple(out)


def before(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x << y: at the first position where they differ x's symbol is
    smaller, or x is a proper prefix of y."""
    for a, b in zip(x, y):
        if a != b:
            return a < b
    return len(x) < len(y)


def equal(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x = y: same length, same symbol at every position."""
    return len(x) == len(y) and all(a == b for a, b in zip(x, y))


def is_ancestor(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x is a proper prefix of y (x ends in a separator, so the prefix
    is one of whole components)."""
    return len(x) < len(y) and equal(x, y[:len(x)])


def is_parent(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x is a proper prefix of y, and what y adds holds exactly one
    separator: one more component."""
    return is_ancestor(x, y) and y[len(x):].count(SEPARATOR) == 1
