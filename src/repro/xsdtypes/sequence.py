"""The sequence type constructor ``Seq(T)`` of Section 4.

The paper equips every sequence type with three operations: ``|s|`` (the
length), ``s1 + s2`` (concatenation) and ``s[i]`` (the *i*-th item).  As in
XQuery, item indexing is **1-based**.  Sequences are immutable and flat
(a sequence never contains another sequence), matching the XDM.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Iterator, TypeVar

T = TypeVar("T")


class Sequence(Generic[T]):
    """An immutable, flat, ordered sequence of items.

    ``Sequence`` intentionally does not subclass ``tuple``: the formal
    model gives it exactly three operations plus iteration, and keeping
    the surface small keeps the algebra honest.  Nested sequences are
    flattened on construction, as the XDM requires.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[T] = ()) -> None:
        flat: list[T] = []
        for item in items:
            if isinstance(item, Sequence):
                flat.extend(item)
            else:
                flat.append(item)
        self._items: tuple[T, ...] = tuple(flat)

    @classmethod
    def empty(cls) -> "Sequence[T]":
        """The empty sequence ``()``."""
        return _EMPTY

    @classmethod
    def of(cls, *items: T) -> "Sequence[T]":
        """Build a sequence from positional items."""
        return cls(items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __reversed__(self) -> Iterator[T]:
        # Without it, reversed() would index 0-based through the
        # 1-based __getitem__ and stop early.
        return reversed(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __add__(self, other: "Sequence[T]") -> "Sequence[T]":
        if not isinstance(other, Sequence):
            return NotImplemented
        return Sequence(self._items + other._items)

    def __getitem__(self, index: int) -> T:
        """1-based item access, per the paper's ``s[i]`` operation."""
        if not isinstance(index, int):
            raise TypeError("sequence index must be an integer")
        if index < 1 or index > len(self._items):
            raise IndexError(
                f"index {index} out of range 1..{len(self._items)}")
        return self._items[index - 1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Sequence):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Sequence", self._items))

    def __repr__(self) -> str:
        inner = ", ".join(repr(item) for item in self._items)
        return f"({inner})"

    # Convenience beyond the paper's three operations -------------------

    @property
    def items(self) -> tuple[T, ...]:
        """The underlying items as a plain tuple (0-based)."""
        return self._items

    def head(self) -> T:
        """The first item; raises ``IndexError`` on the empty sequence."""
        return self[1]

    def is_empty(self) -> bool:
        return not self._items

    def map(self, fn: Callable[[T], object]) -> "Sequence":
        return Sequence(fn(item) for item in self._items)


_EMPTY: Sequence = Sequence()


def seq(*items: T) -> Sequence[T]:
    """Shorthand constructor: ``seq(1, 2) == Sequence((1, 2))``."""
    return Sequence(items)
