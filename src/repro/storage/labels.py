"""The Sedna numbering scheme of Section 9.3.

A numbering label is a finite sequence of symbols from a linearly
ordered alphabet Ω.  Labels encode the position of a node so that the
structural relations of the paper are answered by symbol comparison
alone:

* *document order* — lexicographic comparison of the symbol sequences
  (the paper's first rule);
* *equality* — sequence equality;
* *parent/ancestor* — prefix tests (the paper's third rule).

The concrete encoding: a label is a sequence of *components*, one per
tree level (Dewey style, after [19]).  Each component is a non-empty
digit string over ``0 .. base-1`` that never ends in digit ``0``; in
the flattened symbol sequence every component is terminated by the
separator symbol, which is Ω_min.  Because the separator is minimal,
lexicographic comparison of flattened labels is exactly document order,
and because digit strings are dense (between any two there is a third),
**insertions never relabel existing nodes** — Proposition 1, which the
test suite verifies with randomized update workloads.

The dense midpoint construction follows the classic fractional-indexing
algorithm generalized to an arbitrary base.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import obs
from repro.errors import LabelError

#: The separator symbol Ω_min used in flattened label sequences.
SEPARATOR = 0

Component = tuple[int, ...]


def _validate_component(component: Component, base: int) -> None:
    if not component:
        raise LabelError("a label component must be non-empty")
    if component[-1] == 0:
        # A trailing zero would exhaust the gap below it: no string
        # orders strictly between (d,) and (d, 0).  The fractional
        # encoding therefore forbids it.
        raise LabelError(f"component {component} ends in digit 0")
    for digit in component:
        if not 0 <= digit < base:
            raise LabelError(
                f"digit {digit} out of range 0..{base - 1}")


@dataclass(frozen=True)
class NidLabel:
    """A numbering label: one digit-string component per tree level."""

    components: tuple[Component, ...]

    #: The wire form, memoized by :func:`repro.storage.codec.pack_nid`
    #: (not a field: a class default until a checkpoint writes it).
    _wire = None

    def __post_init__(self) -> None:
        if not self.components:
            raise LabelError("a label needs at least one component")
        # Labels are immutable, so the flattened symbol sequence is
        # computed once; it is on the hot path of every comparison.
        out: list[int] = []
        append = out.append
        for component in self.components:
            for digit in component:
                append(digit + 1)
            append(SEPARATOR)
        object.__setattr__(self, "_symbols", tuple(out))
        # The binary comparison key is built lazily: most labels are
        # only ever compared pairwise via symbols(), and the bytes key
        # pays off on bulk document-order sorts (index result sets).
        object.__setattr__(self, "_sort_key", None)

    @property
    def depth(self) -> int:
        return len(self.components)

    def symbols(self) -> tuple[int, ...]:
        """The flattened symbol sequence over Ω.

        Digits are shifted by +1 so that the separator (Ω_min = 0)
        is strictly smaller than every digit.
        """
        return self._symbols

    def sort_key(self) -> bytes:
        """Memoized binary document-order key.

        Each symbol is packed as a big-endian u16, so bytewise
        lexicographic order on the keys equals tuple order on
        :meth:`symbols` — sorting a large result set by ``sort_key()``
        is document order without per-comparison tuple walks.  (Symbols
        are digits shifted by +1, and the WAL already fixes u16 as the
        digit width, so the packing is exact for every usable base.)

        Labels are immutable and — Proposition 1 — never relabelled in
        place: a relabel, were one ever to happen, mints a *new*
        ``NidLabel`` whose key is recomputed on first use, so the cache
        can never go stale.
        """
        key = self._sort_key
        if key is None:
            symbols = self._symbols
            key = struct.pack(f">{len(symbols)}H", *symbols)
            object.__setattr__(self, "_sort_key", key)
        return key

    def parent_label(self) -> "NidLabel":
        if len(self.components) == 1:
            raise LabelError("a root label has no parent")
        return NidLabel(self.components[:-1])

    def __len__(self) -> int:
        """Label length in symbols — the size metric of the benchmarks."""
        return len(self.symbols())

    def __repr__(self) -> str:
        text = ".".join(
            "_".join(str(d) for d in component)
            for component in self.components)
        return f"NidLabel({text})"


# ----------------------------------------------------------------------
# The three relations of Section 9.3.


def before(x: NidLabel, y: NidLabel) -> bool:
    """``x << y`` in document order.

    Symbols are packed big-endian u16, so bytewise comparison of the
    memoized :meth:`NidLabel.sort_key` equals lexicographic comparison
    of the symbol sequences — one C-level ``bytes`` compare instead of
    a Python tuple walk.
    """
    return x.sort_key() < y.sort_key()


def equal(x: NidLabel, y: NidLabel) -> bool:
    """Equality in document order: identical symbol sequences."""
    return x.sort_key() == y.sort_key()


def is_parent(x: NidLabel, y: NidLabel) -> bool:
    """x is the parent of y: x's sequence is a proper prefix of y's and
    y has exactly one more component."""
    return (len(y.components) == len(x.components) + 1
            and y.components[:len(x.components)] == x.components)


def is_ancestor(x: NidLabel, y: NidLabel) -> bool:
    """x is a strict ancestor of y: component-prefix relation."""
    return (len(x.components) < len(y.components)
            and y.components[:len(x.components)] == x.components)


def compare(x: NidLabel, y: NidLabel) -> int:
    """-1/0/1 in document order."""
    sx, sy = x.sort_key(), y.sort_key()
    if sx == sy:
        return 0
    return -1 if sx < sy else 1


# ----------------------------------------------------------------------
# Dense component arithmetic (fractional indexing).


class NumberingScheme:
    """Label allocator for one document over an alphabet of *base*
    digits (plus the separator)."""

    def __init__(self, base: int = 256) -> None:
        if base < 3:
            raise LabelError("the alphabet needs at least 3 digits")
        self.base = base

    # -- component-level operations -------------------------------------

    def midpoint(self, low: Optional[Component],
                 high: Optional[Component]) -> Component:
        """A digit string strictly between *low* and *high*.

        ``None`` bounds mean -infinity / +infinity.  The result never
        ends in digit 0, so further midpoints always exist —
        the density property behind Proposition 1.
        """
        low_t = tuple(low) if low else ()
        high_t = tuple(high) if high else ()
        if high_t and low_t >= high_t:
            raise LabelError(f"bounds out of order: {low_t} >= {high_t}")
        result = self._mid(low_t, high_t)
        _validate_component(result, self.base)
        return result

    def _mid(self, a: Component, b: Component) -> Component:
        base = self.base
        if b:
            # Strip the common prefix.
            n = 0
            while n < len(b) and (a[n] if n < len(a) else -1) == b[n]:
                n += 1
            if n > 0:
                return b[:n] + self._mid(a[n:], b[n:])
        digit_a = a[0] if a else 0
        digit_b = b[0] if b else base
        if digit_b - digit_a > 1:
            mid = (digit_a + digit_b) // 2
            if mid == 0:
                mid = 1  # never produce the bare zero digit string
            return (mid,)
        if digit_a == digit_b:
            # Only possible when a is empty and b starts with digit 0:
            # descend into b's tail below that zero.
            return (0,) + self._mid((), b[1:])
        # Adjacent digits: recurse into a's tail with an open upper bound.
        if len(a) <= 1:
            return (digit_a,) + self._mid((), ())
        return (digit_a,) + self._mid(a[1:], ())

    def spread(self, count: int) -> list[Component]:
        """*count* evenly spaced sibling components for bulk loading.

        Components of one fixed digit length compare lexicographically
        like numbers, so spacing numbers evenly through the k-digit
        space yields short, ordered, gap-rich labels: one digit for
        fan-outs below half the base, k digits for fan-outs up to
        roughly ``base**k / 2``.
        """
        if count <= 0:
            return []
        capacity = self.base - 1  # usable single digits 1..base-1
        if count <= capacity // 2:
            step = max(capacity // (count + 1), 1)
            return [((i + 1) * step,) for i in range(count)]
        # Fixed width k with an even numeric spacing of step >= 2, so
        # the trailing-zero adjustment below can never collide.
        width = 1
        space = self.base
        while space - 2 < 2 * (count + 1):
            width += 1
            space *= self.base
        step = (space - 2) // (count + 1)
        out: list[Component] = []
        for index in range(count):
            value = (index + 1) * step
            digits = []
            for _ in range(width):
                value, digit = divmod(value, self.base)
                digits.append(digit)
            digits.reverse()
            if digits[-1] == 0:
                digits[-1] = 1
            out.append(tuple(digits))
        return out

    # -- label-level operations --------------------------------------------

    def root_label(self) -> NidLabel:
        """The label of the document node."""
        obs.REGISTRY.counter("numbering.labels.allocated").inc()
        return NidLabel(((self.base // 2,),))

    def child_label(self, parent: NidLabel,
                    left: Optional[NidLabel] = None,
                    right: Optional[NidLabel] = None) -> NidLabel:
        """A label for a new child of *parent* between siblings *left*
        and *right* (either may be None for the edges).

        No existing label changes — this is the whole point of the
        scheme (Proposition 1).
        """
        for sibling, side in ((left, "left"), (right, "right")):
            if sibling is not None and not is_parent(parent, sibling):
                raise LabelError(
                    f"{side} sibling {sibling!r} is not a child of "
                    f"{parent!r}")
        low = left.components[-1] if left is not None else None
        high = right.components[-1] if right is not None else None
        component = self.midpoint(low, high)
        obs.REGISTRY.counter("numbering.labels.allocated").inc()
        return NidLabel(parent.components + (component,))

    def child_labels(self, parent: NidLabel, count: int) -> list[NidLabel]:
        """Evenly spaced labels for *count* children (bulk load)."""
        if count > 0:
            obs.REGISTRY.counter("numbering.labels.allocated").inc(count)
        return [NidLabel(parent.components + (component,))
                for component in self.spread(count)]

    def __repr__(self) -> str:
        return f"NumberingScheme(base={self.base})"


def label_length_stats(labels: Iterator[NidLabel]) -> dict[str, float]:
    """Aggregate label sizes: mean/max symbol length (benchmark metric)."""
    lengths = [len(label) for label in labels]
    if not lengths:
        return {"count": 0, "mean": 0.0, "max": 0}
    return {
        "count": len(lengths),
        "mean": sum(lengths) / len(lengths),
        "max": max(lengths),
    }
