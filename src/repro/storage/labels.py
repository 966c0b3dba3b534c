"""The Sedna numbering scheme of Section 9.3.

A numbering label is a finite sequence of symbols from a linearly
ordered alphabet Ω.  Labels encode the position of a node so that the
structural relations of the paper are answered by symbol comparison
alone: document order is lexicographic order, equality is sequence
equality, and parent/ancestor are prefix tests.

The encoding: a label is a sequence of *components*, one per tree
level (Dewey style, after [19]).  Each component is a non-empty digit
string over ``0 .. base-1`` that never ends in digit ``0``; in the
symbol sequence each digit ``d`` is the symbol ``d + 1`` and every
component is terminated by the separator symbol 0, which is Ω_min.
Because the separator is minimal, lexicographic comparison of symbol
sequences is exactly document order, and because digit strings are
dense (between any two there is a third), **insertions never relabel
existing nodes** — Proposition 1, which the test suite verifies with
randomized update workloads.

A :class:`NidLabel` *is* that symbol sequence, stored once: an
immutable ``bytes`` of big-endian u16 symbols.  Fixed-width
big-endian symbols make bytewise order equal symbol order, so the
label is its own document-order key and its own wire form (ORDPATH,
O'Neil et al., SIGMOD 2004, is the precedent), and the three relations
below are C-level ``bytes`` operations.  Only the allocator
(:class:`NumberingScheme`) decodes a component; ``components``,
``symbols()``, ``depth``, ``sort_key()`` and ``len()`` decode for the
tests and the numbering models.  :func:`key_fault` states which byte
strings are labels, for the decoders of stored ones.

The dense midpoint construction follows the classic fractional-indexing
algorithm generalized to an arbitrary base.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Iterator, Optional

from repro import obs
from repro.errors import LabelError

#: The separator symbol Ω_min.
SEPARATOR = 0

#: The largest base whose symbols (digit + 1) fit a u16.
MAX_BASE = 0xFFFF

Component = tuple[int, ...]

_SEP = b"\0\0"
_size = bytes.__len__


def _encode(component: Component) -> bytes:
    """One component's symbols, separator included."""
    return struct.pack(f">{len(component) + 1}H",
                       *[digit + 1 for digit in component], SEPARATOR)


def _digits(key: bytes) -> Component:
    """The digits of *key*, symbols without a separator."""
    return tuple(symbol - 1 for symbol
                 in struct.unpack(f">{_size(key) >> 1}H", key))


def _next_separator(key: bytes, start: int) -> int:
    """The offset of the first separator at or after the even offset
    *start*.  A ``00 00`` at an odd offset straddles two symbols —
    digit 255 is ``0x0100`` and a following digit 0 ``0x0001`` — and
    is stepped over."""
    at = key.find(_SEP, start)
    while at > 0 and at & 1:
        at = key.find(_SEP, at + 1)
    return at


class NidLabel(bytes):
    """A numbering label: big-endian u16 symbols, each component ended
    by the separator.  ``NidLabel(components)`` builds one from digit
    strings; the decoding accessors are slow by design."""

    __slots__ = ()

    def __new__(cls, components) -> "NidLabel":
        if not components:
            raise LabelError("a label needs at least one component")
        return bytes.__new__(cls, b"".join(map(_encode, components)))

    def __getnewargs__(self) -> tuple:
        return (self.components,)

    @property
    def components(self) -> tuple[Component, ...]:
        out, start = [], 0
        while start < _size(self):
            end = _next_separator(self, start)
            out.append(_digits(self[start:end]))
            start = end + 2
        return tuple(out)

    @property
    def depth(self) -> int:
        return len(self.components)

    def symbols(self) -> tuple[int, ...]:
        """The symbol sequence over Ω (digits shifted by +1, so the
        separator 0 is strictly smaller than every digit)."""
        return struct.unpack(f">{_size(self) >> 1}H", self)

    def sort_key(self) -> bytes:
        """The document-order key: the label's own bytes."""
        return bytes(self)

    def parent_label(self) -> "NidLabel":
        """The label without its last component."""
        at = self.rfind(_SEP, 0, _size(self) - 2)
        while at > 0 and at & 1:
            at = self.rfind(_SEP, 0, at + 1)
        if at < 0:
            raise LabelError("a root label has no parent")
        return from_key(self[:at + 2])

    def __len__(self) -> int:
        """Label length in symbols — the size metric of the benchmarks."""
        return _size(self) >> 1

    def __repr__(self) -> str:
        text = ".".join("_".join(map(str, component))
                        for component in self.components)
        return f"NidLabel({text})"

    __str__ = __repr__


#: The label whose bytes are *key*, a string :func:`key_fault` accepts.
from_key = partial(bytes.__new__, NidLabel)


def key_fault(key: bytes, base: int = MAX_BASE) -> Optional[str]:
    """Why *key* is not a label over *base* digits, or None: an odd
    length, a digit ≥ *base*, no final separator, an empty component
    or a component ending in digit 0."""
    size = _size(key)
    if size & 1 or not size:
        return f"of odd length {size}" if size else "without components"
    if max(key[::2]):  # digit 255 or more: decode, then 0 / 1 / more
        decoded = struct.unpack(f">{size >> 1}H", key)
        symbols = bytes(min(symbol, 2) for symbol in decoded)
    else:  # every symbol is its low byte
        decoded = symbols = key[1::2]
    if max(decoded) > base:
        return f"with digit {max(decoded) - 1} out of range 0..{base - 1}"
    if symbols[-1] != SEPARATOR:
        return "without a final separator"
    if symbols[0] == SEPARATOR or b"\0\0" in symbols:
        return "with an empty component"
    if b"\1\0" in symbols:
        return "with a component ending in digit 0"
    return None


# ----------------------------------------------------------------------
# The three relations of Section 9.3, as bytes operations.  Their
# statement on symbol sequences is the tests' oracle.


def before(x: NidLabel, y: NidLabel) -> bool:
    """``x << y`` in document order: one bytes compare."""
    return x < y


def equal(x: NidLabel, y: NidLabel) -> bool:
    """Equality in document order: identical labels."""
    return x == y


def is_ancestor(x: NidLabel, y: NidLabel) -> bool:
    """x is a strict ancestor of y.  A prefix of y that ends in a
    separator at an even offset, as x does, is a component prefix."""
    return _size(x) < _size(y) and y.startswith(x)


def is_parent(x: NidLabel, y: NidLabel) -> bool:
    """x is the parent of y: an ancestor, and y's first separator past
    x is its last."""
    size = _size(y)
    return (_size(x) < size and y.startswith(x)
            and _next_separator(y, _size(x)) == size - 2)


def compare(x: NidLabel, y: NidLabel) -> int:
    """-1/0/1 in document order."""
    return (x > y) - (x < y)


# ----------------------------------------------------------------------
# Dense component arithmetic (fractional indexing).


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
        """The digits strictly between *a* and *b*, one digit position
        per loop step (a component's length is data, not stack)."""
        base = self.base
        out: list[int] = []
        while True:
            if b:
                # Strip the common prefix.
                n = 0
                while n < len(b) and (a[n] if n < len(a) else -1) == b[n]:
                    n += 1
                if n > 0:
                    out.extend(b[:n])
                    a, b = a[n:], b[n:]
                    continue
            digit_a = a[0] if a else 0
            digit_b = b[0] if b else base
            if digit_b - digit_a > 1:
                # Never produce the bare zero digit string.
                out.append((digit_a + digit_b) // 2 or 1)
                return tuple(out)
            if digit_a == digit_b:
                # Only possible when a is empty and b starts with digit
                # 0: descend into b's tail below that zero.
                out.append(0)
                b = b[1:]
            else:
                # Adjacent digits: descend into a's tail with an open
                # upper bound.
                out.append(digit_a)
                a, b = a[1:], ()

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
        start = _size(parent)
        bounds = []
        for sibling, side in ((left, "left"), (right, "right")):
            if sibling is None:
                bounds.append(None)
            elif is_parent(parent, sibling):
                bounds.append(_digits(sibling[start:-2]))
            else:
                raise LabelError(
                    f"{side} sibling {sibling!r} is not a child of "
                    f"{parent!r}")
        component = self.midpoint(*bounds)
        obs.REGISTRY.counter("numbering.labels.allocated").inc()
        return from_key(parent + _encode(component))

    def child_labels(self, parent: NidLabel, count: int) -> list[NidLabel]:
        """Evenly spaced labels for *count* children (bulk load)."""
        if count > 0:
            obs.REGISTRY.counter("numbering.labels.allocated").inc(count)
        return [from_key(parent + _encode(component))
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
