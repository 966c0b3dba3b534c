"""Tests for the Section 9.3 numbering scheme.

The bytes relations of :mod:`repro.storage.labels` are checked against
the rules on symbol sequences in :mod:`tests.label_rules`
(``TestRulesOracle``, whose example budget is the selected hypothesis
profile's)."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LabelError
from repro.storage import (
    NidLabel,
    NumberingScheme,
    before,
    compare,
    equal,
    is_ancestor,
    is_parent,
    label_length_stats,
)
from repro.storage.labels import key_fault
from tests import label_rules as rules
from tests.test_query_plan import _budget


@pytest.fixture
def scheme():
    return NumberingScheme(base=16)


class TestLabelBasics:
    def test_empty_label_rejected(self):
        with pytest.raises(LabelError):
            NidLabel(())

    def test_symbols_flattening(self):
        label = NidLabel(((3,), (1, 2)))
        # digits shifted +1, separator 0 after each component
        assert label.symbols() == (4, 0, 2, 3, 0)

    def test_len_is_symbol_count(self):
        assert len(NidLabel(((3,), (1, 2)))) == 5

    def test_parent_label(self):
        label = NidLabel(((3,), (5,)))
        assert label.parent_label() == NidLabel(((3,),))

    def test_root_has_no_parent(self):
        with pytest.raises(LabelError):
            NidLabel(((3,),)).parent_label()


class TestComparisonRules:
    """The three rules of Section 9.3, verbatim."""

    def test_document_order_rule_first_difference(self):
        # exists i: prefixes equal, x_i < y_i
        x = NidLabel(((3,), (1,)))
        y = NidLabel(((3,), (2,)))
        assert before(x, y)
        assert not before(y, x)

    def test_document_order_rule_prefix(self):
        # k < n and x is a prefix: ancestor precedes descendant
        x = NidLabel(((3,),))
        y = NidLabel(((3,), (1,)))
        assert before(x, y)

    def test_equality_rule(self):
        assert equal(NidLabel(((3,), (1,))), NidLabel(((3,), (1,))))
        assert not equal(NidLabel(((3,),)), NidLabel(((3,), (1,))))

    def test_parent_rule(self):
        parent = NidLabel(((3,),))
        child = NidLabel(((3,), (7,)))
        grandchild = NidLabel(((3,), (7,), (2,)))
        assert is_parent(parent, child)
        assert is_parent(child, grandchild)
        assert not is_parent(parent, grandchild)
        assert not is_parent(child, parent)

    def test_ancestor_derived_from_parent_rule(self):
        a = NidLabel(((3,),))
        d = NidLabel(((3,), (7,), (2,)))
        assert is_ancestor(a, d)
        assert not is_ancestor(d, a)
        assert not is_ancestor(a, a)

    def test_compare(self):
        x = NidLabel(((1,),))
        y = NidLabel(((2,),))
        assert compare(x, y) == -1
        assert compare(y, x) == 1
        assert compare(x, x) == 0

    def test_sibling_with_longer_component_orders_correctly(self):
        # component (5,) < component (5, 3): the separator is minimal.
        x = NidLabel(((5,),))
        y = NidLabel(((5, 3),))
        assert before(x, y)


class TestMidpoint:
    def test_open_interval(self, scheme):
        component = scheme.midpoint(None, None)
        assert component

    def test_between_adjacent_digits(self, scheme):
        mid = scheme.midpoint((5,), (6,))
        assert (5,) < mid < (6,)

    def test_between_nested(self, scheme):
        mid = scheme.midpoint((5,), (5, 1))
        assert (5,) < mid < (5, 1)

    def test_below_low_digit_bound(self, scheme):
        mid = scheme.midpoint(None, (1,))
        assert () < mid < (1,)

    def test_bounds_out_of_order_rejected(self, scheme):
        with pytest.raises(LabelError):
            scheme.midpoint((6,), (5,))

    def test_never_ends_in_zero(self, scheme):
        rng = random.Random(5)
        low = None
        for _ in range(200):
            mid = scheme.midpoint(low, None)
            assert mid[-1] != 0
            low = mid

    def test_tiny_alphabet_rejected(self):
        with pytest.raises(LabelError):
            NumberingScheme(base=2)

    def test_long_component_needs_no_stack(self):
        """A component grows about one digit per eight appends at one
        end, so its length is data: the midpoint descends one digit
        per loop step.  The recursive descent answered this only under
        a raised recursion limit."""
        low = (255,) * 1500 + (1,)
        assert len(low) > sys.getrecursionlimit()
        assert NumberingScheme().midpoint(low, None) == \
            (255,) * 1500 + (128,)

    @settings(max_examples=_budget(200), deadline=None)
    @given(base=st.sampled_from((3, 4, 16, 256)), data=st.data())
    def test_loop_returns_the_recursive_digits(self, base, data):
        scheme = NumberingScheme(base=base)
        digits = st.lists(st.sampled_from((0, 1, base // 2, base - 1)),
                          max_size=6).map(_trim)
        low, high = sorted((data.draw(digits), data.draw(digits)))
        if low == high:
            high = ()
        assert scheme._mid(low, high) == _recursive_mid(base, low, high)


def _trim(digits):
    """A stored component never ends in digit 0."""
    digits = list(digits)
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def _recursive_mid(base, a, b):
    """The midpoint descent as it was written before it became a loop:
    one call per digit position."""
    if b:
        n = 0
        while n < len(b) and (a[n] if n < len(a) else -1) == b[n]:
            n += 1
        if n > 0:
            return b[:n] + _recursive_mid(base, a[n:], b[n:])
    digit_a = a[0] if a else 0
    digit_b = b[0] if b else base
    if digit_b - digit_a > 1:
        return (max((digit_a + digit_b) // 2, 1),)
    if digit_a == digit_b:
        return (0,) + _recursive_mid(base, (), b[1:])
    return (digit_a,) + _recursive_mid(base, a[1:], ())


class TestChildLabels:
    def test_child_label_extends_parent(self, scheme):
        root = scheme.root_label()
        child = scheme.child_label(root)
        assert is_parent(root, child)

    def test_child_between_siblings(self, scheme):
        root = scheme.root_label()
        first, second = scheme.child_labels(root, 2)
        middle = scheme.child_label(root, first, second)
        assert before(first, middle)
        assert before(middle, second)
        assert is_parent(root, middle)

    def test_sibling_of_wrong_parent_rejected(self, scheme):
        root = scheme.root_label()
        child = scheme.child_label(root)
        grandchild = scheme.child_label(child)
        with pytest.raises(LabelError):
            scheme.child_label(root, grandchild, None)

    def test_bulk_labels_are_increasing(self, scheme):
        root = scheme.root_label()
        labels = scheme.child_labels(root, 40)
        assert len(labels) == 40
        for a, b in zip(labels, labels[1:]):
            assert before(a, b)

    def test_bulk_labels_short_for_small_fanout(self):
        scheme = NumberingScheme(base=256)
        labels = scheme.child_labels(scheme.root_label(), 50)
        assert all(len(label.components[-1]) == 1 for label in labels)


class TestProposition1:
    """Insertions and deletions never relabel existing nodes."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           base=st.sampled_from([4, 16, 256]))
    def test_random_insertions_keep_existing_labels(self, seed, base):
        scheme = NumberingScheme(base=base)
        root = scheme.root_label()
        rng = random.Random(seed)
        labels: list[NidLabel] = []
        for _ in range(60):
            position = rng.randint(0, len(labels))
            left = labels[position - 1] if position > 0 else None
            right = labels[position] if position < len(labels) else None
            snapshot = list(labels)
            new = scheme.child_label(root, left, right)
            # Existing labels unchanged (they are immutable values, so
            # the stronger claim: the list still orders correctly).
            assert labels == snapshot
            labels.insert(position, new)
            for a, b in zip(labels, labels[1:]):
                assert before(a, b)

    def test_pathological_front_insertion(self):
        scheme = NumberingScheme(base=4)
        root = scheme.root_label()
        first = None
        for _ in range(40):
            new = scheme.child_label(root, None, first)
            if first is not None:
                assert before(new, first)
            first = new

    def test_pathological_pairwise_insertion(self):
        scheme = NumberingScheme(base=8)
        root = scheme.root_label()
        a = scheme.child_label(root)
        b = scheme.child_label(root, a, None)
        for _ in range(30):
            c = scheme.child_label(root, a, b)
            assert before(a, c) and before(c, b)
            b = c


class TestStats:
    def test_label_length_stats(self, scheme):
        root = scheme.root_label()
        labels = scheme.child_labels(root, 5)
        stats = label_length_stats(iter(labels))
        assert stats["count"] == 5
        assert stats["max"] >= stats["mean"] > 0

    def test_empty_stats(self):
        assert label_length_stats(iter([]))["count"] == 0


class TestSpreadProperties:
    @settings(max_examples=60, deadline=None)
    @given(base=st.sampled_from([3, 4, 16, 256]),
           count=st.integers(min_value=1, max_value=800))
    def test_spread_is_strictly_increasing_and_valid(self, base, count):
        scheme = NumberingScheme(base=base)
        components = scheme.spread(count)
        assert len(components) == count
        for a, b in zip(components, components[1:]):
            assert a < b
        for component in components:
            assert component[-1] != 0
            assert all(0 <= digit < base for digit in component)

    @settings(max_examples=30, deadline=None)
    @given(base=st.sampled_from([4, 16, 256]),
           count=st.integers(min_value=2, max_value=300))
    def test_spread_leaves_insertion_gaps(self, base, count):
        """Between any two bulk-loaded siblings a midpoint exists —
        the gap that makes later insertions relabel-free."""
        scheme = NumberingScheme(base=base)
        components = scheme.spread(count)
        for a, b in zip(components, components[1:]):
            mid = scheme.midpoint(a, b)
            assert a < mid < b

    def test_spread_bounds_label_width(self):
        scheme = NumberingScheme(base=256)
        assert max(len(c) for c in scheme.spread(100)) == 1
        assert max(len(c) for c in scheme.spread(5000)) == 2
        assert max(len(c) for c in scheme.spread(30000)) == 2


# ----------------------------------------------------------------------
# The bytes relations against the §9.3 rules on symbol sequences.


def _deep_midpoint(scheme: NumberingScheme, steps: int, seed: int):
    """A component *steps* midpoints deep, narrowing from either side."""
    rng = random.Random(seed)
    low = high = None
    mid = scheme.midpoint(low, high)
    for _ in range(steps):
        if rng.random() < 0.5:
            low = mid
        else:
            high = mid
        mid = scheme.midpoint(low, high)
    return mid


@st.composite
def _label_pairs(draw):
    """``(base, x, y)``: two labels as digit strings, often related
    (y shares a prefix of x's components), built from arbitrary
    components — digits 0, 1 and base - 1 favoured, so digit 255
    before digit 0 straddles a ``00 00`` at base 256 — from
    ``spread`` and from deep midpoints."""
    base = draw(st.sampled_from([3, 16, 256]))
    scheme = NumberingScheme(base)
    digit = st.one_of(st.sampled_from([0, 1, base - 1]),
                      st.integers(0, base - 1))
    last = st.one_of(st.sampled_from([1, base - 1]),
                     st.integers(1, base - 1))
    component = st.one_of(
        st.builds(lambda head, tail: tuple(head) + (tail,),
                  st.lists(digit, max_size=4), last),
        st.builds(lambda count, index: scheme.spread(count)[index % count],
                  st.integers(1, 600), st.integers(0, 599)),
        st.builds(lambda steps, seed: _deep_midpoint(scheme, steps, seed),
                  st.integers(0, 40), st.integers(0, 2**16)))
    x = draw(st.lists(component, min_size=1, max_size=5))
    shared = draw(st.integers(0, len(x)))
    y = x[:shared] + draw(st.lists(component, min_size=0 if shared else 1,
                                   max_size=4))
    if draw(st.booleans()):
        x, y = y, x
    return base, tuple(x), tuple(y)


class TestRulesOracle:
    @settings(max_examples=_budget(200), deadline=None)
    @given(_label_pairs())
    def test_bytes_relations_agree_with_the_rules(self, pair):
        base, cx, cy = pair
        x, y = NidLabel(cx), NidLabel(cy)
        sx, sy = rules.symbols(cx), rules.symbols(cy)
        for label, components, symbols in ((x, cx, sx), (y, cy, sy)):
            assert label.symbols() == symbols
            assert label.components == components
            assert len(label) == len(symbols)
            assert key_fault(label, base) is None
            if len(components) > 1:
                assert label.parent_label().components == components[:-1]
        assert before(x, y) == rules.before(sx, sy)
        assert before(y, x) == rules.before(sy, sx)
        assert equal(x, y) == rules.equal(sx, sy)
        assert compare(x, y) == (rules.before(sy, sx)
                                 - rules.before(sx, sy))
        assert is_ancestor(x, y) == rules.is_ancestor(sx, sy)
        assert is_parent(x, y) == rules.is_parent(sx, sy)
        assert is_parent(y, x) == rules.is_parent(sy, sx)

    @settings(max_examples=_budget(100), deadline=None)
    @given(_label_pairs(), st.data())
    def test_allocated_labels_obey_the_rules(self, pair, data):
        """A child allocated between two siblings is, by the rules, a
        child of its parent ordered between them."""
        base, cx, _ = pair
        scheme = NumberingScheme(base)
        parent = NidLabel(cx)
        siblings = scheme.child_labels(parent, data.draw(
            st.integers(2, 300)))
        at = data.draw(st.integers(0, len(siblings) - 2))
        left, right = siblings[at], siblings[at + 1]
        child = scheme.child_label(parent, left, right)
        sp, sl, sc, sr = (rules.symbols(label.components)
                          for label in (parent, left, child, right))
        assert rules.is_parent(sp, sc)
        assert rules.before(sl, sc) and rules.before(sc, sr)
        assert child.parent_label() == parent
