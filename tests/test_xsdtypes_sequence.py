"""Tests for the Seq(T) sequence type of Section 4."""

import pytest
from hypothesis import given, strategies as st

from repro.xsdtypes import Sequence, seq


class TestOperations:
    def test_length_operation(self):
        assert len(seq()) == 0
        assert len(seq(1, 2, 3)) == 3

    def test_concatenation_operation(self):
        assert seq(1, 2) + seq(3) == seq(1, 2, 3)
        assert seq() + seq(1) == seq(1)
        assert seq(1) + seq() == seq(1)

    def test_indexing_is_one_based(self):
        s = seq("a", "b", "c")
        assert s[1] == "a"
        assert s[3] == "c"

    def test_index_zero_rejected(self):
        with pytest.raises(IndexError):
            seq("a")[0]

    def test_index_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            seq("a")[2]

    def test_non_integer_index_rejected(self):
        with pytest.raises(TypeError):
            seq("a")["x"]

    @pytest.mark.parametrize("items", [("a",), ("a", "b"),
                                       ("a", "b", "c")])
    def test_reversed_yields_every_item(self, items):
        assert list(reversed(seq(*items))) == list(reversed(items))


class TestFlattening:
    def test_nested_sequences_flatten(self):
        assert Sequence([seq(1, 2), seq(3)]) == seq(1, 2, 3)

    def test_empty_nested_sequences_vanish(self):
        assert Sequence([seq(), seq(1), seq()]) == seq(1)


class TestEquality:
    def test_equal_sequences(self):
        assert seq(1, 2) == seq(1, 2)
        assert hash(seq(1, 2)) == hash(seq(1, 2))

    def test_order_matters(self):
        assert seq(1, 2) != seq(2, 1)

    def test_empty_singleton(self):
        assert Sequence.empty() == seq()
        assert Sequence.empty().is_empty()

    def test_bool(self):
        assert not seq()
        assert seq(0)  # a sequence holding a falsy item is non-empty


class TestHelpers:
    def test_head(self):
        assert seq(7, 8).head() == 7

    def test_head_of_empty_raises(self):
        with pytest.raises(IndexError):
            seq().head()

    def test_map(self):
        assert seq(1, 2).map(lambda x: x * 10) == seq(10, 20)

    def test_items_tuple(self):
        assert seq(1, 2).items == (1, 2)

    def test_of_constructor(self):
        assert Sequence.of(1, 2) == seq(1, 2)


class TestAlgebraicProperties:
    @given(st.lists(st.integers()), st.lists(st.integers()),
           st.lists(st.integers()))
    def test_concatenation_associative(self, a, b, c):
        sa, sb, sc = Sequence(a), Sequence(b), Sequence(c)
        assert (sa + sb) + sc == sa + (sb + sc)

    @given(st.lists(st.integers()))
    def test_empty_is_identity(self, items):
        s = Sequence(items)
        assert s + Sequence.empty() == s
        assert Sequence.empty() + s == s

    @given(st.lists(st.integers()), st.lists(st.integers()))
    def test_length_homomorphism(self, a, b):
        assert len(Sequence(a) + Sequence(b)) == len(a) + len(b)

    @given(st.lists(st.integers(), min_size=1))
    def test_indexing_agrees_with_items(self, items):
        s = Sequence(items)
        for i, item in enumerate(items, start=1):
            assert s[i] == item
