"""Tests for the state algebra (Section 6.1) and the Tree type."""

import pytest

from repro.errors import AlgebraError
from repro.xmlio import QName
from repro.algebra import (
    StateAlgebra,
    Tree,
    build_element_tree,
    document_tree,
    element_subtrees,
    is_well_formed_tree,
    pretty,
    root,
    roots,
    subtree,
)


@pytest.fixture
def algebra():
    return StateAlgebra()


class TestCarriers:
    def test_carriers_start_empty(self, algebra):
        for kind in ("document", "element", "attribute", "text"):
            assert algebra.carrier(kind) == ()

    def test_carriers_fill_by_kind(self, algebra):
        algebra.create_document()
        algebra.create_element(QName("", "e"))
        algebra.create_element(QName("", "f"))
        algebra.create_attribute(QName("", "a"), "v")
        algebra.create_text("t")
        assert len(algebra.carrier("document")) == 1
        assert len(algebra.carrier("element")) == 2
        assert len(algebra.carrier("attribute")) == 1
        assert len(algebra.carrier("text")) == 1
        assert algebra.node_count() == 5

    def test_unknown_sort_rejected(self, algebra):
        with pytest.raises(AlgebraError):
            algebra.carrier("comment")

    def test_sort_disjointness_invariant(self, algebra):
        algebra.create_element(QName("", "e"))
        algebra.create_text("t")
        algebra.check_sort_disjointness()  # must not raise

    def test_a_node_is_union_of_carriers(self, algebra):
        algebra.create_element(QName("", "e"))
        algebra.create_text("t")
        assert len(list(algebra.nodes())) == algebra.node_count()


class TestMutation:
    def test_append_child_sets_parent(self, algebra):
        parent = algebra.create_element(QName("", "p"))
        child = algebra.create_text("t")
        algebra.append_child(parent, child)
        assert child.parent().head() is parent
        assert list(parent.children()) == [child]

    def test_insert_child_at_position(self, algebra):
        parent = algebra.create_element(QName("", "p"))
        first = algebra.create_text("1")
        third = algebra.create_text("3")
        algebra.append_child(parent, first)
        algebra.append_child(parent, third)
        second = algebra.create_text("2")
        algebra.insert_child(parent, 1, second)
        assert [c.string_value() for c in parent.children()] == \
            ["1", "2", "3"]

    @pytest.mark.parametrize("index", [3, 99, -1])
    def test_insert_child_index_out_of_range_rejected(self, algebra,
                                                      index):
        # list.insert would clamp 99 and count -1 from the end.
        parent = algebra.create_element(QName("", "p"))
        algebra.append_child(parent, algebra.create_text("1"))
        algebra.append_child(parent, algebra.create_text("2"))
        before = list(parent.children())
        stray = algebra.create_text("x")
        with pytest.raises(AlgebraError, match=r"out of range 0\.\.2"):
            algebra.insert_child(parent, index, stray)
        assert list(parent.children()) == before
        assert stray.parent_or_none() is None

    def test_remove_child(self, algebra):
        parent = algebra.create_element(QName("", "p"))
        child = algebra.create_text("t")
        algebra.append_child(parent, child)
        algebra.remove_child(parent, child)
        assert not parent.children()
        assert child.parent_or_none() is None

    def test_remove_non_child_rejected(self, algebra):
        parent = algebra.create_element(QName("", "p"))
        with pytest.raises(AlgebraError):
            algebra.remove_child(parent, algebra.create_text("t"))

    def test_reparenting_rejected(self, algebra):
        p1 = algebra.create_element(QName("", "p1"))
        p2 = algebra.create_element(QName("", "p2"))
        child = algebra.create_text("t")
        algebra.append_child(p1, child)
        with pytest.raises(AlgebraError):
            algebra.append_child(p2, child)

    def test_cross_algebra_adoption_rejected(self, algebra):
        other = StateAlgebra()
        parent = algebra.create_element(QName("", "p"))
        foreign = other.create_text("t")
        with pytest.raises(AlgebraError):
            algebra.append_child(parent, foreign)

    def test_document_single_element_child(self, algebra):
        document = algebra.create_document()
        algebra.append_child(document,
                             algebra.create_element(QName("", "a")))
        with pytest.raises(AlgebraError):
            algebra.append_child(document,
                                 algebra.create_element(QName("", "b")))

    def test_document_child_must_be_element(self, algebra):
        document = algebra.create_document()
        with pytest.raises(AlgebraError):
            algebra.append_child(document, algebra.create_text("t"))

    def test_attribute_not_a_child(self, algebra):
        parent = algebra.create_element(QName("", "p"))
        attribute = algebra.create_attribute(QName("", "a"), "v")
        with pytest.raises(AlgebraError):
            algebra.append_child(parent, attribute)

    def test_attach_attribute(self, algebra):
        element = algebra.create_element(QName("", "e"))
        attribute = algebra.create_attribute(QName("", "a"), "v")
        algebra.attach_attribute(element, attribute)
        assert list(element.attributes()) == [attribute]

    def test_duplicate_attribute_name_rejected(self, algebra):
        element = algebra.create_element(QName("", "e"))
        algebra.attach_attribute(
            element, algebra.create_attribute(QName("", "a"), "1"))
        with pytest.raises(AlgebraError):
            algebra.attach_attribute(
                element, algebra.create_attribute(QName("", "a"), "2"))

    def test_text_cannot_have_children(self, algebra):
        text = algebra.create_text("t")
        with pytest.raises(AlgebraError):
            algebra.append_child(text, algebra.create_text("u"))

    def test_parent_child_consistency_check(self, algebra):
        parent = algebra.create_element(QName("", "p"))
        algebra.append_child(parent, algebra.create_text("t"))
        algebra.attach_attribute(
            parent, algebra.create_attribute(QName("", "a"), "1"))
        for node in algebra.nodes():
            for child in node.children():
                assert child.parent_or_none() is node
            for attribute in node.attributes():
                assert attribute.parent_or_none() is node


class TestBuildElementTree:
    def test_nested_spec(self, algebra):
        element = build_element_tree(
            algebra,
            ("a", {"x": "1"}, ["hi", ("b", {}, ["there"])]))
        assert element.name.local == "a"
        assert element.string_value() == "hithere"
        assert element.attributes().head().string_value() == "1"

    def test_string_root_rejected(self, algebra):
        with pytest.raises(AlgebraError):
            build_element_tree(algebra, "just text")


class TestTree:
    def _tree(self, algebra) -> Tree:
        element = build_element_tree(
            algebra, ("r", {"k": "v"}, [("a", {}, ["x"]), ("b", {}, [])]))
        return Tree(element)

    def test_root_function(self, algebra):
        tree = self._tree(algebra)
        assert root(tree) is tree.root_node

    def test_roots_function(self, algebra):
        t1 = self._tree(algebra)
        t2 = self._tree(algebra)
        assert list(roots([t1, t2])) == [t1.root_node, t2.root_node]

    def test_size_counts_all_node_kinds(self, algebra):
        tree = self._tree(algebra)
        # r + @k + a + text + b
        assert tree.size() == 5

    def test_depth(self, algebra):
        tree = self._tree(algebra)
        assert tree.depth() == 3  # r -> a -> text

    def test_document_order_of_nodes(self, algebra):
        tree = self._tree(algebra)
        kinds = [n.node_kind() for n in tree.nodes()]
        assert kinds == ["element", "attribute", "element", "text",
                         "element"]

    def test_attribute_cannot_root_tree(self, algebra):
        attribute = algebra.create_attribute(QName("", "a"), "v")
        with pytest.raises(AlgebraError):
            Tree(attribute)

    def test_well_formedness(self, algebra):
        tree = self._tree(algebra)
        assert is_well_formed_tree(tree)

    def test_document_tree_requires_document(self, algebra):
        with pytest.raises(AlgebraError):
            document_tree(algebra.create_element(QName("", "e")))

    def test_element_subtrees(self, algebra):
        tree = self._tree(algebra)
        subtrees = element_subtrees(tree.root_node)
        assert [t.root_node.name.local for t in subtrees] == ["a", "b"]

    def test_subtree(self, algebra):
        tree = self._tree(algebra)
        a = tree.root_node.element_children()[0]
        assert subtree(a).size() == 2

    def test_pretty_output(self, algebra):
        tree = self._tree(algebra)
        text = pretty(tree)
        assert "element r" in text
        assert "@k='v'" in text
