"""Tests for the baseline numbering schemes and the update workload."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.numbering_baselines import (
    DeweyBaseline,
    IntervalBaseline,
    SednaAdapter,
    SimTree,
    UpdateWorkload,
    structural_before,
    structural_is_ancestor,
)


def _all_schemes(tree):
    return [SednaAdapter(tree), DeweyBaseline(tree),
            IntervalBaseline(tree)]


class TestSimTree:
    def test_uniform_build(self):
        tree = SimTree()
        tree.build_uniform(depth=2, fanout=3)
        assert tree.size() == 1 + 3 + 9

    def test_insert_and_delete(self):
        tree = SimTree()
        child = tree.insert(tree.root, 0)
        grand = tree.insert(child, 0)
        assert tree.size() == 3
        tree.delete(child)
        assert tree.size() == 1
        assert grand.parent is child  # subtree stays linked internally

    def test_structural_relations(self):
        tree = SimTree()
        a = tree.insert(tree.root, 0)
        b = tree.insert(tree.root, 1)
        c = tree.insert(a, 0)
        assert structural_before(a, b)
        assert structural_before(c, b)
        assert structural_is_ancestor(a, c)
        assert not structural_is_ancestor(a, b)


class TestSchemeCorrectness:
    @pytest.mark.parametrize("make", [
        SednaAdapter, DeweyBaseline, IntervalBaseline])
    def test_initial_labels_respect_structure(self, make):
        tree = SimTree()
        tree.build_uniform(depth=3, fanout=3)
        scheme = make(tree)
        scheme.load()
        nodes = tree.document_order()
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert scheme.before(a, b)
                assert not scheme.before(b, a)
                assert scheme.is_ancestor(a, b) == \
                    structural_is_ancestor(a, b)

    @pytest.mark.parametrize("make", [
        SednaAdapter, DeweyBaseline, IntervalBaseline])
    def test_insert_keeps_relations(self, make):
        tree = SimTree()
        tree.build_uniform(depth=2, fanout=3)
        scheme = make(tree)
        scheme.load()
        target = tree.root.children[1]
        node = tree.insert(target, 1)
        scheme.on_insert(node)
        nodes = tree.document_order()
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert scheme.before(a, b), (scheme.name, a, b)

    @pytest.mark.parametrize("make", [
        SednaAdapter, DeweyBaseline, IntervalBaseline])
    def test_delete_keeps_relations(self, make):
        tree = SimTree()
        tree.build_uniform(depth=2, fanout=3)
        scheme = make(tree)
        scheme.load()
        victim = tree.root.children[0]
        scheme.on_delete(victim)
        tree.delete(victim)
        nodes = tree.document_order()
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                assert scheme.before(a, b), (scheme.name, a, b)


class TestRelabelCounts:
    def test_sedna_never_relabels(self):
        stats = UpdateWorkload(operations=100, seed=1).run(SednaAdapter)
        assert stats.relabels == 0

    def test_dewey_relabels_siblings(self):
        stats = UpdateWorkload(operations=100, seed=1).run(DeweyBaseline)
        assert stats.relabels > 0

    def test_interval_relabels_most(self):
        workload = UpdateWorkload(operations=100, seed=1)
        dewey = workload.run(DeweyBaseline)
        interval = workload.run(IntervalBaseline)
        assert interval.relabels > dewey.relabels

    def test_front_insertions_worst_case(self):
        """Inserting repeatedly at the very front: Dewey relabels all
        siblings each time, Sedna none."""
        tree_sedna = SimTree()
        sedna = SednaAdapter(tree_sedna)
        sedna.load()
        tree_dewey = SimTree()
        dewey = DeweyBaseline(tree_dewey)
        dewey.load()
        for _ in range(25):
            node = tree_sedna.insert(tree_sedna.root, 0)
            sedna.on_insert(node)
            node = tree_dewey.insert(tree_dewey.root, 0)
            dewey.on_insert(node)
        assert sedna.relabel_count == 0
        assert dewey.relabel_count == sum(range(25))


class TestWorkloadHarness:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_verification_passes_for_all_schemes(self, seed):
        workload = UpdateWorkload(operations=40, seed=seed,
                                  verify_samples=4)
        for make in (SednaAdapter, DeweyBaseline, IntervalBaseline):
            stats = workload.run(make)
            assert stats.checks > 0
            assert stats.operations == 40

    def test_stats_shape(self):
        stats = UpdateWorkload(operations=30, seed=0).run(SednaAdapter)
        assert stats.inserts + stats.deletes == 30
        assert stats.node_count > 0
        assert stats.mean_label_bytes > 0
        assert stats.max_label_bytes >= stats.mean_label_bytes

    def test_workload_is_reproducible(self):
        workload = UpdateWorkload(operations=50, seed=7)
        first = workload.run(SednaAdapter)
        second = workload.run(SednaAdapter)
        assert first.node_count == second.node_count
        assert first.total_label_bytes == second.total_label_bytes
