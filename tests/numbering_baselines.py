"""The tests' numbering baselines and the Proposition 1 update harness.

The paper's Section 9.3 cites several label families ([1, 5, 12, 19,
22]).  The suite compares the paper's gap-based scheme
(:mod:`repro.storage.labels`) against the two classic baselines the
literature measures Dewey-style schemes by — naive Dewey ordinals
(relabel siblings on insert, [19]) and tight pre/post intervals (global
renumber, [12]) — behind one interface.  A shared :class:`SimTree`
provides the abstract ordered tree the schemes label, and
:class:`UpdateWorkload` is a reproducible random sequence of subtree
insertions and deletions applied to it: after each operation it
cross-checks a sample of label-derived relations against the
structural ground truth, then reports the metrics the NID claims
assert (``tests/test_paper_claims.py``): relabels and label-size
growth.

Nothing in the package imports this module; the baselines are the
contrast of Section 9.3, not part of the product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import obs
from repro.errors import LabelError
from repro.storage.labels import (
    NidLabel,
    NumberingScheme,
    before as label_before,
    is_ancestor as label_is_ancestor,
)


class SimNode:
    """A node of the abstract ordered tree used by the comparisons."""

    __slots__ = ("node_id", "parent", "children")

    def __init__(self, node_id: int, parent: "SimNode | None") -> None:
        self.node_id = node_id
        self.parent = parent
        self.children: list[SimNode] = []

    def iter_subtree(self) -> Iterator["SimNode"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def subtree_size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    def __repr__(self) -> str:
        return f"SimNode#{self.node_id}"


class SimTree:
    """A mutable ordered tree; schemes maintain labels for its nodes."""

    def __init__(self) -> None:
        self._next_id = 0
        self.root = self._new_node(None)

    def _new_node(self, parent: SimNode | None) -> SimNode:
        node = SimNode(self._next_id, parent)
        self._next_id += 1
        return node

    def insert(self, parent: SimNode, index: int) -> SimNode:
        """Structurally insert a new child; labelling is the scheme's
        job (this method does not touch labels)."""
        if not 0 <= index <= len(parent.children):
            raise LabelError(f"index {index} out of range")
        node = self._new_node(parent)
        parent.children.insert(index, node)
        return node

    def delete(self, node: SimNode) -> None:
        if node.parent is None:
            raise LabelError("cannot delete the root")
        node.parent.children.remove(node)
        node.parent = None

    def size(self) -> int:
        return self.root.subtree_size()

    def document_order(self) -> list[SimNode]:
        return list(self.root.iter_subtree())

    def build_uniform(self, depth: int, fanout: int) -> None:
        """Populate with a uniform (depth, fanout) tree below the root."""
        def grow(node: SimNode, level: int) -> None:
            if level == 0:
                return
            for index in range(fanout):
                child = self.insert(node, index)
                grow(child, level - 1)
        grow(self.root, depth)


class NumberingBaseline:
    """Interface every scheme under comparison implements.

    ``relabel_count`` accumulates how many *existing* labels changed
    across all updates — the Proposition 1 metric.
    """

    name = "abstract"

    def __init__(self, tree: SimTree) -> None:
        self.tree = tree
        self.relabel_count = 0
        # Materialize the per-scheme relabel counter at zero so a
        # scheme that never relabels (Proposition 1) still reports
        # an explicit 0 in every metrics snapshot.
        obs.REGISTRY.counter(f"numbering.relabels.{self.name}")

    def note_relabels(self, count: int) -> None:
        """Record *count* existing labels changed by one update — the
        Proposition 1 metric, mirrored into the metrics registry."""
        if count <= 0:
            return
        self.relabel_count += count
        obs.REGISTRY.counter(f"numbering.relabels.{self.name}").inc(count)

    def load(self) -> None:
        """Assign initial labels to the whole tree."""
        raise NotImplementedError

    def on_insert(self, node: SimNode) -> None:
        """Label a just-inserted node (and relabel whatever the scheme
        requires, counting into ``relabel_count``)."""
        raise NotImplementedError

    def on_delete(self, node: SimNode) -> None:
        """Forget the labels of a removed subtree (and relabel if the
        scheme requires it)."""
        raise NotImplementedError

    def before(self, a: SimNode, b: SimNode) -> bool:
        """Document order from labels alone."""
        raise NotImplementedError

    def is_ancestor(self, a: SimNode, b: SimNode) -> bool:
        """Ancestorship from labels alone."""
        raise NotImplementedError

    def label_bytes(self, node: SimNode) -> int:
        """Size of the node's label, for growth measurements."""
        raise NotImplementedError

    def total_label_bytes(self) -> int:
        return sum(self.label_bytes(node)
                   for node in self.tree.document_order())

    def max_label_bytes(self) -> int:
        return max(self.label_bytes(node)
                   for node in self.tree.document_order())


class DeweyBaseline(NumberingBaseline):
    """Ordinal-tuple labels with sibling renumbering on insert.

    A node's label is the tuple of 1-based sibling ordinals on its root
    path.  Structural relations are trivial (lexicographic order, prefix
    ancestorship) but an insertion at position *i* renumbers every later
    sibling — and, because the ordinal is a label *prefix* of the whole
    subtree, every node inside those siblings' subtrees too.
    """

    name = "dewey"

    def __init__(self, tree: SimTree) -> None:
        super().__init__(tree)
        self._labels: dict[int, tuple[int, ...]] = {}

    # -- labelling ---------------------------------------------------------

    def load(self) -> None:
        self._labels.clear()
        self._label_subtree(self.tree.root, ())

    def _label_subtree(self, node: SimNode,
                       prefix: tuple[int, ...]) -> int:
        """(Re)label a subtree; returns how many labels were written."""
        written = 1
        self._labels[node.node_id] = prefix
        for ordinal, child in enumerate(node.children, start=1):
            written += self._label_subtree(child, prefix + (ordinal,))
        return written

    def on_insert(self, node: SimNode) -> None:
        parent = node.parent
        if parent is None:
            raise LabelError("cannot insert a second root")
        index = parent.children.index(node)
        prefix = self._labels[parent.node_id]
        self._labels[node.node_id] = prefix + (index + 1,)
        # Renumber every following sibling subtree: ordinals shifted.
        for ordinal in range(index + 1, len(parent.children)):
            sibling = parent.children[ordinal]
            self.note_relabels(self._label_subtree(
                sibling, prefix + (ordinal + 1,)))

    def on_delete(self, node: SimNode) -> None:
        parent = node.parent
        if parent is None:
            raise LabelError("node already detached")
        index = parent.children.index(node)
        for stale in node.iter_subtree():
            self._labels.pop(stale.node_id, None)
        prefix = self._labels[parent.node_id]
        # Siblings after the gap shift down by one.
        for ordinal in range(index + 1, len(parent.children)):
            sibling = parent.children[ordinal]
            self.note_relabels(self._label_subtree(
                sibling, prefix + (ordinal,)))

    # -- relations -----------------------------------------------------------

    def label(self, node: SimNode) -> tuple[int, ...]:
        return self._labels[node.node_id]

    def before(self, a: SimNode, b: SimNode) -> bool:
        return self.label(a) < self.label(b)

    def is_ancestor(self, a: SimNode, b: SimNode) -> bool:
        la, lb = self.label(a), self.label(b)
        return len(la) < len(lb) and lb[:len(la)] == la

    def label_bytes(self, node: SimNode) -> int:
        # Four bytes per ordinal, the common packed representation.
        return 4 * len(self.label(node))


class IntervalBaseline(NumberingBaseline):
    """(start, end) interval labels with global renumbering.

    Each node carries an interval ``(start, end)`` assigned by one
    depth-first pass: ``start`` is the preorder rank and ``end`` the
    largest rank in the subtree.  Document order compares ``start``,
    ancestorship is interval containment — both O(1), the fastest
    relations of the three schemes.  The price is updates: with tight
    (gap-free) intervals an insertion renumbers every node whose rank
    shifts, O(n) in the worst case.
    """

    name = "interval"

    def __init__(self, tree: SimTree) -> None:
        super().__init__(tree)
        self._intervals: dict[int, tuple[int, int]] = {}

    # -- labelling ---------------------------------------------------------

    def load(self) -> None:
        self._intervals.clear()
        self._renumber(initial=True)

    def _renumber(self, initial: bool = False) -> None:
        """One depth-first pass assigning tight intervals; counts every
        changed existing label into ``relabel_count``."""
        counter = 0

        def visit(node: SimNode) -> int:
            nonlocal counter
            start = counter
            counter += 1
            for child in node.children:
                visit(child)
            end = counter - 1
            old = self._intervals.get(node.node_id)
            new = (start, end)
            if old != new:
                if old is not None and not initial:
                    self.note_relabels(1)
                self._intervals[node.node_id] = new
            return end

        visit(self.tree.root)

    def on_insert(self, node: SimNode) -> None:
        # Tight intervals leave no gap to place the new label in; the
        # classic scheme renumbers (here: the whole document pass, which
        # touches exactly the shifted suffix).
        self._renumber()

    def on_delete(self, node: SimNode) -> None:
        for stale in node.iter_subtree():
            self._intervals.pop(stale.node_id, None)
        # Deletion leaves gaps, which intervals tolerate: containment
        # and order stay valid, so no renumbering is required.

    # -- relations -----------------------------------------------------------

    def interval(self, node: SimNode) -> tuple[int, int]:
        try:
            return self._intervals[node.node_id]
        except KeyError:
            raise LabelError(f"{node!r} has no interval") from None

    def before(self, a: SimNode, b: SimNode) -> bool:
        return self.interval(a)[0] < self.interval(b)[0]

    def is_ancestor(self, a: SimNode, b: SimNode) -> bool:
        start_a, end_a = self.interval(a)
        start_b, end_b = self.interval(b)
        return start_a < start_b and end_b <= end_a

    def label_bytes(self, node: SimNode) -> int:
        return 8  # two packed 32-bit ranks


class SednaAdapter(NumberingBaseline):
    """Gap-based Dewey labels (Section 9.3): updates never relabel."""

    name = "sedna"

    def __init__(self, tree: SimTree, base: int = 256) -> None:
        super().__init__(tree)
        self._scheme = NumberingScheme(base)
        self._labels: dict[int, NidLabel] = {}

    # -- labelling ---------------------------------------------------------

    def load(self) -> None:
        self._labels.clear()
        root_label = self._scheme.root_label()
        self._labels[self.tree.root.node_id] = root_label
        self._load_children(self.tree.root, root_label)

    def _load_children(self, node: SimNode, label: NidLabel) -> None:
        labels = self._scheme.child_labels(label, len(node.children))
        for child, child_label in zip(node.children, labels):
            self._labels[child.node_id] = child_label
            self._load_children(child, child_label)

    def label(self, node: SimNode) -> NidLabel:
        try:
            return self._labels[node.node_id]
        except KeyError:
            raise LabelError(f"{node!r} has no label") from None

    def on_insert(self, node: SimNode) -> None:
        parent = node.parent
        if parent is None:
            raise LabelError("cannot insert a second root")
        index = parent.children.index(node)
        left = parent.children[index - 1] if index > 0 else None
        right = (parent.children[index + 1]
                 if index + 1 < len(parent.children) else None)
        label = self._scheme.child_label(
            self.label(parent),
            self.label(left) if left is not None else None,
            self.label(right) if right is not None else None)
        self._labels[node.node_id] = label
        self._load_children(node, label)
        # relabel_count untouched: Proposition 1.

    def on_delete(self, node: SimNode) -> None:
        for stale in node.iter_subtree():
            self._labels.pop(stale.node_id, None)

    # -- relations -----------------------------------------------------------

    def before(self, a: SimNode, b: SimNode) -> bool:
        return label_before(self.label(a), self.label(b))

    def is_ancestor(self, a: SimNode, b: SimNode) -> bool:
        return label_is_ancestor(self.label(a), self.label(b))

    def label_bytes(self, node: SimNode) -> int:
        return len(self.label(node))  # one byte per Ω symbol


@dataclass
class WorkloadStats:
    """Outcome of one scheme under one workload."""

    scheme: str
    operations: int = 0
    inserts: int = 0
    deletes: int = 0
    relabels: int = 0
    max_label_bytes: int = 0
    total_label_bytes: int = 0
    checks: int = 0
    node_count: int = 0

    @property
    def relabels_per_op(self) -> float:
        return self.relabels / self.operations if self.operations else 0.0

    @property
    def mean_label_bytes(self) -> float:
        if not self.node_count:
            return 0.0
        return self.total_label_bytes / self.node_count


def structural_before(a: SimNode, b: SimNode) -> bool:
    """Ground-truth document order by root-path comparison."""
    def path(node: SimNode) -> list[int]:
        out = []
        while node.parent is not None:
            out.append(node.parent.children.index(node))
            node = node.parent
        out.reverse()
        return out
    return path(a) < path(b)


def structural_is_ancestor(a: SimNode, b: SimNode) -> bool:
    node = b.parent
    while node is not None:
        if node is a:
            return True
        node = node.parent
    return False


class UpdateWorkload:
    """A reproducible insert/delete sequence applied to one scheme."""

    def __init__(self, operations: int = 200, seed: int = 0,
                 insert_bias: float = 0.7, verify_samples: int = 8,
                 initial_depth: int = 3, initial_fanout: int = 4) -> None:
        self.operations = operations
        self.seed = seed
        self.insert_bias = insert_bias
        self.verify_samples = verify_samples
        self.initial_depth = initial_depth
        self.initial_fanout = initial_fanout

    def run(self, make_scheme: Callable[[SimTree], NumberingBaseline],
            verify: bool = True) -> WorkloadStats:
        """Apply the workload to a fresh tree labelled by *make_scheme*."""
        rng = random.Random(self.seed)
        tree = SimTree()
        tree.build_uniform(self.initial_depth, self.initial_fanout)
        scheme = make_scheme(tree)
        scheme.load()
        stats = WorkloadStats(scheme=scheme.name)

        for _ in range(self.operations):
            nodes = tree.document_order()
            do_insert = (rng.random() < self.insert_bias
                         or len(nodes) < 4)
            if do_insert:
                parent = rng.choice(nodes)
                index = rng.randint(0, len(parent.children))
                node = tree.insert(parent, index)
                scheme.on_insert(node)
                stats.inserts += 1
            else:
                candidates = [n for n in nodes if n.parent is not None]
                victim = rng.choice(candidates)
                scheme.on_delete(victim)
                tree.delete(victim)
                stats.deletes += 1
            stats.operations += 1
            if verify:
                stats.checks += self._verify(rng, tree, scheme)

        stats.relabels = scheme.relabel_count
        stats.node_count = tree.size()
        stats.max_label_bytes = scheme.max_label_bytes()
        stats.total_label_bytes = scheme.total_label_bytes()
        return stats

    def _verify(self, rng: random.Random, tree: SimTree,
                scheme: NumberingBaseline) -> int:
        """Cross-check label relations against structure on a sample."""
        nodes = tree.document_order()
        checks = 0
        for _ in range(self.verify_samples):
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a is b:
                continue
            expected = structural_before(a, b)
            actual = scheme.before(a, b)
            if expected != actual:
                raise AssertionError(
                    f"{scheme.name}: order of {a} vs {b} wrong "
                    f"(expected {expected})")
            if structural_is_ancestor(a, b) != scheme.is_ancestor(a, b):
                raise AssertionError(
                    f"{scheme.name}: ancestorship of {a} vs {b} wrong")
            checks += 1
        return checks
