"""Common infrastructure for comparing numbering schemes.

The paper's Section 9.3 cites several label families ([1, 5, 12, 19,
22]); we implement the two classic baselines the literature compares
Dewey-style schemes against — naive Dewey ordinals (relabel siblings on
insert, [19]) and tight pre/post intervals (global renumber, [12]) —
behind one interface, plus the adapter for the paper's gap-based Sedna
scheme.  A shared :class:`SimTree` provides the abstract ordered tree
the schemes label.
"""

from __future__ import annotations

from typing import Iterator

from repro import obs
from repro.errors import LabelError


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
