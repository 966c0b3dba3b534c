"""Update workloads over numbering schemes — the Proposition 1 harness.

A workload is a reproducible random sequence of subtree insertions and
deletions applied to one :class:`~repro.numbering.base.SimTree` that
every scheme labels independently.  After each operation the runner
cross-checks a sample of label-derived relations against the structural
ground truth, then reports the metrics the NID claims assert
(``tests/test_paper_claims.py``): relabels and label-size growth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.numbering.base import NumberingBaseline, SimNode, SimTree


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
