"""ORD — document-order comparison: labels vs structural walking.

Section 9.3's purpose statement: numbering labels exist "to quickly
determine the structural relations between a pair of nodes".  This
experiment compares three ways of answering ``x << y`` and
ancestor/descendant over the same random node pairs:

* Sedna numbering labels (symbol comparison, no tree access),
* the structural parent-chain walk over the formal model,
* a precomputed document-order index (fast but invalidated by updates).

Expected shape: labels beat the structural walk by a growing factor as
documents deepen/grow; the index is fastest but must be rebuilt on
every update, which the NID experiment prices.
"""

import random

import pytest

from repro.order import DocumentOrderIndex, before as structural_before
from repro.order import iter_document_order
from repro.storage import before as label_before, is_ancestor
from benchmarks.conftest import SCALES

_PAIRS = 300


def _descriptor_pairs(engine, seed):
    descriptors = list(engine.iter_document_order())
    rng = random.Random(seed)
    return [(rng.choice(descriptors), rng.choice(descriptors))
            for _ in range(_PAIRS)]


def _node_pairs(tree, seed):
    nodes = list(iter_document_order(tree))
    rng = random.Random(seed)
    return [(rng.choice(nodes), rng.choice(nodes))
            for _ in range(_PAIRS)]


@pytest.mark.parametrize("scale", SCALES)
def test_order_via_labels(benchmark, storage_engines, scale):
    engine = storage_engines[scale]
    pairs = _descriptor_pairs(engine, seed=scale)

    def compare_all():
        return sum(1 for a, b in pairs if label_before(a.nid, b.nid))

    result = benchmark(compare_all)
    assert 0 <= result <= _PAIRS
    benchmark.extra_info["pairs"] = _PAIRS


@pytest.mark.parametrize("scale", SCALES)
def test_order_via_structural_walk(benchmark, untyped_library_trees,
                                   scale):
    tree = untyped_library_trees[scale]
    pairs = _node_pairs(tree, seed=scale)

    def compare_all():
        return sum(1 for a, b in pairs
                   if a is not b and structural_before(a, b))

    result = benchmark(compare_all)
    assert 0 <= result <= _PAIRS


@pytest.mark.parametrize("scale", SCALES)
def test_order_via_precomputed_index(benchmark, untyped_library_trees,
                                     scale):
    tree = untyped_library_trees[scale]
    pairs = _node_pairs(tree, seed=scale)
    index = DocumentOrderIndex(tree)

    def compare_all():
        return sum(1 for a, b in pairs if index.before(a, b))

    result = benchmark(compare_all)
    assert 0 <= result <= _PAIRS


@pytest.mark.parametrize("scale", SCALES)
def test_index_rebuild_cost(benchmark, untyped_library_trees, scale):
    """What the index costs after every update — the price labels avoid."""
    tree = untyped_library_trees[scale]

    def rebuild():
        return DocumentOrderIndex(tree)

    index = benchmark(rebuild)
    assert len(index) > 0


@pytest.mark.parametrize("scale", SCALES)
def test_sort_by_symbol_tuples(benchmark, storage_engines, scale):
    """Document-order sort keyed by the flattened symbol tuple — the
    pre-memoization baseline for bulk sorts of probe result sets."""
    engine = storage_engines[scale]
    descriptors = list(engine.iter_document_order())
    shuffled = list(descriptors)
    random.Random(scale).shuffle(shuffled)

    def sort_all():
        return sorted(shuffled, key=lambda d: d.nid.symbols())

    result = benchmark(sort_all)
    assert result == descriptors
    benchmark.extra_info["nodes"] = len(descriptors)


@pytest.mark.parametrize("scale", SCALES)
def test_sort_by_memoized_sort_key(benchmark, storage_engines, scale):
    """The same sort keyed by the memoized big-endian u16 bytes key
    (``NidLabel.sort_key``) the value indexes order postings by.
    Bytewise comparison replaces per-comparison tuple walks; the key is
    packed once per label and cached (labels are immutable, and by
    Proposition 1 never relabelled in place)."""
    engine = storage_engines[scale]
    descriptors = list(engine.iter_document_order())
    shuffled = list(descriptors)
    random.Random(scale).shuffle(shuffled)
    for descriptor in shuffled:
        descriptor.nid.sort_key()  # warm the cache: steady-state cost

    def sort_all():
        return sorted(shuffled, key=lambda d: d.nid.sort_key())

    result = benchmark(sort_all)
    assert result == descriptors
    benchmark.extra_info["nodes"] = len(descriptors)


@pytest.mark.parametrize("scale", SCALES)
def test_ancestry_via_labels(benchmark, storage_engines, scale):
    engine = storage_engines[scale]
    pairs = _descriptor_pairs(engine, seed=scale + 1)

    def check_all():
        return sum(1 for a, b in pairs if is_ancestor(a.nid, b.nid))

    benchmark(check_all)


@pytest.mark.parametrize("scale", SCALES)
def test_ancestry_via_parent_chain(benchmark, storage_engines, scale):
    engine = storage_engines[scale]
    pairs = _descriptor_pairs(engine, seed=scale + 1)

    def check_all():
        count = 0
        for a, b in pairs:
            node = b.parent
            while node is not None:
                if node is a:
                    count += 1
                    break
                node = node.parent
        return count

    result = benchmark(check_all)
    # Cross-check the two implementations agree.
    by_labels = sum(1 for a, b in pairs if is_ancestor(a.nid, b.nid))
    assert result == by_labels


@pytest.mark.parametrize("scale", SCALES)
def test_following_axis_first_result(benchmark, storage_engines, scale):
    """Label-decided following:: — time to the *first* hit from an
    early context node.  The pre-rewrite implementation materialized
    an identifier set over the whole document before yielding, so this
    number grew linearly with scale; now it tracks the block-scan
    merge's start-up cost only."""
    from repro.query import storage_following_axis

    engine = storage_engines[scale]
    library = engine.children(engine.document)[0]
    context = engine.children(library)[0]

    def first_following():
        return next(storage_following_axis(engine, context))

    result = benchmark(first_following)
    assert result is not None
    benchmark.extra_info["document_nodes"] = engine.node_count()


@pytest.mark.parametrize("scale", [10, 100])
def test_following_axis_full_drain(benchmark, storage_engines, scale):
    """Full following:: result via label comparison over the merged
    block scans."""
    from repro.query import storage_following_axis

    engine = storage_engines[scale]
    library = engine.children(engine.document)[0]
    context = engine.children(library)[0]

    def drain():
        return sum(1 for _ in storage_following_axis(engine, context))

    count = benchmark(drain)
    assert count > 0
    benchmark.extra_info["following_nodes"] = count
