"""Node-for-node parity of all evaluators on the tricky path shapes.

The three evaluators (tree reference, naive navigation, schema-driven)
plus the cached-plan entry point must agree on exactly the shapes the
planner special-cases: positional predicates under ``//`` steps (whole
-selection semantics → naive), inner-step attribute/child predicates
(→ hybrid prefix scan), and paths whose result merges several schema
nodes' block lists (→ k-way label merge).
"""

import pytest

from repro.mapping import untyped_document_to_tree
from repro.query import StorageQueryEngine, evaluate_tree
from repro.storage import StorageEngine
from repro.workloads import make_library_document
from repro.xmlio import parse_document, serialize_document

_SHELF_DOC = """<lib>
  <book lang="en" year="1977"><t>Illusions</t><a>Bach</a></book>
  <book lang="ru"><t>Dead Souls</t></book>
  <book lang="en"><t>Ulysses</t><a>Joyce</a><a>Other</a></book>
  <shelf>
    <book lang="fr"><t>Nausea</t><a>Sartre</a></book>
    <book lang="en"><t>Molloy</t></book>
  </shelf>
</lib>"""

#: Positional predicates under // steps (counted per parent, as in XPath).
DESCENDANT_POSITIONAL = (
    "//book[1]",
    "//book[2]/t",
    "//book[last()]",
    "//t[1]",
    "//a[last()]",
    "//book[4]/t",
    "//book[9]",
)

#: Predicates on inner steps (the hybrid strategy's territory).
INNER_PREDICATES = (
    "/lib/book[@lang='en']/t",
    "/lib/book[@lang='en'][2]/t",
    "/lib/book[@year]/a",
    "/lib/book[a]/t",
    "/lib/book[a='Joyce']/t",
    "//book[@lang='en']/t",
    "//book[@lang]/a",
    "//book[a]/t",
    "/lib/book[1]/a",
    "/lib/book[last()]/a",
    "/lib/shelf/book[@lang='fr']/a",
    "/lib/book[@zzz]/t",
    # A position counts every matched schema node's instances, also
    # those a later value predicate can never hold on (the shelf).
    "/lib/*[last()][@lang]",
    "/lib/*[4][a]/t",
    # Attribute steps on the descendant axis below the scanned prefix.
    "/lib[book]//@lang",
    "/lib[shelf]//@*",
)

#: Results merged across several schema nodes' block lists.
MULTI_SCHEMA_MERGES = (
    "//book",
    "//t",
    "//a",
    "//t/text()",
    "//book/@lang",
    "/lib/*/t",
)


def _storage_setup(text):
    document = parse_document(text)
    engine = StorageEngine()
    engine.load_document(document)
    return engine, StorageQueryEngine(engine)


@pytest.fixture(scope="module")
def shelf():
    tree = untyped_document_to_tree(parse_document(_SHELF_DOC))
    engine, queries = _storage_setup(_SHELF_DOC)
    return tree, engine, queries


@pytest.fixture(scope="module")
def library():
    text = serialize_document(
        make_library_document(books=25, papers=25, seed=11))
    tree = untyped_document_to_tree(parse_document(text))
    engine, queries = _storage_setup(text)
    return tree, engine, queries


def _assert_parity(tree, engine, queries, path):
    """All four evaluation routes agree node-for-node."""
    from_tree = [node.string_value()
                 for node in evaluate_tree(tree, path)]
    naive = queries.evaluate_naive(path)
    driven = queries.evaluate_schema_driven(path)
    cached_cold = queries.evaluate(path)
    cached_warm = queries.evaluate(path)
    # Node-for-node: identical labels in identical order.
    assert [d.nid for d in driven] == [d.nid for d in naive]
    assert [d.nid for d in cached_cold] == [d.nid for d in naive]
    assert [d.nid for d in cached_warm] == [d.nid for d in naive]
    # And the storage answer matches the reference semantics.
    assert [engine.string_value(d) for d in naive] == from_tree


@pytest.mark.parametrize("path", DESCENDANT_POSITIONAL)
def test_descendant_positional_parity(shelf, path):
    _assert_parity(*shelf, path)


@pytest.mark.parametrize("path", INNER_PREDICATES)
def test_inner_predicate_parity(shelf, path):
    _assert_parity(*shelf, path)


@pytest.mark.parametrize("path", MULTI_SCHEMA_MERGES)
def test_multi_schema_merge_parity(shelf, path):
    _assert_parity(*shelf, path)


@pytest.mark.parametrize(
    "path",
    DESCENDANT_POSITIONAL[:4] + INNER_PREDICATES[:6]
    + MULTI_SCHEMA_MERGES[:4])
def test_parity_on_scaled_library(library, path):
    """The same shapes over the scaled Example 8 workload (paths that
    name the shelf fixture's tags simply select nothing here — the
    empty results must also agree)."""
    _assert_parity(*library, path)


def test_merge_results_stay_in_document_order(library):
    _tree, _engine, queries = library
    for path in MULTI_SCHEMA_MERGES:
        symbols = [d.nid.symbols() for d in queries.evaluate(path)]
        assert symbols == sorted(symbols)
