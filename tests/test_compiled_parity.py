"""Closure-chain executors agree node-for-node with the oracle.

The lowering of :mod:`repro.query.compiled` must be invisible to every
caller: for each query of the parity corpus, ``execute_compiled`` (the
one production route) returns nid-identical results to the one
interpreter, ``evaluate_store`` over the storage (``evaluate_naive``)
— for every strategy the planner emits (scan / hybrid / empty / naive
/ index), after DDL (closure chains re-lower against the fresh probe
bindings) and after data mutations (schema-bound closures see live
block chains, so no recompilation is needed or taken).  A generated
property extends the hand-written corpus to the whole path grammar,
every planner policy, with and without indexes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.query import POLICIES, StorageQueryEngine, evaluate_store
from repro.storage import StorageEngine
from repro.workloads import make_library_document
from repro.xmlio import parse_document, serialize_document
from repro.xmlio.qname import QName

from tests.test_query_parity import (
    _SHELF_DOC,
    DESCENDANT_POSITIONAL,
    INNER_PREDICATES,
    MULTI_SCHEMA_MERGES,
)

#: The full parity corpus — every shape the planner special-cases.
CORPUS = DESCENDANT_POSITIONAL + INNER_PREDICATES + MULTI_SCHEMA_MERGES


def _setup(text):
    engine = StorageEngine()
    engine.load_document(parse_document(text))
    return engine, StorageQueryEngine(engine)


def _nids(descriptors):
    return [descriptor.nid for descriptor in descriptors]


def _assert_compiled_parity(queries, path):
    """The closure chain (cold and warm) agrees node-for-node with the
    oracle — ``evaluate_naive``, which *is* ``evaluate_store``."""
    plan = queries.compile(path)
    oracle = _nids(evaluate_store(queries.store, path))
    assert _nids(queries.evaluate_naive(path)) == oracle
    cold = _nids(plan.execute_compiled(queries))
    assert plan.executor is not None, "lowering did not happen"
    warm = _nids(plan.execute_compiled(queries))
    assert cold == oracle
    assert warm == oracle
    return plan


@pytest.fixture(scope="module")
def shelf_queries():
    return _setup(_SHELF_DOC)[1]


@pytest.fixture(scope="module")
def library_queries():
    text = serialize_document(
        make_library_document(books=25, papers=25, seed=11))
    return _setup(text)[1]


@pytest.mark.parametrize("path", CORPUS)
def test_shelf_corpus_compiled_parity(shelf_queries, path):
    _assert_compiled_parity(shelf_queries, path)


@pytest.mark.parametrize("path", CORPUS)
def test_library_corpus_compiled_parity(library_queries, path):
    _assert_compiled_parity(library_queries, path)


# ---------------------------------------------------------------------------
# The same contract over generated paths: the whole paths.py grammar,
# every policy, with and without indexes.

_LIBRARY_DOC = serialize_document(
    make_library_document(books=12, papers=6, seed=3, year_attrs=True))

#: Per fixture: root-to-leaf element chains the generator walks (so
#: most drawn paths select something), the names and literals its
#: predicates use (present ones plus ``zzz``, which nothing carries)
#: and the indexes of the indexed variant.
_FIXTURES = {
    "shelf": (_SHELF_DOC,
              ("lib/book/t", "lib/book/a", "lib/shelf/book/t",
               "lib/shelf/book/a"),
              ("book", "shelf", "t", "a", "zzz"), ("lang", "year", "zzz"),
              ("en", "fr", "1977", "Joyce", "Molloy", "zzz"),
              (("lib/book/@lang", {}), ("lib/book/a", {}),
               ("lib/shelf/book/@lang", {}),
               ("//a", {"kind": "path"}), ("//book", {"kind": "path"}))),
    "library": (_LIBRARY_DOC,
                ("library/book/title", "library/book/author",
                 "library/book/issue/publisher", "library/book/issue/year",
                 "library/paper/title", "library/paper/author"),
                ("title", "author", "issue", "year", "zzz"),
                ("year", "zzz"),
                ("1973", "1980", "1987", "Codd", "zzz"),
                (("library/book/@year", {"value_type": "integer"}),
                 ("library/book/author", {}),
                 ("//author", {"kind": "path"}),
                 ("//title", {"kind": "path"}))),
}


def _policy_engines(text, ddl):
    engine, _ = _setup(text)
    for target, options in ddl:
        engine.create_index(target, **options)
    return [StorageQueryEngine(engine, planner_policy=policy)
            for policy in POLICIES]


@pytest.fixture(scope="module")
def generated_engines():
    return {name: (_policy_engines(text, ()), _policy_engines(text, ddl))
            for name, (text, *_, ddl) in _FIXTURES.items()}


@st.composite
def _paths(draw):
    """(fixture name, path text) drawn from the paths.py grammar: a
    chain with steps dropped behind ``//``, wildcards, an optional
    ``text()`` / attribute last step, and up to two predicates on any
    element step."""
    fixture = draw(st.sampled_from(sorted(_FIXTURES)))
    _, chains, names, attributes, literals, _ = _FIXTURES[fixture]
    value = st.one_of(st.just(""), st.sampled_from(literals).map(
        lambda literal: f"='{literal}'"))
    predicate = st.one_of(
        st.integers(1, 3).map(lambda n: f"[{n}]"),
        st.just("[last()]"),
        st.tuples(st.sampled_from(attributes), value).map(
            lambda pair: f"[@{pair[0]}{pair[1]}]"),
        st.tuples(st.sampled_from(names), value).map(
            lambda pair: f"[{pair[0]}{pair[1]}]"))
    chain = draw(st.sampled_from(chains)).split("/")
    chain = chain[:draw(st.integers(1, len(chain)))]
    tail = draw(st.sampled_from(
        ("", "", "", "/text()", "//text()", "/@*", "//@*")
        + tuple(f"/@{name}" for name in attributes)))
    text, skipped = "", False
    for position, name in enumerate(chain):
        last = position == len(chain) - 1
        if not last and draw(st.integers(0, 3)) == 0:
            skipped = True
            continue
        descendant = skipped or draw(st.integers(0, 4)) == 0
        # ``//*`` selects ancestor-related nodes; a further step below
        # them is where the oracle's per-context order stops being
        # document order (ROADMAP, correctness) — keep it last.
        wild = (draw(st.integers(0, 5)) == 0
                and (not descendant or last and "text()" not in tail))
        text += ("//" if descendant else "/") + ("*" if wild else name)
        text += "".join(draw(st.lists(predicate, max_size=2)))
        skipped = False
    text += tail
    return fixture, text


@settings(max_examples=300, deadline=None)
@given(drawn=_paths())
def test_every_policy_matches_the_oracle_on_generated_paths(
        generated_engines, drawn):
    fixture, path = drawn
    for engines in generated_engines[fixture]:
        oracle = _nids(evaluate_store(engines[0].store, path))
        for policy, queries in zip(POLICIES, engines):
            queries.clear_caches()
            cold = _nids(queries.evaluate(path))
            warm = _nids(queries.evaluate(path))
            assert cold == oracle, (policy, path)
            assert warm == oracle, (policy, path)


def test_corpus_covers_the_interpreter_strategies(shelf_queries):
    """The corpus exercises every non-index strategy, so the parity
    runs above are not vacuous."""
    strategies = {shelf_queries.compile(path).strategy
                  for path in CORPUS}
    assert {"scan", "hybrid", "naive", "empty"} <= strategies


class TestIndexStrategyParity:
    """Compiled parity for index-answered plans, across DDL."""

    @pytest.fixture()
    def setup(self):
        engine, queries = _setup(_SHELF_DOC)
        return engine, queries

    def test_value_index_probe_parity(self, setup):
        engine, queries = setup
        engine.create_index("lib/book/@lang")
        plan = _assert_compiled_parity(queries,
                                       "/lib/book[@lang='en']/t")
        assert plan.strategy == "index"

    def test_element_value_index_via_parent_parity(self, setup):
        engine, queries = setup
        engine.create_index("lib/book/a")
        plan = _assert_compiled_parity(queries, "/lib/book[a='Joyce']/t")
        assert plan.strategy == "index"

    def test_path_index_probe_parity(self, setup):
        engine, queries = setup
        engine.create_index("//a", kind="path")
        plan = _assert_compiled_parity(queries, "//a")
        assert plan.strategy == "index"

    def test_ddl_restamp_drops_the_stale_executor(self, setup):
        """CREATE INDEX on an unrelated path restamps the plan in
        place — but the closure chain is dropped and re-lowered, so it
        can never run against dead probe bindings."""
        engine, queries = setup
        path = "/lib/book[@lang='en']/t"
        plan = queries.compile(path)
        plan.execute_compiled(queries)
        assert plan.executor is not None
        engine.create_index("lib/book/@year")
        restamped = queries.compile(path)
        assert restamped is plan  # decision unchanged: kept in place
        assert plan.executor is None  # ...but the chain was dropped
        _assert_compiled_parity(queries, path)

    def test_create_then_drop_index_keeps_parity(self, setup):
        engine, queries = setup
        path = "/lib/book[@lang='en']/t"
        before_ddl = _assert_compiled_parity(queries, path)
        assert before_ddl.strategy == "hybrid"
        engine.create_index("lib/book/@lang")
        with_index = _assert_compiled_parity(queries, path)
        assert with_index.strategy == "index"
        engine.drop_index("lib/book/@lang")
        after_drop = _assert_compiled_parity(queries, path)
        assert after_drop.strategy == "hybrid"


class TestMutationParity:
    """Warm closure chains see data mutations without recompiling."""

    PATHS = ("/lib/book/t", "/lib/book[@lang='en']/t", "//a",
             "/lib/book[a]/t", "//book/@lang")

    @pytest.fixture()
    def setup(self):
        engine, queries = _setup(_SHELF_DOC)
        # Warm every executor before mutating.
        for path in self.PATHS:
            queries.evaluate(path)
        return engine, queries

    def _assert_all(self, queries):
        for path in self.PATHS:
            assert (_nids(queries.evaluate(path))
                    == _nids(queries.evaluate_naive(path)))

    def test_same_schema_insert_reuses_the_warm_executor(self, setup):
        engine, queries = setup
        path = "/lib/book/t"
        plan = queries.compile(path)
        executor = plan.executor
        assert executor is not None
        lib = engine.children(engine.document)[0]
        book = engine.insert_child(lib, 0, name=QName("", "book"))
        engine.insert_child(book, 0, name=QName("", "t"))
        engine.set_attribute(book, QName("", "lang"), "en")
        # No new schema path: the very same closure chain serves the
        # grown data.
        assert queries.compile(path).executor is executor
        self._assert_all(queries)

    def test_schema_growing_insert_invalidates_the_plan(self, setup):
        engine, queries = setup
        stale = queries.compile("/lib/book/t")
        lib = engine.children(engine.document)[0]
        engine.insert_child(lib, 0, name=QName("", "magazine"))
        fresh = queries.compile("/lib/book/t")
        assert fresh is not stale
        self._assert_all(queries)

    def test_delete_subtree_keeps_parity(self, setup):
        engine, queries = setup
        lib = engine.children(engine.document)[0]
        engine.delete_subtree(engine.children(lib)[0])
        self._assert_all(queries)

    def test_attribute_value_update_keeps_parity(self, setup):
        engine, queries = setup
        lib = engine.children(engine.document)[0]
        first_book = engine.children(lib)[0]
        engine.set_attribute(first_book, QName("", "lang"), "de",
                             replace=True)
        self._assert_all(queries)
