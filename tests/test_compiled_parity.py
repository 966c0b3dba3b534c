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
every planner policy, with and without indexes — on both sides of the
walk/sweep switch of a suffix step and of a child-value predicate
(values split over several texts, empty and complex-content carriers,
the literal ``''``, wildcard contexts over two carriers), with
positional predicates over parents whose children span small,
half-emptied and split blocks, and with residual predicates behind an
index probe.
"""

from typing import Callable, NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mapping.doc_to_tree import untyped_document_to_tree
from repro.obs.explain import collect
from repro.query import (
    POLICIES,
    StorageQueryEngine,
    evaluate_store,
    evaluate_tree,
)
from repro.query.compiled import _walk
from repro.storage import StorageEngine
from repro.storage.blocks import sweep
from repro.storage.descriptor import doc_order_key
from repro.workloads import make_library_document
from repro.xmlio import parse_document, serialize_document
from repro.xdm.store import TreeNodeStore
from repro.xmlio.qname import QName

from tests.test_query_parity import (
    _SHELF_DOC,
    DESCENDANT_POSITIONAL,
    INNER_PREDICATES,
    MULTI_SCHEMA_MERGES,
)

#: The full parity corpus — every shape the planner special-cases.
CORPUS = DESCENDANT_POSITIONAL + INNER_PREDICATES + MULTI_SCHEMA_MERGES


def _setup(text, **engine_options):
    engine = StorageEngine(**engine_options)
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

#: Books per shelf of the ``stacks`` fixture.  Stored four to a block,
#: the book and ``a`` block lists hold blocks inside one parent's run,
#: blocks shared by several parents, and parents spanning many blocks.
_STACKS_SHELVES = (3, 21, 1, 10, 0, 6)


def _stacks_doc():
    shelves, number = [], 0
    for size in _STACKS_SHELVES:
        books = []
        for _ in range(size):
            attributes = f' lang="{("en", "fr", "ru")[number % 3]}"'
            if number % 7 == 0:
                attributes += ' year="1977"'
            authors = "".join(f"<a>A{(number + k) % 5}</a>"
                              for k in range(number % 4))
            books.append(f"<book{attributes}><t>T{number % 9}</t>"
                         f"{authors}</book>")
            number += 1
        shelves.append(f"<shelf>{''.join(books)}</shelf>")
    return f"<lib>{''.join(shelves)}</lib>"


def _element(engine, parent, index, name, *texts):
    """Insert ``<name>`` at *index* below *parent*, one text child per
    member of *texts*."""
    element = engine.insert_child(parent, index, name=QName("", name))
    for position, text in enumerate(texts):
        engine.insert_child(element, position, text=text)
    return element


def _churn_stacks(engine):
    """Half-empty some blocks by deletes, split others by inserts, and
    leave behind what a value sweep has to get right."""
    lib = engine.children(engine.document)[0]
    shelves = engine.children(lib)
    for book in engine.children(shelves[1])[2:14:2]:
        engine.delete_subtree(book)
    for index in (0, 4, 4, 9):
        book = _element(engine, shelves[3], index, "book")
        engine.set_attribute(book, QName("", "lang"), "en")
        _element(engine, book, 0, "t", "T1")
        for position in (1, 1, 2):
            _element(engine, book, position, "a", "A1")
    # Simple-content carriers whose value is not one text's: "A" + "1"
    # IS 'A1'; a lone "A1" with a second text behind it is not; an
    # empty <a/> has the value '' and no row in any text block.
    for index, texts in ((1, ("A", "1")), (3, ("A1", "x")), (5, ())):
        book = _element(engine, shelves[5], index, "book")
        _element(engine, book, 0, "t", "T2")
        _element(engine, book, 1, "a", *texts)
    # Two carriers below one wildcard context: /lib/*[a='A1'] reads
    # lib/shelf/a and lib/box/a.
    _element(engine, shelves[0], 0, "a", "A1")
    _element(engine, shelves[2], 1, "a", "A", "1")
    for index, text in ((2, "A1"), (4, "A2"), (7, "A1")):
        _element(engine, _element(engine, lib, index, "box"),
                 0, "a", text)
    assert engine.split_count > 0
    engine.check_invariants()


def _churn_shelf(engine):
    """Give ``lib/shelf/book/a`` complex content — no sweep can answer
    for it, ``lib/book/a`` keeps simple content: <a><b>A</b>1</a> has
    the string value 'A1', <a><b/></a> the value ''."""
    shelf = [child for child in engine.children(
        engine.children(engine.document)[0])
        if child.schema_node.step == "shelf"][0]
    books = [child for child in engine.children(shelf)
             if child.node_type == "element"]
    mixed = _element(engine, books[1], 1, "a")
    _element(engine, mixed, 0, "b", "A")
    engine.insert_child(mixed, 1, text="1")
    _element(engine, _element(engine, books[0], 1, "a"), 0, "b")
    engine.check_invariants()


class _Fixture(NamedTuple):
    text: str
    #: Root-to-leaf element chains the generator walks, so most drawn
    #: paths select something.
    chains: tuple
    #: Names and literals the generated predicates use: present ones
    #: plus ``zzz``, which nothing carries.
    names: tuple
    attributes: tuple
    literals: tuple
    #: Child-value predicates some node satisfies (a random name and a
    #: random literal seldom meet).
    carried: tuple
    #: Indexes of the indexed variant.
    ddl: tuple
    engine_options: dict = {}
    #: Mutations applied before any query runs.
    churn: Optional[Callable] = None


_FIXTURES = {
    "stacks": _Fixture(
        _stacks_doc(),
        ("lib/shelf/book/t", "lib/shelf/book/a", "lib/shelf/a",
         "lib/box/a"),
        ("book", "t", "a", "zzz"), ("lang", "year", "zzz"),
        ("en", "ru", "1977", "A1", "T1", "", "zzz"),
        ("[a='A1']", "[a='A2']", "[a='']", "[t='T2']"),
        (("lib/shelf/book/@lang", {}), ("lib/shelf/book/a", {})),
        {"block_capacity": 4}, _churn_stacks),
    "shelf": _Fixture(
        _SHELF_DOC,
        ("lib/book/t", "lib/book/a", "lib/shelf/book/t",
         "lib/shelf/book/a"),
        ("book", "shelf", "t", "a", "zzz"), ("lang", "year", "zzz"),
        ("en", "fr", "1977", "Joyce", "Molloy", "A1", "", "zzz"),
        ("[a='A1']", "[a='Joyce']", "[a='']", "[t='Molloy']"),
        (("lib/book/@lang", {}), ("lib/book/a", {}),
         ("lib/shelf/book/@lang", {})),
        churn=_churn_shelf),
    "library": _Fixture(
        _LIBRARY_DOC,
        ("library/book/title", "library/book/author",
         "library/book/issue/publisher", "library/book/issue/year",
         "library/paper/title", "library/paper/author"),
        ("title", "author", "issue", "year", "zzz"),
        ("year", "zzz"),
        ("1973", "1980", "1987", "Codd", "zzz"),
        ("[author='Codd']", "[author='Gray']", "[year='1980']"),
        (("library/book/@year", {"value_type": "integer"}),
         ("library/book/author", {}))),
    # The witness of "one order": ``a`` below ``a`` makes the contexts
    # of ``//a/x`` ancestor-related (their children interleave), and
    # the last ``b`` carries its attributes in the other order than the
    # schema first saw them.
    "witness": _Fixture(
        "<r><a><x>1</x><a><x>2</x><b y='5' x='6'/></a><x>3</x></a>"
        "<b x='1' y='2'/><b y='3' x='4'/></r>",
        ("r/a/x", "r/a/a/x", "r/a/a/b", "r/b"),
        ("a", "x", "b", "zzz"), ("x", "y", "zzz"),
        ("1", "2", "3", "6", "", "zzz"),
        ("[x='1']", "[x='2']", "[x='3']"),
        (("r/b/@x", {}), ("r/a/x", {}))),
}


def _policy_engines(fixture, ddl):
    engine, _ = _setup(fixture.text, **fixture.engine_options)
    if fixture.churn is not None:
        fixture.churn(engine)
    for target, options in ddl:
        engine.create_index(target, **options)
    return [StorageQueryEngine(engine, planner_policy=policy)
            for policy in POLICIES]


@pytest.fixture(scope="module")
def generated_engines():
    return {name: (_policy_engines(fixture, ()),
                   _policy_engines(fixture, fixture.ddl))
            for name, fixture in _FIXTURES.items()}


@st.composite
def _paths(draw):
    """(fixture name, path text) drawn from the paths.py grammar: a
    chain with steps dropped behind ``//``, wildcards, an optional
    ``text()`` / attribute last step, and up to two predicates on any
    element step."""
    fixture = draw(st.sampled_from(sorted(_FIXTURES)))
    _, chains, names, attributes, literals, carried, *_ = \
        _FIXTURES[fixture]
    value = st.one_of(st.just(""), st.sampled_from(literals).map(
        lambda literal: f"='{literal}'"))
    predicate = st.one_of(
        # Small positions, and some beyond one four-member block.
        st.sampled_from((1, 2, 3, 6, 11)).map(lambda n: f"[{n}]"),
        st.just("[last()]"),
        st.tuples(st.sampled_from(attributes), value).map(
            lambda pair: f"[@{pair[0]}{pair[1]}]"),
        st.tuples(st.sampled_from(names), value).map(
            lambda pair: f"[{pair[0]}{pair[1]}]"),
        st.sampled_from(carried))
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
        wild = draw(st.integers(0, 5)) == 0
        text += ("//" if descendant else "/") + ("*" if wild else name)
        text += "".join(draw(st.lists(predicate, max_size=2)))
        skipped = False
    text += tail
    return fixture, text


# The example budget is the selected hypothesis profile's (CI's
# ``crash-matrix``: 500), never below what tier-1 runs.
@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(drawn=_paths())
# What a value sweep must get right, under every policy whatever the
# generator draws: a value split over two texts and a lone match with
# a text behind it, the literal '' against an empty carrier, two
# carriers below one wildcard, the walk behind a selective filter,
# and complex content with and without a simple-content sibling.
@example(drawn=("stacks", "/lib/shelf/book[a='A1']/t"))
@example(drawn=("stacks", "/lib/shelf/book[a='']/t"))
@example(drawn=("stacks", "/lib/*[a='A1']"))
@example(drawn=("stacks", "/lib/shelf/book[@year='1977'][a='A1']/t"))
@example(drawn=("shelf", "/lib/shelf/book[a='A1']/t"))
@example(drawn=("shelf", "//book[a='']/t"))
# Below ``//*`` the contexts are ancestor-related: a step, a ``text()``
# and a positional predicate on a suffix step still come out in ``<<``.
@example(drawn=("stacks", "//*/t"))
@example(drawn=("stacks", "//*/a/text()"))
@example(drawn=("shelf", "//*[t]//text()"))
@example(drawn=("stacks", "//*[t]/a[2]"))
@example(drawn=("witness", "//*[x]/*[last()]"))
@example(drawn=("witness", "//*/@*"))
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


#: ``//a/x`` came back ``1 3 2`` from the tree and the storage
#: interpreter and ``1 2 3`` from a block scan; ``/r/b/@*`` ``1 2 3 4``
#: from the tree and ``1 2 4 3`` from the storage interpreter.
_WITNESS_PATHS = (
    "//a/x", "//*/x", "//*/x/text()", "//*[x]/x", "//*[x]/x[last()]",
    "//*[x]/*[1]", "/r/b/@*", "//b/@*", "//b[@x]/@*", "//*/@*",
    "//*[x]//@*",
    # Positions among attributes count along ``<<`` too: the storage
    # interpreter used to count along the schema's child order.
    "/r/b/@*[1]", "/r/b/@*[last()]", "//b/@*[2]")


@pytest.mark.parametrize("path", _WITNESS_PATHS)
def test_one_order_on_tree_storage_and_every_policy(generated_engines,
                                                    path):
    """A path result is a sequence in ``<<`` (§7) whatever evaluates
    it: the tree, the interpreter over storage and every planner policy
    (cold and warm, with and without indexes) return the same list."""
    tree = untyped_document_to_tree(
        parse_document(_FIXTURES["witness"].text))
    expected = [node.string_value() for node in evaluate_tree(tree, path)]
    assert expected, path
    for engines in generated_engines["witness"]:
        string_value = engines[0].engine.string_value
        results = [("oracle", evaluate_store(engines[0].store, path))]
        for policy, queries in zip(POLICIES, engines):
            queries.clear_caches()
            results.append((policy, queries.evaluate(path)))
            results.append((policy, queries.evaluate(path)))
        for route, result in results:
            keys = [doc_order_key(descriptor) for descriptor in result]
            assert all(a < b for a, b in zip(keys, keys[1:])), (route, path)
            assert [string_value(descriptor)
                    for descriptor in result] == expected, (route, path)


@pytest.mark.parametrize("path,expected", [
    ("/r/e[@x='1']", ["one"]), ("//e[@x='2']", ["two"]),
    ("/r/e[@x]", ["one", "two"])])
def test_the_first_attribute_of_a_local_name_is_first_in_label_order(
        path, expected):
    """``[@x=…]`` tests the first attribute whose local name is ``x``.
    Two namespaces share it here and the second ``e`` carries them in
    the other order than the schema first saw them: first means first
    in ``<<`` on the tree, the interpreter and every policy (storage
    used to take the schema's first and answer ``one two`` / nothing)."""
    text = ('<r xmlns:a="urn:a" xmlns:b="urn:b"><e a:x="1" b:x="2">one'
            '</e><e b:x="2" a:x="1">two</e></r>')
    tree = untyped_document_to_tree(parse_document(text))
    assert [node.string_value()
            for node in evaluate_tree(tree, path)] == expected
    engine, queries = _setup(text)
    routes = [evaluate_store(queries.store, path)] + [
        StorageQueryEngine(engine, planner_policy=policy).evaluate(path)
        for policy in POLICIES]
    for result in routes:
        assert [engine.string_value(d) for d in result] == expected


def test_tree_order_hook_reads_the_subtree_holding_the_results():
    """Sorting a tree-side result costs one position map over the
    smallest subtree that holds it — not the document, which would make
    a FLWOR that navigates from each of its items quadratic."""
    class Counting(TreeNodeStore):
        expanded = 0

        def children(self, ref):
            self.expanded += 1
            return super().children(ref)

    store = Counting()
    tree = untyped_document_to_tree(
        make_library_document(books=200, papers=0, seed=5))
    books = evaluate_store(store, "/library/book", tree)
    book = max(books, key=lambda node: len(
        evaluate_store(store, "/author", node)))
    store.expanded = 0
    authors = evaluate_store(store, "/author", book)
    expanded = store.expanded
    assert len(authors) > 1
    subtree = sum(1 for _ in store.iter_document_order(book))
    assert expanded <= subtree + 1 < len(books)


def _stage_names(queries, path):
    """Stage names of one explained evaluation, checked for parity."""
    with collect(path) as record:
        result = queries.evaluate(path)
    assert _nids(result) == _nids(queries.evaluate_naive(path)), path
    return [name for name, _ in record.stage_ns], record.nodes_visited


def test_stacks_fixture_reaches_every_route(generated_engines):
    """The generated property is not vacuous on the new routes: the
    ``stacks`` fixture puts context sets on both sides of the
    walk/sweep switch — of a step and of a child-value predicate —
    fuses positional predicates into scans whose runs cross block
    boundaries, and lowers residual predicates of both kinds behind a
    probe."""
    plain, indexed = (engines[0] for engines in generated_engines["stacks"])
    blocks = plain.engine.schema.find_path("lib/shelf/book").block_count()
    assert blocks > len(_STACKS_SHELVES)
    for path, expected in (
            ("/lib/shelf/book[@year='1977']/t",
             ["scan[lib/shelf/book]", "predicate[@year]", "step[t]/walk"]),
            ("/lib/shelf/book[@lang]/t",
             ["scan[lib/shelf/book]", "predicate[@lang]", "step[t]/sweep"]),
            ("/lib/shelf/book[6]/a",
             ["scan-pos[lib/shelf/book][6]", "step[a]/walk"]),
            ("/lib/shelf/book[last()]/t",
             ["scan-pos[lib/shelf/book][last()]", "step[t]/walk"]),
            ("/lib/shelf/book[@lang='en'][2]/t",
             ["scan[lib/shelf/book]", "predicate[@lang]",
              "predicate[pos]", "step[t]/walk"]),
            ("/lib/shelf/book/a[last()]",
             ["scan-pos[lib/shelf/book/a][last()]"]),
            # Every book is a context: the value side is swept, and the
            # split "A" + "1" is found, the "A1" + "x" is not.
            ("/lib/shelf/book[a='A1']/t",
             ["scan[lib/shelf/book]", "predicate[a=…]/sweep",
              "step[t]/sweep"]),
            # A handful of contexts walk to their own authors.
            ("/lib/shelf/book[@year='1977'][a='A1']/t",
             ["scan[lib/shelf/book]", "predicate[@year]",
              "predicate[a=…]/walk", "step[t]/walk"]),
            # No text block has a row for the empty <a/>.
            ("/lib/shelf/book[a='']/t",
             ["scan[lib/shelf/book]", "predicate[a=…]/walk",
              "step[t]/walk"])):
        assert _stage_names(plain, path)[0] == expected, path
    assert len(plain.evaluate("/lib/shelf/book[a='']")) == 1
    # One sweep over the text blocks of two carriers (the cost rule
    # navigates a document this small, so the scan is forced).
    scan = generated_engines["stacks"][0][POLICIES.index("scan")]
    assert _stage_names(scan, "/lib/*[a='A1']")[0] == [
        "scan-merge[2]", "predicate[a=…]/sweep"]
    assert len(scan.evaluate("/lib/*[a='A1']")) == 4
    structural = generated_engines["stacks"][1][POLICIES.index("structural")]
    names, _ = _stage_names(
        structural, "/lib/shelf/book[@lang='en'][a='A1'][@year]/t")
    assert names == ["probe[eq]", "predicate[a=…]/sweep",
                     "predicate[@year]", "step[t]/walk"]
    names, _ = _stage_names(
        indexed, "/lib/shelf/book[a='A1'][@lang='en'][2]/t")
    assert names[0] in ("probe[eq]", "probe[eq/parent]")
    assert "predicate[pos]" in names


def test_complex_content_carriers_are_walked(generated_engines):
    """``lib/shelf/book/a`` of the ``shelf`` fixture has an element
    schema child: its value is not its text children's, so however
    many contexts there are the predicate walks and builds the string
    value — also where a ``//`` context reaches a simple-content
    carrier too."""
    plain = generated_engines["shelf"][0][0]
    for path, found in (("/lib/shelf/book[a='A1']/t", 1),
                        ("//book[a='A1']", 1),
                        ("//book[a='']/t", 1),
                        ("//book[a='Joyce']/t", 1)):
        names, _ = _stage_names(plain, path)
        assert "predicate[a=…]/walk" in names, path
        assert len(plain.evaluate(path)) == found, path
    # The simple-content carrier alone is still swept.
    names, _ = _stage_names(plain, "/lib/book[a='Joyce']/t")
    assert "predicate[a=…]/sweep" in names


def test_node_visits_follow_the_answer_not_the_document():
    """At 1,000 books a probe-then-step and a positional step read
    O(result + blocks) descriptors, not every book or every title."""
    document = make_library_document(books=1000, papers=10, seed=2,
                                     year_attrs=True)
    engine = StorageEngine()
    engine.load_document(document)
    engine.create_index("library/book/@year", value_type="integer")
    queries = StorageQueryEngine(engine)
    books = engine.schema.find_path("library/book")
    assert books.descriptor_count == 1000
    blocks, capacity = books.block_count(), engine.block_capacity
    year = engine.string_value(
        queries.evaluate_naive("/library/book/@year")[0])
    path = f"/library/book[@year='{year}']/title"
    names, visited = _stage_names(queries, path)
    found = len(queries.evaluate(path))
    assert names == ["probe[eq]", "step[title]/walk"]
    assert 0 < found < 100 and visited == 2 * found
    for index in (1, 500, 1000):
        names, visited = _stage_names(queries,
                                      f"/library/book[{index}]/title")
        assert names == [f"scan-pos[library/book][{index}]",
                         "step[title]/walk"]
        assert visited <= 2 * blocks + capacity + 1
    names, visited = _stage_names(queries, "/library/book[last()]/title")
    assert visited <= 2 * blocks + 1
    # The sweep reads every title, and says so.
    names, visited = _stage_names(queries, "/library/book[@year]/title")
    assert names[-1] == "step[title]/sweep"
    assert visited >= 2000


def test_suffix_steps_below_any_contexts_are_lowered(generated_engines):
    """The two shapes that used to be handed to the per-context
    kernel, counted in descriptors read.  A positional predicate on a
    suffix step is a run count behind the step's own walk; a step below
    ancestor-related contexts (``//*``) is the same parent semi-join
    as below any others."""
    document = make_library_document(books=1000, papers=10, seed=2,
                                     year_attrs=True)
    engine = StorageEngine()
    engine.load_document(document)
    engine.create_index("library/book/@year", value_type="integer")
    queries = StorageQueryEngine(engine)
    year = engine.string_value(
        queries.evaluate_naive("/library/book/@year")[0])
    books = f"/library/book[@year='{year}']"
    names, visited = _stage_names(queries, books + "/author[1]")
    assert names == ["probe[eq]", "step[author]/walk", "predicate[pos]"]
    postings = len(queries.evaluate(books))
    authors = len(queries.evaluate(books + "/author"))
    assert 0 < postings < 100 and visited <= postings + authors
    witness = generated_engines["witness"][0][0]
    names, visited = _stage_names(witness, "//*[x]/x")
    assert names[:2] == ["scan-merge[2]", "predicate[x]"]
    assert names[2:] in (["step[x]/walk"], ["step[x]/sweep"])
    contexts = len(witness.evaluate("//*[x]"))
    swept = len(witness.evaluate("//x"))
    assert visited <= contexts + swept


def test_value_predicates_report_what_they_read():
    """EXPLAIN counts the carriers and texts a child-value predicate
    read, on either route (a filter used to count nothing, so only the
    scan and the step showed)."""
    books = "".join(f"<book><t>T{n}</t><a>A{n % 2}</a></book>"
                    for n in range(4))
    _, queries = _setup(
        f"<lib>{books}<book k='x'><t>T</t>{'<a>A0</a>' * 9}<a>A1</a>"
        "</book></lib>")
    # Five contexts, 14 author texts: swept.  5 books + 14 texts + the
    # 5 titles the step sweeps for 3 survivors.
    names, visited = _stage_names(queries, "/lib/book[a='A1']/t")
    assert names == ["scan[lib/book]", "predicate[a=…]/sweep",
                     "step[t]/sweep"]
    assert visited == 5 + 14 + 5
    # One context: walked, ten <a> and their texts read to the match.
    names, visited = _stage_names(queries, "/lib/book[@k][a='A1']/t")
    assert names == ["scan[lib/book]", "predicate[@k]",
                     "predicate[a=…]/walk", "step[t]/sweep"]
    assert visited == 5 + 2 * 10 + 5


# ---------------------------------------------------------------------------
# The §9.2 walk reads the destination schema node's own chain, and
# simple-content values leave in one pass: both must hold on whatever
# layout updates leave behind — same-named children no longer adjacent
# in the sibling chain, mixed-content texts split by an element, blocks
# split by inserts and half-emptied by deletes.

_WALK_NAMES = ("a", "b", "c")


@st.composite
def _walk_element(draw, depth=0):
    """A small element over three names, two attribute names and two
    texts (adjacent texts parse into one)."""
    name = draw(st.sampled_from(_WALK_NAMES))
    attributes = "".join(f' {attribute}="{attribute}{depth}"'
                         for attribute in draw(st.sets(
                             st.sampled_from("xy"))))
    parts = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.booleans()):
                parts.append(draw(_walk_element(depth + 1)))
            else:
                parts.append(draw(st.sampled_from(("t", "u", ""))))
    return f"<{name}{attributes}>{''.join(parts)}</{name}>"


#: One update, resolved against the engine as it stands: (kind, which
#: element, which child position, name or text).
_WALK_UPDATES = st.tuples(
    st.sampled_from(("element", "element", "text", "delete",
                     "attribute")),
    st.integers(0, 63), st.integers(0, 7),
    st.sampled_from(_WALK_NAMES + ("t", "u")))


def _apply_walk_updates(engine, updates):
    for kind, which, position, payload in updates:
        elements = [descriptor for descriptor
                    in engine.iter_document_order()
                    if descriptor.node_type == "element"]
        target = elements[which % len(elements)]
        index = position % (len(engine.children(target)) + 1)
        if kind == "delete":
            if target.parent is not engine.document:
                engine.delete_subtree(target)
        elif kind == "attribute":
            engine.set_attribute(target, QName("", "xy"[which % 2]),
                                 payload, replace=True)
        elif kind == "text" or payload not in _WALK_NAMES:
            engine.insert_child(target, index, text=payload)
        else:
            engine.insert_child(target, index, name=QName("", payload))
    engine.check_invariants()


def _stored(engine):
    """Every stored descriptor, chain by chain."""
    return [descriptor for schema_node in engine.schema.iter_nodes()
            for descriptor in sweep((schema_node,))]


def _assert_walk_and_values(engine, order=None):
    """The walk of every stored descriptor to every schema child is
    that child's run of the child sequence (the attributes, for an
    attribute schema child), one context at a time and all instances
    of a schema node at once; and ``string_values`` of any list is
    ``string_value`` of each member."""
    for schema_node in engine.schema.iter_nodes():
        contexts = sweep((schema_node,))
        for slot, child in enumerate(schema_node.children):
            expected_all = []
            for context in contexts:
                nodes = (engine.attributes(context)
                         if child.node_type == "attribute"
                         else engine.children(context))
                expected = [node for node in nodes
                            if node.schema_node is child]
                walked = []
                _walk(slot, (context,), walked)
                assert walked == expected, (context, child)
                expected_all += expected
            walked = []
            _walk(slot, contexts, walked)
            assert walked == expected_all, (schema_node, child)
    stored = _stored(engine)
    lists = [stored, stored[::-1], [engine.document]]
    if order is not None:
        lists.append([stored[index % len(stored)] for index in order])
    for descriptors in lists:
        assert engine.string_values(descriptors) == [
            engine.string_value(descriptor) for descriptor in descriptors]


#: Paths whose child steps and child-value predicates walk or sweep
#: whatever the updates did.
_WALK_PATHS = ("/*/*", "/*/a/b", "//a/b", "//b/text()", "//*/@x",
               "//a[b='t']", "//*[c='u']/a", "//a[b='']/c", "//*[a='tu']")


@settings(max_examples=max(150, settings().max_examples), deadline=None)
@given(document=_walk_element(), capacity=st.sampled_from((2, 3, 4)),
       updates=st.lists(_WALK_UPDATES, max_size=12),
       order=st.lists(st.integers(0, 255), max_size=20))
def test_walk_and_values_hold_on_update_made_layouts(document, capacity,
                                                     updates, order):
    engine, queries = _setup(f"<r>{document}</r>", block_capacity=capacity)
    _apply_walk_updates(engine, updates)
    _assert_walk_and_values(engine, order)
    for path in _WALK_PATHS:
        oracle = _nids(evaluate_store(queries.store, path))
        assert _nids(queries.evaluate(path)) == oracle, path


@pytest.mark.parametrize("text,step", [
    # The second author follows the issue: not adjacent to the first
    # in the sibling chain, adjacent in the author chain.
    ("<book><author/><issue/><author/></book>", "author"),
    # Mixed content: the element splits p's texts in the sibling chain.
    ("<p>a<b/>c</p>", "#text"),
])
def test_walk_and_values_regressions(text, step):
    engine, _ = _setup(text, block_capacity=2)
    _assert_walk_and_values(engine)
    root = engine.children(engine.document)[0]
    slot = [child.step for child in root.schema_node.children].index(step)
    walked = []
    _walk(slot, (root,), walked)
    assert walked == [child for child in engine.children(root)
                      if child.schema_node.step == step]
    assert len(walked) == 2


def test_walk_reads_the_author_chain_after_updates():
    """An author inserted after the issue, and authors inserted into a
    split block: each book's authors are still one run of the author
    chain, in document order, and nothing else."""
    books = "".join(f"<book><title>T{n}</title><author>A{n}</author>"
                    f"<issue>I{n}</issue></book>" for n in range(6))
    engine, queries = _setup(f"<lib>{books}</lib>", block_capacity=2)
    splits = engine.split_count
    lib = engine.children(engine.document)[0]
    for number, book in enumerate(engine.children(lib)):
        _element(engine, book, 3, "author", f"B{number}")
        _element(engine, book, 1, "author", f"C{number}")
    assert engine.split_count > splits
    engine.check_invariants()
    _assert_walk_and_values(engine)
    assert [engine.string_value(author) for author in queries.evaluate(
        "/lib/book[3]/author")] == ["C2", "A2", "B2"]
    assert len(queries.evaluate("/lib/book[author='B4']/title")) == 1


@pytest.mark.parametrize("path,found", [
    ("/lib/book[@k][a='A1']", 1), ("/lib/book[@k][a='A']", 0),
    ("/lib/*[@k][a='A1']", 2), ("/lib/*[@k][a='A']", 0),
])
def test_value_walk_reads_a_value_split_over_texts(path, found):
    """Behind a selective filter the value predicate walks — one loop
    over the contexts of one schema node (``book``), one per run of
    each below ``*`` (``book`` and ``box``) — and a carrier whose value
    an insert split over two texts is read whole on either; a context
    with two matching carriers is kept once."""
    rows = "".join("<book><a>X</a></book><box><a>X</a></box>"
                   for _ in range(10))
    engine, queries = _setup(
        f"<lib>{rows}<book k='1'><a>A</a><a>A1</a></book>"
        "<box k='1'><a>A</a></box></lib>")
    for carrier in queries.evaluate_naive("/lib/*[@k]/a[1]"):
        engine.insert_child(carrier, 1, text="1")
    names, _ = _stage_names(queries, path)
    assert "predicate[a=…]/walk" in names
    _assert_compiled_parity(queries, path)
    assert len(queries.evaluate(path)) == found


def test_corpus_covers_the_interpreter_strategies(shelf_queries):
    """The corpus exercises every non-index strategy, so the parity
    runs above are not vacuous: every block strategy under ``cost``,
    and the navigator under the ``naive`` policy only."""
    strategies = {shelf_queries.compile(path).strategy
                  for path in CORPUS}
    assert strategies == {"scan", "hybrid", "empty"}
    naive = StorageQueryEngine(shelf_queries.engine,
                               planner_policy="naive")
    assert {naive.compile(path).strategy for path in CORPUS} == {"naive"}


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

    def test_probe_residuals_are_lowered_stages(self, setup):
        """Predicates behind a probe run as the same slot-resolved
        stages a scan uses (carriers resolved when a schema node is
        first seen), and the warm chain sees later inserts."""
        engine, queries = setup
        engine.create_index("lib/book/@lang")
        path = "/lib/book[@lang='en'][a='Joyce'][@lang][2]/t"
        plan = _assert_compiled_parity(queries, path)
        assert plan.strategy == "index"
        executor = plan.executor
        assert [name for name, _ in executor.stages] == [
            "predicate[a=…]", "predicate[@lang]", "predicate[pos]",
            "step[t]"]
        lib = engine.children(engine.document)[0]
        book = engine.insert_child(lib, 0, name=QName("", "book"))
        engine.set_attribute(book, QName("", "lang"), "en")
        engine.insert_child(
            engine.insert_child(book, 0, name=QName("", "t")),
            0, text="Dubliners")
        engine.insert_child(
            engine.insert_child(book, 1, name=QName("", "a")),
            0, text="Joyce")
        assert queries.compile(path).executor is executor
        assert len(_assert_compiled_parity(queries, path)
                   .execute_compiled(queries)) == 1

    def test_ddl_restamp_drops_the_stale_executor(self, setup):
        """CREATE INDEX on an unrelated path leaves the plan stale: it
        is compiled afresh and its closure chain lowered again, so no
        chain can run against dead probe bindings."""
        engine, queries = setup
        path = "/lib/book[@lang='en']/t"
        plan = queries.compile(path)
        plan.execute_compiled(queries)
        assert plan.executor is not None
        engine.create_index("lib/book/@year")
        fresh = queries.compile(path)
        assert fresh is not plan  # replaced, decision unchanged or not
        assert fresh.strategy == plan.strategy
        assert fresh.executor is None  # lowered again on its first run
        assert _assert_compiled_parity(queries, path) is fresh

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
             "/lib/book[a]/t", "//book/@lang", "/lib/book[2]/t",
             "/lib/book[last()]/a", "/lib/book[@lang='en'][2]/a",
             "/lib/*[last()]", "/lib/book[a='Joyce']/t")

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

    def test_warm_value_sweep_reads_the_live_text_blocks(self, setup):
        """The semi-join closure is schema-bound: the same warm
        executor finds a new matching <a>, drops an <a> whose value a
        second text changed, and forgets a deleted book."""
        engine, queries = setup
        path = "/lib/book[a='Joyce']/t"
        executor = queries.compile(path).executor
        assert "predicate[a=…]/sweep" in _stage_names(queries, path)[0]
        lib = engine.children(engine.document)[0]
        books = [child for child in engine.children(lib)
                 if child.schema_node.step == "book"]
        _element(engine, books[1], 1, "a", "Joyce")
        self._assert_all(queries)
        assert len(queries.evaluate(path)) == 2
        joyce = engine.children(books[2])[1]
        assert engine.string_value(joyce) == "Joyce"
        engine.insert_child(joyce, 1, text="!")
        self._assert_all(queries)
        assert _nids(queries.evaluate(path)) \
            == _nids(queries.evaluate("/lib/book[2]/t"))
        engine.delete_subtree(books[1])
        self._assert_all(queries)
        assert queries.evaluate(path) == []
        assert queries.compile(path).executor is executor

    def test_attribute_value_update_keeps_parity(self, setup):
        engine, queries = setup
        lib = engine.children(engine.document)[0]
        first_book = engine.children(lib)[0]
        engine.set_attribute(first_book, QName("", "lang"), "de",
                             replace=True)
        self._assert_all(queries)
