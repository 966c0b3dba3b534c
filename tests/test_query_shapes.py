"""A path compiled on a warmed shape ≡ the same path compiled afresh.

The planner's shape table (:class:`repro.query.planner.Shape`) keeps
what planning decides without reading a literal, and compiles a new
literal on a known shape without parsing, matching, enumerating or
lowering from scratch.  That must be invisible: for a second literal
on a warmed shape, the plan agrees with ``evaluate_schema_driven``'s
(every cache bypassed) on strategy, scanned schema nodes, split,
probe, residual predicates, index and cost table, the EXPLAIN stage
chain is the same, and the rows are ``evaluate_naive``'s — under every policy, with
and without a value index.  The inputs are every path family the
read workloads send (rebuilt here at a small library scale), the path
lists of the parity suites, and grammar-drawn paths with their
literals and positions redrawn.  An index DDL or schema growth between
two literals makes the entry anew, and threads sharing one planner
never see a wrong answer.

The lifter (:func:`repro.query.paths.lift_path`) accepts exactly what
the parser accepts: the shape route answers a text with the parser's
``Path`` or the parser's :class:`~repro.errors.QueryError`, word for
word.
"""

import random
import sys
import threading
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.obs.explain import collect
from repro.query import POLICIES, StorageQueryEngine
from repro.query.paths import _LITERAL, lift_path, literals_of, parse_path
from repro.storage import StorageEngine
from repro.workloads import make_library_document
from repro.xmlio import QName, XmlElement, XmlText

from tests.test_compiled_parity import (
    CORPUS,
    _FIXTURES,
    _WITNESS_PATHS,
    _paths,
    _policy_engines,
    _setup,
)
from tests.test_query import _grammar_paths, _quoted, _render
from tests.test_query_plan import _budget

#: The value index of the read workloads.
YEAR_INDEX = "library/book/@year"
ANNEX_KINDS = ("archive", "depot", "office", "reading_room")
ANNEX_FIELDS = ("name", "city", "floor", "curator", "phone", "hours")


def _nids(descriptors):
    return [descriptor.nid for descriptor in descriptors]


def _relit(text, literals):
    """*text* with its literals replaced, in order, by *literals*: the
    same shape (:func:`lift_path`) with other literals."""
    feed = iter(literals)

    def put(match):
        literal = next(feed)
        if match.group(3) is not None:
            return f"[{literal}]"
        return f"={_quoted(literal)}]"

    return _LITERAL.sub(put, text)


def _plan_fields(plan):
    return (plan.strategy, plan.scan_nodes, plan.split, plan.probe,
            plan.rest_predicates, plan.index_used,
            [estimate.as_dict() for estimate in plan.cost_table])


def _explained(queries, evaluate, path):
    with collect(path) as record:
        result = evaluate(path)
    return record, _nids(result)


def _assert_shape_parity(queries, first, second):
    """Warm *first*'s shape, then compile *second* — the same shape,
    other literals — on it: its plan, stage chain and rows are what
    compiling it afresh gives, and the rows are the oracle's."""
    queries.clear_caches()
    queries.evaluate(first)
    if second == first:
        # Only a plan evicted from the cache reaches the warmed shape.
        queries._planner._plans.clear()
    record, rows = _explained(queries, queries.evaluate, second)
    assert record.shape_cache == "hit", (first, second)
    assert record.parse_cache == ""
    fresh = queries._planner.compile_uncached(parse_path(second))
    assert _plan_fields(queries.compile(second)) == _plan_fields(fresh), \
        (first, second)
    fresh_record, fresh_rows = _explained(
        queries, queries.evaluate_schema_driven, second)
    assert [name for name, _ in record.stage_ns] == \
        [name for name, _ in fresh_record.stage_ns], (first, second)
    oracle = _nids(queries.evaluate_naive(second))
    assert rows == fresh_rows == oracle, (first, second)


def _assert_under_every_policy(engines, first, second):
    for engine_variant in engines:
        for queries in engine_variant:
            _assert_shape_parity(queries, first, second)


# ----------------------------------------------------------------------
# The read workloads' path families on a small library.


def _library_document(books, papers, seed):
    """The read workloads' library: books with ``@year``, and four
    one-off annex elements with single-instance children."""
    document = make_library_document(books=books, papers=papers,
                                     seed=seed, year_attrs=True)
    for kind in ANNEX_KINDS:
        annex = XmlElement(QName("", kind))
        for name in ANNEX_FIELDS:
            child = XmlElement(QName("", name))
            child.append(XmlText(f"{kind} {name} {seed}"))
            annex.append(child)
        document.root.append(annex)
    return document


@pytest.fixture(scope="module")
def library_engines():
    """Per index variant (none, then ``book/@year``), one query engine
    per policy over one storage engine."""
    variants = []
    for indexed in (False, True):
        engine = StorageEngine()
        engine.load_document(_library_document(24, 24, 5))
        if indexed:
            engine.create_index(YEAR_INDEX)
        variants.append([StorageQueryEngine(engine, planner_policy=policy)
                         for policy in POLICIES])
    return variants


def _values(queries, path):
    return sorted({queries.engine.string_value(node)
                   for node in queries.evaluate_naive(path)})


def _families(queries):
    """(family, first, second) for every path family of ``read_hot``
    and ``read_cold``; the second text draws other literals — present
    ones, one nothing carries, and ``''``."""
    rng = random.Random(7)
    years = _values(queries, "/library/book/@year")
    authors = _values(queries, "/library/book/author")
    titles = _values(queries, "/library/*/title")
    years += ["1899", ""]
    authors += ["Nobody", ""]
    titles += ["Untitled", ""]
    two = (lambda pool: rng.sample(pool, 2))
    out = []

    def family(name, template, *pools):
        firsts = [two(pool) for pool in pools]
        out.append((name, template.format(*(pick[0] for pick in firsts)),
                    template.format(*(pick[1] for pick in firsts))))

    for kind in ANNEX_KINDS:
        out.append(("child", f"/library/{kind}", f"/library/{kind}"))
        for field in ANNEX_FIELDS[:2]:
            out.append(("child", f"/library/{kind}/{field}",
                        f"/library/{kind}/{field}"))
    out.append(("child", "/library", "/library"))
    family("probe", "/library/book[@year='{}']/title", years)
    for kind, leaf in (("book", "title"), ("paper", "title"),
                       ("book", "author")):
        family("positional", f"/library/{kind}[{{}}]/{leaf}",
               list(range(1, 30)))
    for leaf in ("title", "author"):
        family("conjunctive",
               f"/library/book[@year='{{}}'][author='{{}}']/{leaf}",
               years, authors)
    for kind, leaf in product(("book", "paper", "*"), ("title", "author")):
        family("wide", f"/library/{kind}[title='{{}}']/{leaf}", titles)
        family("wide", f"/library/{kind}[author='{{}}']/{leaf}", authors)
        family("wide",
               f"/library/{kind}[title='{{}}'][author='{{}}']/{leaf}",
               titles, authors)
    return out


def test_read_workload_families(library_engines):
    families = _families(library_engines[0][0])
    # ``read_cold``'s 23 shapes.
    assert len({lift_path(first)[0] for family, first, _ in families
                if family in ("positional", "conjunctive", "wide")}) == 23
    for _family, first, second in families:
        _assert_under_every_policy(library_engines, first, second)


def test_families_take_every_strategy(library_engines):
    """Not vacuous: the families reach the scan, hybrid and index
    strategies and a shape whose pricing is kept."""
    strategies = set()
    kept = 0
    for family, first, second in _families(library_engines[1][0]):
        queries = library_engines[1][0]    # cost, indexed
        queries.clear_caches()
        queries.evaluate(first)
        strategies.add(queries.compile(second).strategy)
        shape = queries._planner._shapes.get(lift_path(first)[0])
        kept += shape.priced is not None
    assert {"scan", "hybrid", "index"} <= strategies
    assert kept >= 3


# ----------------------------------------------------------------------
# The parity suites' path lists.

#: Values a redrawn literal takes: present on the shelf and library
#: fixtures, carried by nothing, empty, and syntax inside quotes.
_REDRAWN = ("en", "fr", "Joyce", "A1", "1977", "Codd", "zzz", "",
            "]", "a[1]/b", "it's", 'say "hi"')


def _redraw(text, seed):
    rng = random.Random(seed)
    return _relit(text, [
        rng.choice((1, 2, 3, 6, 11)) if isinstance(literal, int)
        else rng.choice(_REDRAWN) for literal in lift_path(text)[1]])


@pytest.fixture(scope="module")
def corpus_engines():
    return {name: (_policy_engines(_FIXTURES[name], ()),
                   _policy_engines(_FIXTURES[name], _FIXTURES[name].ddl))
            for name in ("shelf", "library", "witness")}


@pytest.mark.parametrize("fixture,path", [
    *((fixture, path) for fixture in ("shelf", "library")
      for path in CORPUS),
    *(("witness", path) for path in _WITNESS_PATHS)])
def test_parity_lists(corpus_engines, fixture, path):
    for seed in range(2):
        _assert_under_every_policy(corpus_engines[fixture], path,
                                   _redraw(path, seed))


# ----------------------------------------------------------------------
# Generated: grammar-drawn paths, literals and positions redrawn.  CI's
# crash-matrix step runs this with --hypothesis-profile=crash-matrix
# --hypothesis-seed=0.


@pytest.fixture(scope="module")
def generated_engines():
    return {name: (_policy_engines(fixture, ()),
                   _policy_engines(fixture, fixture.ddl))
            for name, fixture in _FIXTURES.items()}


@settings(max_examples=_budget(60), deadline=None)
@given(drawn=_paths(), data=st.data())
def test_redrawn_literals_compile_as_afresh(generated_engines, drawn,
                                            data):
    fixture, path = drawn
    literals = _FIXTURES[fixture].literals + ("]", "/", "it's")
    second = _relit(path, [
        data.draw(st.sampled_from((1, 2, 3, 6, 11)))
        if isinstance(literal, int)
        else data.draw(st.sampled_from(literals))
        for literal in lift_path(path)[1]])
    _assert_under_every_policy(generated_engines[fixture], path, second)


# ----------------------------------------------------------------------
# The entry follows the plan epoch.


def _library():
    engine = StorageEngine()
    engine.load_document(_library_document(12, 6, 2))
    return engine, StorageQueryEngine(engine)


def _shape_outcome(queries, path):
    record, rows = _explained(queries, queries.evaluate, path)
    assert rows == _nids(queries.evaluate_naive(path)), path
    return record.shape_cache, record.strategy


def test_index_ddl_between_two_literals_remakes_the_entry():
    engine, queries = _library()
    assert _shape_outcome(queries, "/library/book[@year='1977']/title") \
        == ("miss", "hybrid")
    engine.create_index(YEAR_INDEX)
    assert _shape_outcome(queries, "/library/book[@year='1984']/title") \
        == ("miss", "index")
    assert _shape_outcome(queries, "/library/book[@year='1991']/title") \
        == ("hit", "index")
    engine.drop_index(YEAR_INDEX)
    assert _shape_outcome(queries, "/library/book[@year='1998']/title") \
        == ("miss", "hybrid")


def test_schema_growth_between_two_literals_remakes_the_entry():
    """A stale entry would keep the old frontiers and miss the memo."""
    engine, queries = _library()
    assert _shape_outcome(queries, "/library/*[3]/title") \
        == ("miss", "hybrid")
    library = engine.children(engine.document)[0]
    memo = engine.insert_child(library, 0, name=QName("", "memo"))
    title = engine.insert_child(memo, 0, name=QName("", "title"))
    engine.insert_child(title, 0, text="minutes")
    assert _shape_outcome(queries, "/library/*[1]/title") \
        == ("miss", "hybrid")
    assert [engine.string_value(node) for node
            in queries.evaluate("/library/*[1]/title")] == ["minutes"]
    assert _shape_outcome(queries, "/library/*[2]/title")[0] == "hit"


@settings(max_examples=_budget(5), deadline=None)
@given(orders=st.lists(
    st.lists(st.integers(0, 11), min_size=120, max_size=120),
    min_size=6, max_size=6))
def test_threads_sharing_one_planner(orders):
    """Six readers of one query engine send twelve strings of three
    shapes; with four plan slots every request misses or races an
    eviction, and most compile on a shared shape entry."""
    engine = StorageEngine()
    engine.load_document(_library_document(12, 6, 2))
    engine.create_index(YEAR_INDEX)
    queries = StorageQueryEngine(engine, plan_cache_capacity=4)
    texts = ([f"/library/book[{n}]/title" for n in (1, 4, 7, 12)]
             + [f"/library/book[@year='{year}'][author='Codd']/title"
                for year in ("1970", "1977", "1984", "1991")]
             + [f"/library/*[author='{name}']/title"
                for name in ("Codd", "Gray", "", "Nobody")])
    oracle = [_nids(queries.evaluate_naive(text)) for text in texts]
    failures = []

    def reader(order):
        try:
            for number in order:
                if _nids(queries.evaluate(texts[number])) \
                        != oracle[number]:
                    failures.append(texts[number])
        except Exception as exc:  # noqa: BLE001 — the regression
            failures.append(exc)

    threads = [threading.Thread(target=reader, args=(order,))
               for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # One entry per shape sent: four texts a shape.
    assert len(queries._planner._shapes) == len(
        {number // 4 for order in orders for number in order})


# ----------------------------------------------------------------------
# The lifter accepts exactly what the parser accepts.


@pytest.fixture(scope="module")
def bare():
    return _setup("<r/>")[1]


def _shape_route(queries, warm, text):
    """What the shape route makes of *text* after the texts *warm* —
    a ``Path``, or the text of the :class:`QueryError` it raised."""
    queries.clear_caches()
    for known in warm:
        queries.evaluate(known)
    try:
        return queries.compile(text).path
    except QueryError as error:
        return str(error)


def _parsed(text):
    try:
        return parse_path(text)
    except QueryError as error:
        return str(error)


@pytest.mark.parametrize("text", [
    "/a/b[0]/c", "/a/b[-1]/c", "/a/b[１]/c", "/a/b[007]/c",
    "/a/b[ 2 ]/c", "/a/b[c=x]/c", "/a/b[c='x'y']/c", '/a/b[c="x"y"]/c',
    "/a/b[c = 'x' ]/c", "/a/b[ c='x']/c", "/a/b[c='x]/c",
    "/a/b[c='a]b/c[1]']/c", "/a/b[c=\"it's\"]/c", "/a/b[c='\0']/c",
    "/a/b[c='x'][1]/c", "/a/b[@c='x']/c",
])
def test_the_shape_route_answers_as_the_parser(bare, text):
    route = _shape_route(bare, ("/a/b[2]/c", "/a/b[c='v']/c",
                                "/a/b[c='v'][3]/c"), text)
    assert route == _parsed(text)


#: Literal values for the lifter property: syntax the parser must read
#: as part of a literal, the other quote, and spaces.
_LIFTED_VALUES = st.text(st.sampled_from("ab ]['/\"\t=@"), max_size=5)
_SPACE = st.sampled_from(("", " ", "  ", "\t"))


@settings(max_examples=_budget(60), deadline=None)
@given(pieces=_grammar_paths(), data=st.data())
def test_lifted_shapes_parse_as_the_parser(bare, pieces, data):
    text = _render(pieces)
    parsed = parse_path(text)
    if "\0" in text:
        # Not read as a shape: parsed, every time.
        assert lift_path(text) is None
        assert _shape_route(bare, (text,), text) == parsed
        return
    key, literals = lift_path(text)
    assert literals_of(parsed) == literals
    # Other literals, spaced inside their predicates: the same shape.
    redrawn = []
    for literal in literals:
        if isinstance(literal, int):
            redrawn.append(data.draw(st.integers(1, 999)))
        else:
            redrawn.append(data.draw(_LIFTED_VALUES.filter(
                lambda value: not ("'" in value and '"' in value))))
    feed = iter(redrawn)

    def put(match):
        literal = next(feed)
        before, after = data.draw(_SPACE), data.draw(_SPACE)
        if match.group(3) is not None:
            return f"[{before}{literal}{after}]"
        return f"={before}{_quoted(literal)}{after}]"

    second = _LITERAL.sub(put, text)
    assert lift_path(second) == (key, tuple(redrawn))
    with collect(second) as record:
        assert _shape_route(bare, (text,), second) == parse_path(second)
    # A repeated text is a plan hit, which goes round the shape table.
    assert record.shape_cache == ("" if second == text else "hit")
    # And a literal spoiled as the parser refuses it.
    if literals:
        spoiled = data.draw(st.sampled_from(
            ("[0]", "[-1]", "[１]", "=x]", "='x'y']", '="x"y"]')))
        at = data.draw(st.integers(0, len(literals) - 1))
        count = iter(range(len(literals)))
        bad = _LITERAL.sub(lambda match: spoiled if next(count) == at
                           else match.group(0), second)
        assert _shape_route(bare, (text,), bad) == _parsed(bad)
