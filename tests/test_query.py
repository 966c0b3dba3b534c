"""Tests for the path language and the query evaluators.

The path language is the downward fragment: child and
descendant-or-self steps (``/``, ``//``), attributes (``@``) and
predicates.  The XPath axes outside it are not a product surface:
``TestAxes`` states each of them in the Section 9.3 label relations
(``repro.storage.labels``: ``before``, ``is_ancestor``,
``is_parent``) on a loaded document, whose bytes rules are tested in
``tests/test_storage_labels.py``.
"""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.xmlio import parse_document
from repro.mapping import untyped_document_to_tree
from repro.order import document_order
from repro.query import (
    StorageQueryEngine,
    evaluate_tree,
    parse_path,
)
from repro.query.paths import Step
from repro.storage import StorageEngine, before, is_ancestor, is_parent
from repro.workloads import make_library_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT
from repro.xmlio.chars import is_name_char

from tests.test_query_plan import _budget

_DOC = '<r i="1"><a><b/><c>x</c></a><d j="2"/><a><b/></a></r>'


@pytest.fixture
def tree():
    return untyped_document_to_tree(parse_document(_DOC))


def _names(nodes):
    out = []
    for node in nodes:
        names = node.node_name()
        out.append(names.head().local if names else node.node_kind())
    return out


def _label_axis(engine, context, axis):
    """The XPath *axis* from *context*, membership decided by the
    Section 9.3 label relations alone over a document-order scan.
    Attributes are labelled as children of their element (§7), so the
    node kind, not a label, keeps them off every axis but
    ``attribute``; forward axes come in document order, reverse axes
    nearest first."""
    c = context.nid
    scan = list(engine.iter_document_order())
    nodes = [d for d in scan if d.node_type != "attribute"]
    if axis == "attribute":
        return [d for d in scan
                if d.node_type == "attribute" and is_parent(c, d.nid)]
    if axis == "self":
        return [d for d in scan if d.nid == c]
    if axis == "child":
        return [d for d in nodes if is_parent(c, d.nid)]
    if axis == "parent":
        return [d for d in nodes if is_parent(d.nid, c)]
    if axis == "descendant":
        return [d for d in nodes if is_ancestor(c, d.nid)]
    if axis == "descendant-or-self":
        return [context, *_label_axis(engine, context, "descendant")]
    if axis == "ancestor":
        return [d for d in reversed(nodes) if is_ancestor(d.nid, c)]
    if axis == "ancestor-or-self":
        return [context, *_label_axis(engine, context, "ancestor")]
    if axis in ("following-sibling", "preceding-sibling"):
        if context.node_type == "attribute":
            return []
        siblings = [d for d in nodes
                    if d.nid != c and is_parent(c.parent_label(), d.nid)]
        if axis == "following-sibling":
            return [d for d in siblings if before(c, d.nid)]
        return [d for d in reversed(siblings) if before(d.nid, c)]
    if axis == "following":
        return [d for d in nodes
                if before(c, d.nid) and not is_ancestor(c, d.nid)]
    if axis == "preceding":
        return [d for d in reversed(nodes)
                if before(d.nid, c) and not is_ancestor(d.nid, c)]
    raise ValueError(axis)


def _label_names(engine, descriptors):
    return [engine.node_name(d).local if engine.node_name(d) is not None
            else engine.node_kind(d) for d in descriptors]


class TestAxes:
    """The twelve XPath axes on ``_DOC``, each decided by labels."""

    @pytest.fixture
    def stored(self):
        engine = StorageEngine()
        engine.load_document(parse_document(_DOC))
        return engine

    @staticmethod
    def _root(engine):
        return engine.children(engine.document)[0]

    def _names(self, engine, context, axis):
        return _label_names(engine, _label_axis(engine, context, axis))

    def test_child(self, stored):
        r = self._root(stored)
        assert self._names(stored, r, "child") == ["a", "d", "a"]

    def test_attribute(self, stored):
        r = self._root(stored)
        assert self._names(stored, r, "attribute") == ["i"]

    def test_parent_and_self(self, stored):
        r = self._root(stored)
        a = stored.children(r)[0]
        assert _label_axis(stored, a, "parent") == [r]
        assert _label_axis(stored, a, "self") == [a]

    def test_descendant(self, stored):
        r = self._root(stored)
        assert self._names(stored, r, "descendant") == \
            ["a", "b", "c", "text", "d", "a", "b"]

    def test_descendant_or_self(self, stored):
        r = self._root(stored)
        assert self._names(stored, r, "descendant-or-self")[0] == "r"

    def test_ancestor(self, stored):
        r = self._root(stored)
        b = stored.children(stored.children(r)[0])[0]
        assert self._names(stored, b, "ancestor") == \
            ["a", "r", "document"]
        assert self._names(stored, b, "ancestor-or-self")[0] == "b"

    def test_sibling_axes(self, stored):
        r = self._root(stored)
        first_a, d, second_a = stored.children(r)
        assert self._names(stored, d, "following-sibling") == ["a"]
        assert self._names(stored, d, "preceding-sibling") == ["a"]
        assert self._names(stored, second_a, "following-sibling") == []

    def test_following_excludes_descendants(self, stored):
        r = self._root(stored)
        first_a = stored.children(r)[0]
        assert self._names(stored, first_a, "following") == \
            ["d", "a", "b"]

    def test_preceding_excludes_ancestors(self, stored):
        r = self._root(stored)
        second_a = stored.children(r)[2]
        # reverse document order, no ancestors, no attributes
        assert self._names(stored, second_a, "preceding") == \
            ["d", "text", "c", "b", "a"]

    def test_attribute_has_no_siblings(self, stored):
        r = self._root(stored)
        attribute = stored.attributes(r)[0]
        first_a = stored.children(r)[0]
        # The labels alone would make the attribute a sibling that
        # precedes every child: only its kind keeps it off the axes.
        assert is_parent(r.nid, attribute.nid)
        assert before(attribute.nid, first_a.nid)
        assert _label_axis(stored, attribute, "following-sibling") == []
        assert _label_axis(stored, attribute, "preceding-sibling") == []
        assert attribute not in _label_axis(
            stored, first_a, "preceding-sibling")

    def test_axis_order_consistency(self, stored):
        """Forward axes yield document order; reverse axes reversed.
        Positions come from the pointer walk, membership from labels."""
        positions = {d.nid: i
                     for i, d in enumerate(stored.iter_document_order())}
        first_a, _d, second_a = stored.children(self._root(stored))
        for axis in ("descendant", "following"):
            result = [positions[d.nid]
                      for d in _label_axis(stored, first_a, axis)]
            assert result and result == sorted(result)
        for axis in ("preceding", "ancestor"):
            result = [positions[d.nid]
                      for d in _label_axis(stored, second_a, axis)]
            assert result and result == sorted(result, reverse=True)

    def test_following_plus_rest_partitions_document(self, stored):
        """following ∪ preceding ∪ ancestors ∪ descendants ∪ self
        covers every non-attribute node exactly once (the XPath axis
        partition), stated purely in labels."""
        everything = [d for d in stored.iter_document_order()
                      if d.node_type != "attribute"]
        for context in everything:
            covered = [d.nid for axis in (
                "following", "preceding", "ancestor", "descendant",
                "self") for d in _label_axis(stored, context, axis)]
            assert sorted(covered) == sorted(d.nid for d in everything)

    def test_agreement_on_scaled_library(self):
        """On a generated library, ``is_parent``, ``is_ancestor`` and
        ``before`` over every pair of labels say what the storage
        pointers (parent, children, the document-order walk) say."""
        engine = StorageEngine(block_capacity=4)
        engine.load_document(make_library_document(3, 3, seed=7))
        ordered = list(engine.iter_document_order())
        ancestors = {}
        for d in ordered:
            parent = engine.parent(d)
            ancestors[d.nid] = (set() if parent is None else
                                {parent.nid} | ancestors[parent.nid])
        for i, x in enumerate(ordered):
            for j, y in enumerate(ordered):
                assert before(x.nid, y.nid) == (i < j)
                assert is_ancestor(x.nid, y.nid) == \
                    (x.nid in ancestors[y.nid])
                assert is_parent(x.nid, y.nid) == \
                    (engine.parent(y) is x)
        for d in ordered:
            assert [c.nid for c in engine.children(d)] == [
                c.nid for c in _label_axis(engine, d, "child")]


class TestPathParser:
    def test_child_steps(self):
        path = parse_path("/library/book/title")
        assert [s.name for s in path.steps] == ["library", "book", "title"]
        assert all(s.axis == "child" for s in path.steps)

    def test_descendant_step(self):
        path = parse_path("//author")
        assert path.steps[0].axis == "descendant-or-self"

    def test_attribute_step(self):
        path = parse_path("/a/@id")
        assert path.steps[-1] == Step("child", "attribute", "id")

    def test_wildcards(self):
        path = parse_path("/a/*/@*")
        assert path.steps[1].name is None
        assert path.steps[2].name is None

    def test_text_step(self):
        path = parse_path("/a/text()")
        assert path.steps[-1].kind == "text"

    @pytest.mark.parametrize("bad", [
        "relative/path", "/a//", "/", "/a/@", "/a/b[]", "/a/b[0]",
        "/a/b[t=v]", "/a/b[f()]", "/a/b[1", "/a/b[x<2]",
        # Names the grammar does not derive (not NCNames).
        "/a b", "/1a", "/a=b", "/a'", "/@1", "/a:b",
        "/library/book[*]", "/library/book[@*]",
        # A literal holds no quote of its own kind (XPath's Literal).
        pytest.param("/a[b='x'='y']", id="literal-holds-its-quote"),
        pytest.param('/a[@b="x"="y"]', id="attr-literal-holds-its-quote"),
        # A position is ASCII digits, not another script's.
        pytest.param("/a[\uff11]", id="fullwidth-digit-position"),
        pytest.param("/a[\u0661]", id="arabic-indic-digit-position"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(QueryError):
            parse_path(bad)

    def test_repr_round_trip(self):
        for text in ("/a/b", "//x", "/a/@id", "/a/text()", "/a/*"):
            assert repr(parse_path(text)) == text

    @pytest.mark.parametrize("text", [
        """/a[b="it's"]""", """/a[@b="it's"]""", """/a[b='say "hi"']""",
    ])
    def test_repr_quotes_a_value_holding_a_quote(self, text):
        assert repr(parse_path(text)) == text
        assert parse_path(repr(parse_path(text))) == parse_path(text)


# ----------------------------------------------------------------------
# Generated: the parser accepts exactly the grammar's names.  CI's
# crash-matrix step runs this with --hypothesis-profile=crash-matrix
# --hypothesis-seed=0.

_NAME_START = "abxyzAZ_éΩ"
_NAMES = st.builds(operator.add, st.sampled_from(_NAME_START),
                   st.text(_NAME_START + "09-.·", max_size=4))
#: Literal values: each holds at most one kind of quote, and is
#: rendered between the other (:func:`_quoted`).
_VALUES = st.one_of(*(
    st.text(st.characters(blacklist_characters=quote,
                          blacklist_categories=("Cs",)), max_size=4)
    for quote in "'\""))
#: Non-NameChars that spoil a name in place: not ``/`` (it would split
#: the step into two valid ones), not ``@`` (``[@a]`` is a predicate
#: form), not a quote (it re-pairs the literal quotes) and not
#: whitespace (stripped off a predicate's name).
_SPOILERS = [char for char in map(chr, range(0x21, 0x7F))
             if not is_name_char(char) and char not in "/@'\""] + ["×"]


@st.composite
def _grammar_paths(draw):
    """A path from the grammar as pieces: syntax ``str``s and, for each
    name token, a one-element list holding the name."""
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        pieces.append(draw(st.sampled_from(("/", "//"))))
        test = draw(st.sampled_from(("name", "@name", "*", "@*",
                                     "text()")))
        if test.endswith("name"):
            pieces += [test[:-4], [draw(_NAMES)]]
        else:
            pieces.append(test)
        for _ in range(draw(st.integers(0, 3))):
            form = draw(st.sampled_from(("position", "last()", "name",
                                         "@name")))
            if form == "position":
                pieces.append(f"[{draw(st.integers(1, 99))}]")
            elif form == "last()":
                pieces.append("[last()]")
            else:
                pieces += ["[" + form[:-4], [draw(_NAMES)]]
                if draw(st.booleans()):
                    pieces.append(f"={_quoted(draw(_VALUES))}")
                pieces.append("]")
    return pieces


def _quoted(value):
    """*value* between the quotes ``repr(Path)`` prints it in."""
    return f'"{value}"' if "'" in value else f"'{value}'"


def _render(pieces, spoiled=None, at=None):
    return "".join(piece if isinstance(piece, str)
                   else spoiled if index == at else piece[0]
                   for index, piece in enumerate(pieces))


@settings(max_examples=_budget(50), deadline=None)
@given(pieces=_grammar_paths(), data=st.data())
def test_grammar_paths_round_trip_and_spoiled_names_are_refused(pieces,
                                                                 data):
    text = _render(pieces)
    assert repr(parse_path(text)) == text
    names = [index for index, piece in enumerate(pieces)
             if not isinstance(piece, str)]
    if not names:
        return
    at = data.draw(st.sampled_from(names))
    name = pieces[at][0]
    cut = data.draw(st.integers(0, len(name)))
    spoiled = name[:cut] + data.draw(st.sampled_from(_SPOILERS)) \
        + name[cut:]
    with pytest.raises(QueryError):
        parse_path(_render(pieces, spoiled, at))


class TestTreeEvaluation:
    def test_simple_path(self, tree):
        result = evaluate_tree(tree, "/r/a/b")
        assert _names(result) == ["b", "b"]

    def test_wildcard(self, tree):
        assert _names(evaluate_tree(tree, "/r/*")) == ["a", "d", "a"]

    def test_descendant(self, tree):
        assert _names(evaluate_tree(tree, "//b")) == ["b", "b"]

    def test_attribute(self, tree):
        result = evaluate_tree(tree, "/r/d/@j")
        assert [n.string_value() for n in result] == ["2"]

    def test_text(self, tree):
        result = evaluate_tree(tree, "/r/a/c/text()")
        assert [n.string_value() for n in result] == ["x"]

    def test_no_match(self, tree):
        assert evaluate_tree(tree, "/r/zzz") == []

    def test_results_in_document_order(self, tree):
        positions = {node: i
                     for i, node in enumerate(document_order(tree))}
        result = evaluate_tree(tree, "//b")
        assert [positions[n] for n in result] == \
            sorted(positions[n] for n in result)


class TestStorageEvaluation:
    @pytest.fixture
    def stored(self):
        engine = StorageEngine()
        engine.load_document(parse_document(EXAMPLE_8_DOCUMENT))
        return engine, StorageQueryEngine(engine)

    @pytest.mark.parametrize("path,expected", [
        ("/library/book/title", 2),
        ("/library/paper/title", 2),
        ("//title", 4),
        ("//author", 6),
        ("/library/book/issue/year", 1),
        ("/library/*/title/text()", 4),
        ("/library/zzz", 0),
    ])
    def test_naive_equals_schema_driven(self, stored, path, expected):
        engine, queries = stored
        naive = queries.evaluate_naive(path)
        driven = queries.evaluate_schema_driven(path)
        assert len(naive) == len(driven) == expected
        assert [engine.string_value(d) for d in naive] == \
            [engine.string_value(d) for d in driven]

    def test_matches_tree_evaluator(self, stored):
        engine, queries = stored
        tree = untyped_document_to_tree(
            parse_document(EXAMPLE_8_DOCUMENT))
        for path in ("/library/book/title", "//author", "//title"):
            from_tree = [n.string_value()
                         for n in evaluate_tree(tree, path)]
            from_storage = [engine.string_value(d)
                            for d in queries.evaluate_schema_driven(path)]
            assert from_tree == from_storage

    def test_schema_driven_merges_document_order(self, stored):
        engine, queries = stored
        result = queries.evaluate_schema_driven("//title")
        symbols = [d.nid.symbols() for d in result]
        assert symbols == sorted(symbols)

    def test_matching_schema_nodes(self, stored):
        _engine, queries = stored
        nodes = queries.matching_schema_nodes("//title")
        assert {n.path for n in nodes} == \
            {"library/book/title", "library/paper/title"}

    def test_on_scaled_document(self):
        document = make_library_document(books=40, papers=40, seed=9)
        engine = StorageEngine()
        engine.load_document(document)
        queries = StorageQueryEngine(engine)
        naive = queries.evaluate_naive("/library/book/author")
        driven = queries.evaluate_schema_driven("/library/book/author")
        assert [d.nid for d in naive] == [d.nid for d in driven]
        assert len(naive) > 40
