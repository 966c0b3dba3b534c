"""Tests for path predicates across all three evaluators."""

import pytest

from repro.errors import QueryError
from repro.xmlio import parse_document
from repro.mapping import untyped_document_to_tree
from repro.query import StorageQueryEngine, evaluate_tree, parse_path
from repro.query.paths import (
    AttributePredicate,
    ChildPredicate,
    PositionPredicate,
)
from repro.storage import StorageEngine

_DOC = """<lib>
  <book lang="en" year="1977"><t>Illusions</t><a>Bach</a></book>
  <book lang="ru"><t>Dead Souls</t></book>
  <book lang="en"><t>Ulysses</t><a>Joyce</a><a>Other</a></book>
  <shelf><book lang="fr"><t>Nausea</t></book></shelf>
</lib>"""


@pytest.fixture(scope="module")
def setup():
    document = parse_document(_DOC)
    tree = untyped_document_to_tree(document)
    engine = StorageEngine()
    engine.load_document(document)
    return tree, engine, StorageQueryEngine(engine)


def _tree_values(tree, path):
    return [n.string_value() for n in evaluate_tree(tree, path)]


class TestPredicateParsing:
    def test_positional(self):
        (step,) = parse_path("/a[3]").steps
        assert step.predicates == (PositionPredicate(3),)

    def test_last(self):
        (step,) = parse_path("/a[last()]").steps
        assert step.predicates == (PositionPredicate(None),)

    def test_attribute_equality(self):
        (step,) = parse_path("/a[@lang='en']").steps
        assert step.predicates == (AttributePredicate("lang", "en"),)

    def test_attribute_existence(self):
        (step,) = parse_path("/a[@lang]").steps
        assert step.predicates == (AttributePredicate("lang"),)

    def test_child_equality_double_quotes(self):
        (step,) = parse_path('/a[t="x y"]').steps
        assert step.predicates == (ChildPredicate("t", "x y"),)

    def test_child_existence(self):
        (step,) = parse_path("/a[t]").steps
        assert step.predicates == (ChildPredicate("t"),)

    def test_stacked_predicates(self):
        (step,) = parse_path("/a[@lang='en'][2]").steps
        assert step.predicates == (AttributePredicate("lang", "en"),
                                   PositionPredicate(2))

    def test_repr_round_trip(self):
        for text in ("/a[2]", "/a[last()]", "/a[@x]", "/a[@x='1']",
                     "/a[b]", "/a[b='c']", "//a[@x='1'][1]"):
            assert repr(parse_path(text)) == text

    @pytest.mark.parametrize("bad", ["/a[]", "/a[0]", "/a[-1]",
                                     "/a[x=y]", "/a[f()]", "/a[x<1]",
                                     "/a[@]", "/a[@='x']", "/a[='x']",
                                     "/a[b c]", "/a[+1]", "/a[1.5]"])
    def test_bad_predicates(self, bad):
        with pytest.raises(QueryError):
            parse_path(bad)

    def test_malformed_position_is_a_query_error(self):
        # Used to escape as a bare ValueError from int("--2").
        with pytest.raises(QueryError):
            parse_path("/library/book[--2]")

    @pytest.mark.parametrize("literal", ["a[b", "x]y", "a/b"])
    def test_brackets_and_slashes_inside_a_quoted_literal(self, literal):
        _library, book, title = parse_path(
            f"/library/book[title='{literal}']/title").steps
        assert book.predicates == (ChildPredicate("title", literal),)
        assert (title.name, title.predicates) == ("title", ())


class TestTreePredicates:
    def test_position_is_per_parent(self, setup):
        tree, _engine, _queries = setup
        # book[1] of /lib and book[1] of /lib/shelf... only /lib/book
        assert _tree_values(tree, "/lib/book[1]/t") == ["Illusions"]

    def test_last(self, setup):
        tree, _engine, _queries = setup
        assert _tree_values(tree, "/lib/book[last()]/t") == ["Ulysses"]

    def test_out_of_range_position(self, setup):
        tree, _engine, _queries = setup
        assert _tree_values(tree, "/lib/book[9]") == []

    def test_attribute_equality(self, setup):
        tree, _engine, _queries = setup
        assert _tree_values(tree, "/lib/book[@lang='ru']/t") == \
            ["Dead Souls"]

    def test_attribute_existence(self, setup):
        tree, _engine, _queries = setup
        assert _tree_values(tree, "/lib/book[@year]/t") == ["Illusions"]

    def test_child_existence(self, setup):
        tree, _engine, _queries = setup
        assert _tree_values(tree, "/lib/book[a]/t") == \
            ["Illusions", "Ulysses"]

    def test_child_value(self, setup):
        from repro.xmlio import QName
        tree, _engine, _queries = setup
        result = evaluate_tree(tree, "/lib/book[t='Ulysses']")
        assert len(result) == 1
        lang = result[0].attribute_by_name(QName("", "lang"))
        assert lang.string_value() == "en"

    def test_stacked(self, setup):
        tree, _engine, _queries = setup
        assert _tree_values(tree, "/lib/book[@lang='en'][2]/t") == \
            ["Ulysses"]

    def test_descendant_positional_counts_per_parent(self, setup):
        tree, _engine, _queries = setup
        # //book[1] is /descendant-or-self::node()/child::book[1]: the
        # first book child of every parent, the shelf's included.
        assert _tree_values(tree, "//book[1]/t") == ["Illusions",
                                                      "Nausea"]

    def test_predicate_on_attribute_step(self, setup):
        tree, _engine, _queries = setup
        # Positions are per context node: each book has one lang
        # attribute, so [1] keeps them all and [2] keeps none.
        first = evaluate_tree(tree, "/lib/book/@lang[1]")
        assert [n.string_value() for n in first] == ["en", "ru", "en"]
        assert evaluate_tree(tree, "/lib/book/@lang[2]") == []


class TestEvaluatorAgreement:
    PATHS = [
        "/lib/book[1]/t",
        "/lib/book[2]",
        "/lib/book[last()]/t",
        "/lib/book[@lang='en']/t",
        "/lib/book[@year]",
        "/lib/book[a]/t",
        "/lib/book[t='Dead Souls']",
        "/lib/book[@lang='en'][2]/t",
        "//book[@lang='fr']",
        "//book[a='Joyce']/t",
        "//t[1]",
        "//book[last()]",
        "/lib/shelf/book[1]/t",
        "/lib/book[9]",
    ]

    @pytest.mark.parametrize("path", PATHS)
    def test_three_way_agreement(self, setup, path):
        tree, engine, queries = setup
        from_tree = _tree_values(tree, path)
        naive = [engine.string_value(d)
                 for d in queries.evaluate_naive(path)]
        driven = [engine.string_value(d)
                  for d in queries.evaluate_schema_driven(path)]
        assert from_tree == naive == driven
