"""Tests for the XQuery-lite language (lexer, parser, evaluator)."""

from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.mapping import document_to_tree, untyped_document_to_tree
from repro.schema import parse_schema
from repro.storage import StorageEngine, StorageNodeStore
from repro.workloads import make_library_document
from repro.xmlio import parse_document, serialize_document
from repro.xquery import execute, execute_values, parse_query, tokenize
from repro.xquery.ast import Comparison, Flwor, Literal, PathExpr
from repro.workloads.fixtures import (
    EXAMPLE_7_DOCUMENT,
    EXAMPLE_7_SCHEMA,
    EXAMPLE_8_DOCUMENT,
    LIBRARY_SCHEMA,
    wrap_in_schema,
)

from tests.test_query_plan import _budget


@pytest.fixture(scope="module")
def bookstore():
    return document_to_tree(parse_document(EXAMPLE_7_DOCUMENT),
                            parse_schema(EXAMPLE_7_SCHEMA))


@pytest.fixture(scope="module")
def library():
    return untyped_document_to_tree(parse_document(EXAMPLE_8_DOCUMENT))


class TestLexer:
    def test_keywords_and_variables(self):
        tokens = tokenize("for $b in /a return $b")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "variable", "keyword", "path",
                         "keyword", "variable"]

    def test_strings_unquoted(self):
        (token,) = tokenize("'hello world'")
        assert token.kind == "string"
        assert token.text == "hello world"

    def test_comparison_vs_constructor(self):
        tokens = tokenize("$a < 3")
        assert tokens[1].kind == "comparison"
        tokens = tokenize("<tag>")
        assert tokens[0].kind == "start_tag"
        assert tokens[0].text == "tag"

    def test_path_with_predicate(self):
        (token,) = tokenize("/a/b[@x='1']/c")
        assert token.kind == "path"

    def test_junk_rejected(self):
        with pytest.raises(QueryError):
            tokenize("for $x § in /a")


class TestParser:
    def test_plain_path(self):
        expression = parse_query("/a/b")
        assert isinstance(expression, PathExpr)

    def test_flwor_shape(self):
        expression = parse_query(
            "for $x in /a let $y := $x/b where $y = '1' "
            "order by $y return $y")
        assert isinstance(expression, Flwor)
        assert len(expression.clauses) == 2
        assert expression.where is not None
        assert expression.order is not None

    def test_comparison(self):
        expression = parse_query("/a = 3")
        assert isinstance(expression, Comparison)
        assert isinstance(expression.right, Literal)
        assert expression.right.value == 3

    def test_decimal_literal(self):
        expression = parse_query("/a = 3.5")
        assert expression.right.value == Decimal("3.5")

    @pytest.mark.parametrize("bad", [
        "return /a",              # FLWOR without for/let
        "for $x in /a",           # missing return
        "for x in /a return x",   # missing $
        "unknownfn(/a)",
        "<a>{/x}</b>",            # mismatched constructor tags
        "for $x in /a return $x trailing",
    ])
    def test_rejects(self, bad):
        with pytest.raises(QueryError):
            parse_query(bad)


class TestPathsAndVariables:
    def test_plain_path_query(self, library):
        assert execute_values(library, "/library/book/title") == \
            ["Foundations of Databases",
             "An Introduction to Database Systems"]

    def test_for_over_path(self, library):
        result = execute_values(
            library, "for $b in /library/book return $b/title")
        assert len(result) == 2

    def test_var_path_application(self, library):
        result = execute_values(
            library,
            "for $b in /library/book return $b/author[1]")
        assert result == ["Abiteboul", "Date"]

    def test_let_binding(self, library):
        result = execute_values(
            library,
            "for $b in /library/book let $t := $b/title return $t")
        assert len(result) == 2

    def test_unbound_variable(self, library):
        with pytest.raises(QueryError):
            execute(library, "for $a in /library return $ghost")


class TestWhere:
    def test_string_equality(self, bookstore):
        result = execute_values(
            bookstore,
            "for $b in /BookStore/Book where $b/Date = '1998' "
            "return $b/Title")
        assert result == ["My Life and Times"]

    def test_numeric_comparison_on_untyped(self, library):
        result = execute_values(
            library,
            "for $b in /library/book "
            "where $b/issue/year > 2000 return $b/title")
        assert result == ["An Introduction to Database Systems"]

    def test_count_in_where(self, library):
        result = execute_values(
            library,
            "for $b in /library/book where count($b/author) = 3 "
            "return $b/title")
        assert result == ["Foundations of Databases"]

    def test_and_or(self, bookstore):
        result = execute_values(
            bookstore,
            "for $b in /BookStore/Book "
            "where $b/Date = '1998' or $b/Date = '1977' "
            "return $b/Date")
        assert sorted(result) == ["1977", "1998"]
        result = execute_values(
            bookstore,
            "for $b in /BookStore/Book "
            "where $b/Date = '1998' and $b/Date = '1977' "
            "return $b/Date")
        assert result == []

    def test_existential_comparison(self, library):
        # paper/book with *some* author named Codd
        result = execute_values(
            library,
            "for $p in /library/paper where $p/author = 'Codd' "
            "return $p/title")
        assert len(result) == 2


class TestOrderBy:
    def test_ascending_strings(self, bookstore):
        result = execute_values(
            bookstore,
            "for $b in /BookStore/Book order by $b/Title "
            "return $b/Title")
        assert result == sorted(result)

    def test_descending(self, bookstore):
        result = execute_values(
            bookstore,
            "for $b in /BookStore/Book order by $b/Title descending "
            "return $b/Title")
        assert result == sorted(result, reverse=True)

    def test_numeric_order_on_typed_values(self):
        schema = parse_schema("""
          <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
           <xsd:element name="ns"><xsd:complexType><xsd:sequence>
            <xsd:element name="n" type="xsd:integer"
                         maxOccurs="unbounded"/>
           </xsd:sequence></xsd:complexType></xsd:element>
          </xsd:schema>""")
        tree = document_to_tree(
            parse_document("<ns><n>10</n><n>2</n><n>33</n></ns>"),
            schema)
        result = execute_values(
            tree, "for $n in /ns/n order by $n return $n")
        assert result == ["2", "10", "33"]  # numeric, not lexicographic


class TestMultipleFor:
    def test_cartesian_product(self, library):
        result = execute_values(
            library,
            "for $b in /library/book, $p in /library/paper "
            "return $b/title[1]")
        assert len(result) == 4  # 2 books x 2 papers

    def test_join_condition(self, library):
        result = execute_values(
            library,
            "for $p in /library/paper, $q in /library/paper "
            "where $p/author = $q/author "
            "return $p/title[1]")
        assert len(result) == 4  # both papers share the author Codd


def _stores(text, schema_text):
    """The document as a typed tree and as typed storage."""
    schema = parse_schema(schema_text)
    tree = document_to_tree(parse_document(text), schema)
    engine = StorageEngine()
    engine.load_tree(tree)
    return tree, StorageNodeStore.typed(engine, schema)


def _outcome(document, query):
    try:
        return execute(document, query)
    except QueryError as error:
        return error


def _on_both(stores, query):
    """*query* over the typed tree and over typed storage: the same
    items of the same Python types (no builtin returns a node), or a
    ``QueryError`` with the same message from both."""
    tree, storage = stores
    on_tree, on_storage = _outcome(tree, query), _outcome(storage, query)
    if isinstance(on_tree, QueryError):
        assert isinstance(on_storage, QueryError), query
        assert str(on_tree) == str(on_storage)
        return on_tree
    assert on_tree == on_storage, query
    assert [type(item) for item in on_tree] == \
        [type(item) for item in on_storage], query
    return on_tree


_NUMS = wrap_in_schema("""
 <xsd:element name="nums"><xsd:complexType>
  <xsd:sequence>
   <xsd:element name="n" type="xsd:integer"
                minOccurs="0" maxOccurs="unbounded"/>
  </xsd:sequence>
 </xsd:complexType></xsd:element>""")


@pytest.fixture(scope="module")
def typed_library():
    return _stores(EXAMPLE_8_DOCUMENT, LIBRARY_SCHEMA)


@pytest.fixture(scope="module")
def typed_bookstore():
    return _stores(EXAMPLE_7_DOCUMENT, EXAMPLE_7_SCHEMA)


@pytest.fixture(scope="module")
def typed_nums():
    return _stores("<nums><n>1</n><n>2</n><n>2</n></nums>", _NUMS)


#: Every builtin of the evaluator, as a query over library documents.
_LIBRARY_CALLS = (
    "count(//author)",
    "count(/library/book[1]/author)",
    "exists(//issue)",
    "empty(//issue)",
    "not(empty(//paper))",
    "not(0)",
    "string(/library/book[1]/title)",
    "string(//year)",
    "string(count(//book))",
    "data(//year)",
    "data(/library/paper/title)",
    "data(//issue)",
    "data(count(//paper))",
    "distinct-values(//author)",
    "distinct-values(//year)",
    "string-join(//publisher, ';')",
    "string-join(//title)",
)

_SINGLE_ARGUMENT = ("count", "exists", "empty", "not", "string", "data",
                    "distinct-values")


class TestFunctions:
    """Every builtin runs over the typed tree and over typed storage
    with equal results."""

    def test_count(self, typed_library):
        assert _on_both(typed_library, "count(//author)") == [6]

    def test_string_join(self, typed_library):
        (joined,) = _on_both(
            typed_library, "string-join(/library/paper/author, ';')")
        assert joined == "Codd;Codd"

    def test_string_join_with_a_separator(self, typed_nums):
        assert _on_both(typed_nums, "string-join(/nums/n, '+')") == \
            ["1+2+2"]
        assert _on_both(typed_nums, "string-join(/nums/n)") == ["122"]

    @pytest.mark.parametrize("query", [
        "string-join(//author, //title)",
        "string-join(//author, (',', ';'))",
        "string-join(//author, //nonexistent)",
    ])
    def test_string_join_takes_one_separator_item(self, typed_library,
                                                  query):
        error = _on_both(typed_library, query)
        assert isinstance(error, QueryError)
        assert "one separator item" in str(error)

    def test_distinct_values(self, typed_library, typed_nums):
        assert _on_both(typed_library,
                        "distinct-values(/library/paper/author)") == \
            ["Codd"]
        assert _on_both(typed_nums, "distinct-values(/nums/n)") == [1, 2]

    def test_exists_empty_not(self, typed_library):
        assert _on_both(typed_library, "exists(//issue)") == [True]
        assert _on_both(typed_library, "empty(//nonexistent)") == [True]
        assert _on_both(typed_library, "not(exists(//issue))") == [False]

    def test_string(self, typed_library):
        (value,) = _on_both(typed_library,
                            "string(/library/book[1]/title)")
        assert value == "Foundations of Databases"

    def test_string_of_an_atomic(self, typed_library):
        assert _on_both(typed_library, "string(42)") == ["42"]
        assert _on_both(typed_library, "string(count(//author))") == ["6"]

    def test_data_on_typed(self, typed_bookstore, typed_nums):
        values = _on_both(typed_bookstore,
                          "data(/BookStore/Book[1]/Title)")
        assert values == ["My Life and Times"]
        assert _on_both(typed_nums, "data(/nums/n)") == [1, 2, 2]

    def test_data_of_one_node(self, typed_nums):
        assert _on_both(typed_nums, "data(/nums/n[2])") == [2]

    def test_data_passes_atomics_through(self, typed_nums):
        assert _on_both(typed_nums, "data(5)") == [5]
        assert _on_both(typed_nums, "data(data(/nums/n))") == [1, 2, 2]

    @pytest.mark.parametrize("query", [
        *(f"{name}()" for name in _SINGLE_ARGUMENT),
        *(f"{name}(//author, //title)" for name in _SINGLE_ARGUMENT),
        "string-join()",
        "string-join(//author, ';', ',')",
    ])
    def test_arity_errors(self, typed_library, query):
        error = _on_both(typed_library, query)
        assert isinstance(error, QueryError)
        assert "argument" in str(error)


@settings(max_examples=_budget(10), deadline=None)
@given(books=st.integers(0, 4), papers=st.integers(0, 4),
       seed=st.integers(0, 10**6), issue_every=st.integers(0, 3))
def test_builtins_agree_on_generated_library_documents(books, papers, seed,
                                                       issue_every):
    """Each builtin gives the same answer on the typed tree and on
    typed storage of a generated library document."""
    text = serialize_document(make_library_document(
        books, papers, seed=seed, issue_every=issue_every))
    stores = _stores(text, LIBRARY_SCHEMA)
    for query in _LIBRARY_CALLS:
        _on_both(stores, query)


class TestConstructors:
    def test_simple_constructor(self, library):
        (element,) = execute(
            library,
            "for $b in /library/book[1] return "
            "<summary>{$b/title}</summary>")
        assert element.name.local == "summary"
        (title,) = element.element_children()
        assert title.string_value() == "Foundations of Databases"

    def test_copy_semantics(self, library):
        (element,) = execute(
            library, "<wrap>{/library/book[1]/title}</wrap>")
        original = execute(library, "/library/book[1]/title")[0]
        copy = element.element_children()[0]
        assert copy is not original
        assert copy.string_value() == original.string_value()
        assert original.parent_or_none() is not element

    def test_nested_constructors(self, library):
        (element,) = execute(
            library,
            "<report><count>{count(//book)}</count></report>")
        assert element.string_value() == "2"

    def test_atomic_content_becomes_text(self, library):
        (element,) = execute(library, "<n>{count(//paper)}</n>")
        (text,) = element.children()
        assert text.node_kind() == "text"
        assert text.string_value() == "2"

    def test_constructed_tree_serializes(self, bookstore):
        from repro.mapping import serialize_tree
        (element,) = execute(
            bookstore,
            "for $b in /BookStore/Book[1] return "
            "<entry>{$b/Title}</entry>")
        text = serialize_tree(element)
        assert "<entry>" in text
        assert 'xmlns="http://www.books.org"' in text


class TestSequences:
    def test_parenthesized_sequence(self, library):
        result = execute_values(
            library, "(count(//book), count(//paper))")
        assert result == ["2", "2"]

    def test_flwor_concatenates(self, library):
        result = execute_values(
            library,
            "for $x in /library/book return "
            "($x/title[1], $x/author[1])")
        assert len(result) == 4


class TestNestedFlwor:
    def test_flwor_inside_return(self, library):
        result = execute_values(library, """
            for $b in /library/book
            return for $a in $b/author return $a""")
        assert len(result) == 4  # 3 + 1 authors

    def test_let_shadowing_inner_scope(self, library):
        result = execute_values(library, """
            for $b in /library/book
            let $t := $b/title
            return for $x in $t return $x""")
        assert len(result) == 2

    def test_where_on_inner_variable(self, bookstore):
        result = execute_values(bookstore, """
            for $b in /BookStore/Book
            return for $d in $b/Date where $d = '1977' return $d""")
        assert result == ["1977"]
