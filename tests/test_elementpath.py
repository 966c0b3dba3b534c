"""The path language agrees with XPath, as ElementPath states it.

``xml.etree.ElementTree``'s ElementPath is an independent reading of
the XPath fragment both languages share: name tests and ``*``, ``/``
and ``//`` (``descendant-or-self::node()/child::``, so the context is
never a match of its own ``//`` step), ``[@a]``, ``[@a='v']``,
``[c]``, ``[c='v']``, and a position (``[n]``, ``[last()]``) as the
first predicate of a named step, where both count the same-named
children of one parent.  (ElementPath counts same-tag siblings, so a
position on ``*`` or behind a value predicate is outside the shared
fragment.)

On generated library documents — the Example 8 shape, and the same
vocabulary nested at random so that ``//`` meets a book below a book
and a library below a library — every generated path gives the
elements ElementPath gives, in document order and without duplicates:
on the tree, and on storage under every planner policy, with value
indexes declared on every schema path and without.  ElementPath may
repeat a node below ancestor-related contexts; its answer is compared
as the node set it selects.
"""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

from hypothesis import example, given, settings, strategies as st

from repro.mapping import untyped_document_to_tree
from repro.query import POLICIES, StorageQueryEngine, evaluate_tree
from repro.storage import StorageEngine
from repro.workloads import make_library_document
from repro.xdm.store import TREE_STORE
from repro.xmlio import parse_document, serialize_document

from tests.test_query_plan import _budget

_NAMES = ("library", "book", "paper", "title", "author", "issue")
_ATTRIBUTES = ("year", "lang")
_VALUES = ("1977", "en", "Codd", "Gray", "")

_LIBRARY = serialize_document(make_library_document(
    books=6, papers=2, seed=3, year_attrs=True))
_NESTED = ("<library year='1977'><book lang='en'><title>Codd</title>"
           "<book><title>en</title><author>Codd</author></book>"
           "<author>Gray</author><author>Codd</author></book>"
           "<paper><library><book year='1977'/></library></paper>"
           "<book><author/><issue><book lang=''/></issue></book>"
           "</library>")


def _render(name, attributes, text, children):
    opened = name + "".join(f" {attribute}={quoteattr(value)}"
                            for attribute, value in attributes.items())
    body = escape(text) + "".join(children)
    return f"<{opened}>{body}</{name}>" if body else f"<{opened}/>"


def _element(depth, name=st.sampled_from(_NAMES)):
    children = (st.lists(_element(depth - 1), max_size=4) if depth
                else st.just([]))
    return st.builds(
        _render, name,
        st.dictionaries(st.sampled_from(_ATTRIBUTES),
                        st.sampled_from(_VALUES), max_size=2),
        st.sampled_from(("",) + _VALUES), children)


_DOCUMENTS = st.one_of(
    st.builds(
        lambda books, papers, seed, issue_every: serialize_document(
            make_library_document(books, papers, seed=seed,
                                  issue_every=issue_every,
                                  year_attrs=True)),
        st.integers(1, 5), st.integers(0, 3), st.integers(0, 10**6),
        st.integers(0, 3)),
    _element(3, st.just("library")),
)


@st.composite
def _paths(draw):
    """A path of the shared fragment: ``/library`` or a ``//`` step,
    then up to three more steps, each with at most a position and a
    value predicate."""
    value = st.sampled_from(("",) + tuple(f"='{value}'"
                                          for value in _VALUES))
    filters = st.one_of(
        st.tuples(st.sampled_from(_ATTRIBUTES), value).map(
            lambda pair: f"[@{pair[0]}{pair[1]}]"),
        st.tuples(st.sampled_from(_NAMES), value).map(
            lambda pair: f"[{pair[0]}{pair[1]}]"))
    text = "/library" if draw(st.booleans()) else ""
    for _ in range(draw(st.integers(0 if text else 1, 3))):
        name = draw(st.sampled_from(_NAMES + ("*",)))
        text += draw(st.sampled_from(("/", "//", "//"))) + name
        if name != "*" and draw(st.integers(0, 2)) == 0:
            text += draw(st.sampled_from(("[1]", "[2]", "[last()]")))
        if draw(st.integers(0, 2)) == 0:
            text += draw(filters)
    return text


def _elements_in_order(store, root):
    """Document order positions of the elements (the document node
    first), keyed by the store's node keys."""
    return {store.node_key(node): position for position, node in
            enumerate(node for node in store.iter_document_order(root)
                      if store.node_kind(node) in ("document", "element"))}


def _engines(text):
    """One storage engine per policy, without value indexes and with
    one on every attribute and element schema path, each with the
    positions of its elements."""
    plain, indexed = StorageEngine(), StorageEngine()
    plain.load_document(parse_document(text))
    indexed.load_document(parse_document(text))
    for schema_node in list(indexed.schema.iter_nodes()):
        if schema_node.node_type in ("attribute", "element"):
            indexed.create_index(schema_node.path)
    engines = []
    for engine in (plain, indexed):
        for policy in POLICIES:
            queries = StorageQueryEngine(engine, planner_policy=policy)
            store = queries.store
            engines.append((queries,
                            _elements_in_order(store, store.root())))
    return engines


def _assert_agreement(text, paths):
    wrapper = ET.Element("document")
    wrapper.append(ET.fromstring(text))
    etree_position = {node: position
                      for position, node in enumerate(wrapper.iter())}
    tree = untyped_document_to_tree(parse_document(text))
    tree_position = _elements_in_order(TREE_STORE, tree)
    engines = _engines(text)
    for path in paths:
        expected = sorted({etree_position[node]
                           for node in wrapper.findall("." + path)})
        assert [tree_position[TREE_STORE.node_key(node)]
                for node in evaluate_tree(tree, path)] == expected, path
        for queries, position in engines:
            assert [position[queries.store.node_key(node)]
                    for node in queries.evaluate(path)] == expected, \
                (path, queries.compile(path))


def test_the_whole_fragment_on_the_example_8_shape():
    _assert_agreement(_LIBRARY, [
        "/library//*", "//issue[1]", "//author[1]", "//book[last()]",
        "/library/book//book", "/library//library",
        "/library/*[title]/author[1]", "//*[@year='1981']",
        "//book[2][author]/title", "/library/book[issue]//year"])


def test_nested_names_meet_their_own_descendants():
    _assert_agreement(_NESTED, [
        "/library//library", "/library/book//book", "//book//book",
        "//book[1]", "//book[1]//book[1]", "//book//title[1]",
        "//*[@lang='']", "//library//book[@year]", "//book[author='']",
        "//book[title='en']/author[last()]", "/library//*"])


@settings(max_examples=_budget(150), deadline=None)
@given(text=_DOCUMENTS, paths=st.lists(_paths(), min_size=1, max_size=4))
@example(text=_NESTED, paths=["/library//*", "//book[1]/title"])
@example(text=_LIBRARY, paths=["//author[1]", "//issue[1]"])
def test_generated_paths_agree_with_elementpath(text, paths):
    _assert_agreement(text, paths)
