"""Cross-backend parity of the NodeStore protocol.

The same document presented by :class:`TreeNodeStore` (the §5/§6
state-algebra tree) and by :class:`StorageNodeStore` (the §9 Sedna
storage) must answer all ten accessors identically, agree on document
order, and drive every protocol consumer — conformance (§6.2), the
mapping ``g`` (§8), path and XQuery evaluation — to identical results.
Parity must survive updates: mixed insert/delete/set_attribute
sequences through :class:`StoredDocument` keep the two views
bisimilar.
"""

import pytest

from repro.database import DatabaseError, StoredDocument, XmlDatabase
from repro.errors import ModelError, StorageError
from repro.algebra.conformance import ConformanceChecker
from repro.mapping import serialize_store
from repro.mapping import document_to_tree, tree_to_document
from repro.order import StoreOrderIndex, store_document_order
from repro.query import evaluate_store
from repro.schema import parse_schema
from repro.storage import StorageNodeStore
from repro.workloads import make_library_document
from repro.workloads.fixtures import (
    EXAMPLE_1_SCHEMA,
    EXAMPLE_6_SCHEMA,
    EXAMPLE_7_DOCUMENT,
    EXAMPLE_7_SCHEMA,
    EXAMPLE_8_DOCUMENT,
    LIBRARY_SCHEMA,
)
from repro.xdm import TREE_STORE, bisimulate, stores_agree
from repro.xdm.node import UNTYPED_ATOMIC_NAME
from repro.xmlio import parse_document
from repro.xsdtypes.sequence import Sequence
from repro.xquery import execute_values


@pytest.fixture
def untyped_doc():
    return XmlDatabase().store("library", EXAMPLE_8_DOCUMENT)


@pytest.fixture
def typed_doc():
    schema = parse_schema(EXAMPLE_7_SCHEMA)
    return XmlDatabase().store("bookstore", EXAMPLE_7_DOCUMENT, schema)


@pytest.fixture
def library_doc():
    schema = parse_schema(LIBRARY_SCHEMA)
    return XmlDatabase().store("library", EXAMPLE_8_DOCUMENT, schema)


def _typed_value_outcome(store, ref):
    try:
        return [atomic.value for atomic in store.typed_value(ref)]
    except ModelError:
        return "model-error"


def assert_accessor_parity(store_a, ref_a, store_b, ref_b,
                           parent_a=None, parent_b=None):
    """All ten §5 accessors agree at this node and below (attributes
    matched by name: the §6.2 automorphism σ leaves their order free)."""
    assert store_a.node_kind(ref_a) == store_b.node_kind(ref_b)
    assert store_a.node_name(ref_a) == store_b.node_name(ref_b)
    assert store_a.string_value(ref_a) == store_b.string_value(ref_b)
    assert store_a.type_name(ref_a) == store_b.type_name(ref_b)
    assert store_a.base_uri(ref_a) == store_b.base_uri(ref_b)
    assert store_a.nilled(ref_a) == store_b.nilled(ref_b)
    assert _typed_value_outcome(store_a, ref_a) == \
        _typed_value_outcome(store_b, ref_b)
    up_a, up_b = store_a.parent(ref_a), store_b.parent(ref_b)
    if parent_a is None:
        assert up_a is None and up_b is None
    else:
        assert store_a.node_key(up_a) == store_a.node_key(parent_a)
        assert store_b.node_key(up_b) == store_b.node_key(parent_b)

    attrs_a = {store_a.local_name(a): a
               for a in store_a.attributes(ref_a)}
    attrs_b = {store_b.local_name(b): b
               for b in store_b.attributes(ref_b)}
    assert set(attrs_a) == set(attrs_b)
    for local, attr_a in attrs_a.items():
        assert_accessor_parity(store_a, attr_a, store_b, attrs_b[local],
                               parent_a=ref_a, parent_b=ref_b)

    children_a = store_a.children(ref_a)
    children_b = store_b.children(ref_b)
    assert len(children_a) == len(children_b)
    for child_a, child_b in zip(children_a, children_b):
        assert_accessor_parity(store_a, child_a, store_b, child_b,
                               parent_a=ref_a, parent_b=ref_b)


def _stores_of(stored: StoredDocument):
    tree_store = stored.tree_store
    if stored.schema is not None:
        storage_store = StorageNodeStore.typed(stored.engine,
                                               stored.schema)
    else:
        storage_store = stored.storage_store
    return tree_store, storage_store


class TestAccessorParity:
    def test_untyped(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        assert_accessor_parity(tree_store, tree_store.root(),
                               storage_store, storage_store.root())

    def test_typed_bookstore(self, typed_doc):
        tree_store, storage_store = _stores_of(typed_doc)
        assert_accessor_parity(tree_store, tree_store.root(),
                               storage_store, storage_store.root())

    def test_typed_library(self, library_doc):
        tree_store, storage_store = _stores_of(library_doc)
        assert_accessor_parity(tree_store, tree_store.root(),
                               storage_store, storage_store.root())


class TestDocumentOrderParity:
    def test_same_length_and_pairwise_agreement(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        order_a = store_document_order(tree_store)
        order_b = store_document_order(storage_store)
        assert len(order_a) == len(order_b)
        for ref_a, ref_b in zip(order_a, order_b):
            assert tree_store.node_kind(ref_a) == \
                storage_store.node_kind(ref_b)
            assert tree_store.string_value(ref_a) == \
                storage_store.string_value(ref_b)

    def test_before_agrees(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        order_a = store_document_order(tree_store)
        order_b = store_document_order(storage_store)
        pairs = [(0, 1), (1, 5), (3, 2), (len(order_a) - 1, 0)]
        for i, j in pairs:
            assert tree_store.before(order_a[i], order_a[j]) == \
                storage_store.before(order_b[i], order_b[j])

    def test_store_order_index(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        index_a = StoreOrderIndex(tree_store)
        index_b = StoreOrderIndex(storage_store)
        assert len(index_a) == len(index_b)
        order_a = store_document_order(tree_store)
        order_b = store_document_order(storage_store)
        for ref_a, ref_b in zip(order_a, order_b):
            assert index_a.position(ref_a) == index_b.position(ref_b)


class TestConsumerParity:
    def test_paths(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        for path in ("/library/book/title", "//author", "//book[2]/title",
                     "//paper/author", "/library/book[issue]/title"):
            values_a = [tree_store.string_value(r) for r in
                        evaluate_store(tree_store, path)]
            values_b = [storage_store.string_value(r) for r in
                        evaluate_store(storage_store, path)]
            assert values_a == values_b, path

    def test_conformance(self, library_doc):
        checker = ConformanceChecker(library_doc.schema)
        tree_store, storage_store = _stores_of(library_doc)
        assert checker.check_store(tree_store) == []
        assert checker.check_store(storage_store) == []

    def test_conformance_sees_storage_violations(self, library_doc):
        # Delete a required title in both representations: both views
        # must report the same item numbers.
        library_doc.delete("/library/book[1]/title")
        checker = ConformanceChecker(library_doc.schema)
        tree_store, storage_store = _stores_of(library_doc)
        items_a = {v.item for v in checker.check_store(tree_store)}
        items_b = {v.item for v in checker.check_store(storage_store)}
        assert items_a == items_b != set()

    def test_mapping_g(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        assert serialize_store(tree_store) == \
            serialize_store(storage_store)

    def test_mapping_g_typed(self, typed_doc):
        tree_store, storage_store = _stores_of(typed_doc)
        assert serialize_store(tree_store) == \
            serialize_store(storage_store)

    def test_xquery(self, untyped_doc):
        tree_store, storage_store = _stores_of(untyped_doc)
        queries = (
            "//author",
            "count(//book)",
            "for $b in /library/book where count($b/author) > 1 "
            "return $b/title",
            "for $t in //title order by $t return $t",
            "distinct-values(//author)",
        )
        for query in queries:
            assert execute_values(tree_store, query) == \
                execute_values(storage_store, query), query


class TestParityUnderUpdates:
    def test_mixed_updates_stay_bisimilar(self, untyped_doc):
        doc = untyped_doc
        # Append a new book after every existing child (child indices
        # count the preserved whitespace text nodes too).
        end = len(list(doc.tree.document_element().children()))
        doc.insert_element("/library", end, "book")
        doc.insert_element("/library/book[3]", 0, "title")
        doc.insert_text("/library/book[3]/title", 0, "The Art of SQL")
        doc.set_attribute("/library/book[3]", "lang", "en")
        doc.delete("/library/paper[2]")
        doc.set_attribute("/library/book[1]", "shelf", "A3")
        doc.set_attribute("/library/book[1]", "shelf", "B1")  # replace
        doc.verify_consistency()
        tree_store, storage_store = _stores_of(doc)
        assert_accessor_parity(tree_store, tree_store.root(),
                               storage_store, storage_store.root())
        assert len(store_document_order(tree_store)) == \
            len(store_document_order(storage_store))

    def test_queries_after_updates(self, untyped_doc):
        doc = untyped_doc
        doc.insert_element("/library", 0, "book")
        doc.insert_element("/library/book[1]", 0, "title")
        doc.insert_text("/library/book[1]/title", 0, "Transactions")
        doc.delete("/library/book[2]/author[2]")
        tree_store, storage_store = _stores_of(doc)
        for path in ("//title", "//author", "/library/book/title"):
            values_a = [tree_store.string_value(r) for r in
                        evaluate_store(tree_store, path)]
            values_b = [storage_store.string_value(r) for r in
                        evaluate_store(storage_store, path)]
            assert values_a == values_b, path

    def test_divergence_is_detected(self, untyped_doc):
        doc = untyped_doc
        tree_store, storage_store = _stores_of(doc)
        assert stores_agree(tree_store, storage_store)
        # Mutate the tree side only: bisimulation must fail.
        root_element = doc.tree.document_element()
        doc.algebra.append_child(root_element,
                                 doc.algebra.create_text("rogue"))
        assert not stores_agree(tree_store, storage_store)
        with pytest.raises(StorageError):
            bisimulate(tree_store, storage_store)


class TestDeleteRegression:
    """StoredDocument.delete: the root element is not deletable, and
    nested deletes keep both representations in lockstep."""

    def test_delete_root_element_rejected(self, untyped_doc):
        with pytest.raises(DatabaseError, match="document root"):
            untyped_doc.delete("/library")

    def test_nested_delete_keeps_consistency(self, untyped_doc):
        before = untyped_doc.engine.node_count()
        subtree = len(list(TREE_STORE.iter_document_order(
            untyped_doc.query("/library/book[2]/issue")[0])))
        removed = untyped_doc.delete("/library/book[2]/issue")
        assert removed == subtree
        assert untyped_doc.engine.node_count() == before - removed
        untyped_doc.verify_consistency()
        assert untyped_doc.query_values("//publisher") == []


class TestSetAttributeReplace:
    """StoredDocument.set_attribute: second write to the same name
    replaces the value in *both* representations."""

    def test_replace_updates_both_sides(self, untyped_doc):
        doc = untyped_doc
        doc.set_attribute("/library/book[1]", "lang", "en")
        doc.set_attribute("/library/book[1]", "lang", "fr")
        doc.verify_consistency()
        (element,) = doc.query("/library/book[1]")
        attributes = list(element.attributes())
        assert len(attributes) == 1
        assert attributes[0].string_value() == "fr"
        (descriptor,) = doc.query_storage("/library/book[1]")
        stored = doc.engine.attributes(descriptor)
        assert len(stored) == 1
        assert stored[0].value == "fr"

    def test_replace_keeps_label_and_identity(self, untyped_doc):
        doc = untyped_doc
        doc.set_attribute("/library/book[1]", "lang", "en")
        (element,) = doc.query("/library/book[1]")
        (attribute,) = element.attributes()
        (descriptor,) = doc.query_storage("/library/book[1]/@lang")
        nid = descriptor.nid.symbols()
        doc.set_attribute("/library/book[1]", "lang", "de")
        (after,) = doc.query_storage("/library/book[1]/@lang")
        assert after is descriptor
        assert descriptor.nid.symbols() == nid  # no relabeling
        assert attribute.string_value() == "de"

    def test_engine_default_still_rejects_duplicates(self, untyped_doc):
        doc = untyped_doc
        doc.set_attribute("/library/book[1]", "lang", "en")
        (descriptor,) = doc.query_storage("/library/book[1]")
        from repro.xmlio.qname import QName
        with pytest.raises(StorageError, match="already present"):
            doc.engine.set_attribute(descriptor, QName("", "lang"), "xx")


# ----------------------------------------------------------------------
# The tree store reads node fields: same answers as §5, no wrapping


_NIL_DOCUMENT = (
    '<Catalogue xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
    '<Remark xsi:nil="true"/><Book>b</Book><Note><Text>t</Text></Note>'
    "</Catalogue>")

_MIXED_DOCUMENT = (
    '<Review InStock="true" Reviewer="bob">Great stuff '
    "<Book><Title>T</Title><Author>A</Author><Date>D</Date>"
    "<ISBN>I</ISBN><Publisher>P</Publisher></Book> indeed</Review>")

_SECTION_5_TREES = {
    "bookstore": (EXAMPLE_7_SCHEMA, EXAMPLE_7_DOCUMENT),
    "library": (LIBRARY_SCHEMA, EXAMPLE_8_DOCUMENT),
    "nilled": (EXAMPLE_1_SCHEMA, _NIL_DOCUMENT),
    "mixed": (EXAMPLE_6_SCHEMA, _MIXED_DOCUMENT),
}


def _head(sequence):
    return sequence.head() if sequence else None


def _outcome(read):
    try:
        return list(read())
    except ModelError:
        return "model-error"


#: Each ``TreeNodeStore`` accessor beside the unwrapped §5 method.
_UNWRAPPED = {
    "node_kind": lambda n: n.node_kind(),
    "node_name": lambda n: _head(n.node_name()),
    "parent": lambda n: _head(n.parent()),
    "string_value": lambda n: n.string_value(),
    "typed_value": lambda n: _outcome(n.typed_value),
    "type_name": lambda n: _head(n.type()),
    "children": lambda n: list(n.children()),
    "attributes": lambda n: list(n.attributes()),
    "base_uri": lambda n: _head(n.base_uri()),
    "nilled": lambda n: _head(n.nilled()),
}


def _section_5_tree(name):
    schema_text, text = _SECTION_5_TREES[name]
    return document_to_tree(parse_document(text, base_uri="urn:doc"),
                            parse_schema(schema_text))


@pytest.fixture(params=sorted(_SECTION_5_TREES))
def section_5_tree(request):
    return _section_5_tree(request.param)


def _section_5_walk(node):
    """Every node below *node*, found through the §5 methods alone."""
    yield node
    for attribute in node.attributes():
        yield attribute
    for child in node.children():
        yield from _section_5_walk(child)


class TestTreeStoreReadsFields:
    def test_fixture_covers_names_nil_and_mixed_content(self):
        nodes = [node for name in _SECTION_5_TREES
                 for node in _section_5_walk(_section_5_tree(name))]
        assert {n.node_kind() for n in nodes} == {
            "document", "element", "attribute", "text"}
        assert any(_head(n.base_uri()) == "urn:doc" for n in nodes)
        assert any(_head(n.node_name()).uri for n in nodes
                   if n.node_kind() == "element")
        assert any(_head(n.nilled()) for n in nodes)
        assert any({c.node_kind() for c in n.children()}
                   == {"element", "text"} for n in nodes)

    def test_every_accessor_is_the_unwrapped_section_5_value(
            self, section_5_tree):
        for node in _section_5_walk(section_5_tree):
            for accessor, unwrapped in _UNWRAPPED.items():
                read = getattr(TREE_STORE, accessor)
                expected = unwrapped(node)
                if accessor == "typed_value":
                    assert _outcome(lambda: read(node)) == expected
                else:
                    assert read(node) == expected, (accessor, node)

    def test_kind_fixed_values_are_none_or_empty(self, section_5_tree):
        document = section_5_tree
        assert TREE_STORE.node_name(document) is None
        assert TREE_STORE.type_name(document) is None
        assert TREE_STORE.nilled(document) is None
        assert TREE_STORE.attributes(document) == []
        kinds = {n.node_kind(): n for n in _section_5_walk(document)}
        text = kinds["text"]
        assert TREE_STORE.children(text) == []
        assert TREE_STORE.type_name(text) == UNTYPED_ATOMIC_NAME

    def test_check_and_g_construct_no_sequence(self, monkeypatch):
        """The work the field reads remove, counted: the §6.2 check
        and ``g`` over a 100-book library build no ``Sequence``."""
        schema = parse_schema(LIBRARY_SCHEMA)
        tree = document_to_tree(
            make_library_document(books=100, papers=10, seed=100), schema)
        built = []
        construct = Sequence.__init__

        def counting(self, items=()):
            built.append(1)
            construct(self, items)

        monkeypatch.setattr(Sequence, "__init__", counting)
        assert ConformanceChecker(schema).check(tree) == []
        tree_to_document(tree)
        assert built == []
        tree.document_element().node_name()
        assert built == [1]  # the counter is live
