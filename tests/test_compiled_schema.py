"""The compiled form of a document schema: resolved once, read by all.

A ``DocumentSchema`` compiles every type reference when it is built
(:mod:`repro.schema.compiled`).  *f*, the §6.2 checker, the instance
builder and the storage typing read that form, so the work they do per
document is counted here: content models are built once per schema,
and no reader calls ``DocumentSchema.resolve``.  The generated
properties check that the compiled typing agrees everywhere: a built
instance presents the same ten accessors as a tree and as typed
storage, and a typed insert is annotated exactly as a from-scratch
``schema_type_annotations`` of the final engine annotates it.  CI's
crash-matrix step runs them with --hypothesis-profile=crash-matrix
--hypothesis-seed=0.
"""

import random

from hypothesis import given, settings, strategies as st

import repro.database
import repro.storage.store
from repro.algebra import ConformanceChecker, InstanceBuilder
from repro.content.matcher import ContentModel
from repro.database import XmlDatabase
from repro.mapping import document_to_tree, tree_to_document
from repro.schema import DocumentSchema, parse_schema
from repro.storage import StorageEngine, StorageNodeStore
from repro.storage.store import schema_type_annotations
from repro.workloads import make_library_document
from repro.workloads.fixtures import (
    EXAMPLE_5_SCHEMA,
    EXAMPLE_6_SCHEMA,
    LIBRARY_SCHEMA,
)
from repro.xdm import TreeNodeStore
from repro.xdm.node import ANY_TYPE_NAME, ElementNode
from repro.xmlio import xsd

from tests.test_integration_properties import _KITCHEN_SINK
from tests.test_node_store import assert_accessor_parity
from tests.test_query_plan import _budget

#: Nil, choice and mixed content (kitchen sink), attributes on mixed
#: content (Example 6), simple content (Example 5), a named type
#: shared by two declarations (library).
_SCHEMAS = {
    "kitchen-sink": _KITCHEN_SINK,
    "example-5": EXAMPLE_5_SCHEMA,
    "example-6": EXAMPLE_6_SCHEMA,
    "library": LIBRARY_SCHEMA,
}


def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestResolvedOnce:
    def test_content_models_are_built_once_per_schema(self, monkeypatch):
        """144 documents through *f* and the check, each with its own
        checker as ``ingest`` runs them: three content models (library,
        PublicationType, issue), not three per document per stage."""
        built = _counting(monkeypatch, ContentModel, "__init__")
        schema = parse_schema(LIBRARY_SCHEMA)
        for seed in range(144):
            tree = document_to_tree(
                make_library_document(books=2, papers=1, seed=seed), schema)
            assert ConformanceChecker(schema).check(tree) == []
        assert len(built) == 3

    def test_no_reader_resolves_a_type_reference(self, monkeypatch):
        schema = parse_schema(LIBRARY_SCHEMA)
        resolved = _counting(monkeypatch, DocumentSchema, "resolve")
        tree = document_to_tree(
            make_library_document(books=20, papers=20, seed=1), schema)
        assert ConformanceChecker(schema).check(tree) == []
        engine = StorageEngine()
        engine.load_tree(tree)
        store = StorageNodeStore.typed(engine, schema)
        assert ConformanceChecker(schema).check_store(store) == []
        InstanceBuilder(schema, seed=1).build()
        assert resolved == []

    def test_typed_insert_does_not_retype_the_schema(self, monkeypatch):
        def retype(*_args):
            raise AssertionError("schema_type_annotations called")

        monkeypatch.setattr(repro.storage.store, "schema_type_annotations",
                            retype)
        monkeypatch.setattr(repro.database, "schema_type_annotations",
                            retype, raising=False)
        schema = parse_schema(LIBRARY_SCHEMA)
        doc = XmlDatabase().store(
            "library", make_library_document(books=3, papers=1, seed=2),
            schema)
        element = doc.insert_element("/library/book[2]", 0, "author")
        assert element.type().head() == xsd("string")
        doc.verify_consistency()


# ----------------------------------------------------------------------
# Generated: the compiled typing agrees across representations


@settings(max_examples=_budget(10), deadline=None)
@given(fixture=st.sampled_from(sorted(_SCHEMAS)),
       seed=st.integers(0, 10**9))
def test_built_instances_present_the_same_typed_accessors(fixture, seed):
    """Tree ≡ typed storage on all ten accessors.  The storage keeps no
    ``xsi:nil`` (it presents every element un-nilled), so instances are
    built with nillable declarations left un-nilled."""
    schema = parse_schema(_SCHEMAS[fixture])
    tree = InstanceBuilder(schema, seed=seed, nil_probability=0.0).build()
    engine = StorageEngine()
    engine.load_tree(tree)
    tree_store = TreeNodeStore(tree)
    storage_store = StorageNodeStore.typed(engine, schema)
    assert_accessor_parity(tree_store, tree_store.root(),
                           storage_store, storage_store.root())


def _names_of(element):
    """The local names from the root element down to *element*."""
    names = []
    while isinstance(element, ElementNode):
        names.append(element.name.local)
        element = element.parent_or_none()
    return names[::-1]


def _path_of(element):
    """A path selecting exactly *element* (one positional step per
    level)."""
    steps = []
    while isinstance(element, ElementNode):
        parent = element.parent_or_none()
        same = [child for child in parent.children()
                if isinstance(child, ElementNode)
                and child.name == element.name]
        position = next(index for index, child in enumerate(same, 1)
                        if child is element)
        steps.append(f"{element.name.local}[{position}]")
        element = parent
    return "/" + "/".join(reversed(steps))


def _elements_of(element):
    yield element
    for child in element.element_children():
        yield from _elements_of(child)


def _assert_typed_as_annotated(node, descriptor, engine, annotations):
    """Each element's (type, simple type) is its schema node's
    annotation, or the untyped view where the schema has none."""
    annotation = annotations.get(descriptor.schema_node)
    expected = ((annotation.type_name, annotation.simple_type)
                if annotation is not None else (ANY_TYPE_NAME, None))
    assert (node.type().head(), node._simple_type) == expected, \
        descriptor.schema_node.path
    elements = [child for child in engine.children(descriptor)
                if child.node_type == "element"]
    assert len(elements) == len(node.element_children())
    for child, stored in zip(node.element_children(), elements):
        _assert_typed_as_annotated(child, stored, engine, annotations)


@settings(max_examples=_budget(10), deadline=None)
@given(fixture=st.sampled_from(sorted(_SCHEMAS)),
       seed=st.integers(0, 10**9))
def test_typed_inserts_are_annotated_as_a_fresh_typing(fixture, seed):
    """A typed ``insert_element`` takes its type from its schema path;
    after a sequence of them every element reads the annotation that
    ``schema_type_annotations`` of the final engine gives its path."""
    schema = parse_schema(_SCHEMAS[fixture])
    tree = InstanceBuilder(schema, seed=seed, nil_probability=0.0).build()
    doc = XmlDatabase().store("doc", tree_to_document(tree), schema)
    rng = random.Random(seed)
    for _ in range(8):
        parent = rng.choice(list(_elements_of(doc.tree.document_element())))
        compiled = schema.type_at(_names_of(parent))
        # The declared child names, and one the schema does not type.
        names = ["x"]
        if compiled is not None and compiled.model is not None:
            names += sorted(compiled.model.particle.names())
        doc.insert_element(_path_of(parent),
                           rng.randint(0, len(parent.children())),
                           rng.choice(names))
    doc.verify_consistency()
    engine = doc.engine
    _assert_typed_as_annotated(
        doc.tree.document_element(), engine.children(engine.document)[0],
        engine, schema_type_annotations(engine, schema))
