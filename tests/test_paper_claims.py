"""The paper's evaluation as asserted counts.

The paper is a formal model: its evaluation is Examples 1-10, the
Section 8 Theorem, Proposition 1 (Section 9.3) and three claims about
the Sedna layout (Section 9).  One class per EXPERIMENTS.md row
regenerates that row's artefact and asserts the count it claims --
schema nodes, blocks, relabels, label bytes, descriptors visited,
requirement checks, automaton positions -- never a time, so each is
a gate that fails when the claim breaks.

"Scale n" is the Example 8 library document with n books and n papers
(``make_library_document(books=n, papers=n, seed=n)``).
"""

import random
from collections import Counter

import pytest

from repro import obs
from repro.algebra import ConformanceChecker, InstanceBuilder
from repro.content import DerivativeMatcher, GlushkovAutomaton, \
    compile_group
from repro.errors import ModelError
from repro.mapping import content_equal, document_to_tree, \
    tree_to_document, untyped_document_to_tree
from repro.numbering import DeweyBaseline, IntervalBaseline, \
    SednaAdapter, SimTree, UpdateWorkload
from repro.obs import explain
from repro.order import DocumentOrderIndex, before as structural_before, \
    iter_document_order
from repro.query import StorageQueryEngine
from repro.schema import CombinationFactor, ElementDeclaration, \
    GroupDefinition, RepetitionFactor, TypeName, parse_schema, \
    write_schema
from repro.storage import StorageEngine, StorageNodeStore, \
    before as label_before, is_ancestor
from repro.workloads import make_irregular_document, make_library_document
from repro.workloads.fixtures import EXAMPLE_1_SCHEMA, EXAMPLE_5_SCHEMA, \
    EXAMPLE_6_SCHEMA, EXAMPLE_7_SCHEMA, EXAMPLE_8_DESCRIPTIVE_SCHEMA, \
    LIBRARY_SCHEMA, wrap_in_schema
from repro.xdm import TreeNodeStore
from repro.xmlio import parse_document, serialize_document, xsd
from repro.xquery import XQueryEvaluator

SCALES = (10, 100, 1000)

#: Document nodes of the library document at each scale (EXPERIMENTS
#: EX8); its descriptive schema has 17 nodes at every one of them.
DOCUMENT_NODES = {10: 141, 100: 1418, 1000: 14472}


@pytest.fixture(scope="module")
def schema():
    return parse_schema(LIBRARY_SCHEMA)


@pytest.fixture(scope="module")
def documents():
    """The parsed library document at each scale."""
    return {scale: parse_document(serialize_document(
        make_library_document(books=scale, papers=scale, seed=scale)))
        for scale in SCALES}


@pytest.fixture(scope="module")
def trees(documents, schema):
    """f(X): the typed tree of each scale's document."""
    return {scale: document_to_tree(document, schema)
            for scale, document in documents.items()}


@pytest.fixture(scope="module")
def path_counts(trees):
    """How many nodes of each scale's f(X) lie on each path."""
    counts = {}
    for scale, tree in trees.items():
        store, paths = TreeNodeStore(tree), {}
        counts[scale] = counter = Counter()
        for node in store.iter_document_order():
            parent = store.parent(node)
            if parent is None:
                continue
            step = store.local_name(node) \
                if store.node_kind(node) == "element" \
                else "#" + store.node_kind(node)
            prefix = paths.get(store.node_key(parent))
            path = paths[store.node_key(node)] = \
                step if prefix is None else f"{prefix}/{step}"
            counter[path] += 1
    return counts


@pytest.fixture(scope="module")
def engines(documents):
    engines = {}
    for scale, document in documents.items():
        engines[scale] = engine = StorageEngine()
        engine.load_document(document)
    return engines


class TestSchemaExamples:
    """EX1-7: Examples 1-7 survive a write -> parse round trip."""

    @pytest.mark.parametrize("source", [
        EXAMPLE_1_SCHEMA, EXAMPLE_5_SCHEMA, EXAMPLE_6_SCHEMA,
        EXAMPLE_7_SCHEMA, LIBRARY_SCHEMA])
    def test_write_parse_roundtrip(self, source):
        schema = parse_schema(source)
        again = parse_schema(write_schema(schema))
        assert again.root_element == schema.root_element
        assert again.complex_types == schema.complex_types

    @pytest.mark.parametrize("width", [10, 100, 500])
    def test_one_member_per_declaration(self, width):
        elements = "".join(f'<xsd:element name="f{i}" type="xsd:string"/>'
                           for i in range(width))
        schema = parse_schema(wrap_in_schema(
            '<xsd:element name="R"><xsd:complexType><xsd:sequence>'
            f"{elements}</xsd:sequence></xsd:complexType></xsd:element>"))
        assert len(schema.root_element.type.group.members) == width


class TestDescriptiveSchema:
    """EX8: the DataGuide of a regular document is the 17-node figure
    at every scale; an irregular one degenerates to one per element."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_constant_size_for_the_library(self, engines, scale):
        engine = engines[scale]
        assert sorted(engine.schema.paths()) == \
            sorted(EXAMPLE_8_DESCRIPTIVE_SCHEMA)
        assert engine.schema.node_count() == 17
        assert engine.node_count() == DOCUMENT_NODES[scale]

    @pytest.mark.parametrize(
        "path", [path for path, _kind in EXAMPLE_8_DESCRIPTIVE_SCHEMA])
    @pytest.mark.parametrize("scale", SCALES)
    def test_schema_node_holds_every_node_on_its_path(
            self, engines, path_counts, scale, path):
        found = engines[scale].schema.find_path(path)
        assert found.descriptor_count == path_counts[scale][path] > 0

    @pytest.mark.parametrize("nodes", [100, 1000])
    def test_one_schema_node_per_irregular_element(self, nodes):
        engine = StorageEngine()
        engine.load_document(make_irregular_document(node_count=nodes,
                                                     seed=7))
        assert engine.schema.node_count() == nodes + 1


class TestDataBlocks:
    """EX9: block lists per schema node, in document order."""

    @pytest.mark.parametrize("capacity, blocks",
                             [(8, 187), (64, 29), (512, 17)])
    def test_block_count_by_capacity(self, documents, capacity, blocks):
        engine = StorageEngine(block_capacity=capacity)
        engine.load_document(documents[100])
        assert engine.block_count() == blocks
        assert _scan_titles(engine) == 100

    @pytest.mark.parametrize("scale", SCALES)
    def test_scan_returns_one_schema_node_in_order(self, engines, scale):
        assert _scan_titles(engines[scale]) == scale


def _scan_titles(engine):
    """Scan ``library/book/title``'s blocks: all of its descriptors,
    in strict <<; returns how many."""
    titles = engine.schema.find_path("library/book/title")
    scanned = list(engine.scan_schema_node(titles))
    assert len(scanned) == titles.descriptor_count
    assert all(label_before(a.nid, b.nid)
               for a, b in zip(scanned, scanned[1:]))
    return len(scanned)


class TestNodeDescriptors:
    """EX10: descriptor + schema node answer every accessor."""

    def test_descriptors_and_schema_nodes_are_slotted(self, engines):
        # The modelled footprint is honest only if no object carries a
        # __dict__ beside it.
        descriptor = engines[10].children(engines[10].document)[0]
        assert not hasattr(descriptor, "__dict__")
        assert not hasattr(descriptor.schema_node, "__dict__")

    @pytest.mark.parametrize("accessor", [
        "node_kind", "node_name", "string_value", "typed_value",
        "type_name", "base_uri", "nilled", "parent", "children",
        "attributes"])
    @pytest.mark.parametrize("scale", [10, 100])
    def test_every_accessor_from_storage_equals_the_tree(
            self, stores, scale, accessor):
        (stored, stored_at), (model, model_at) = stores[scale]
        pairs = list(zip(stored.iter_document_order(),
                         model.iter_document_order()))
        assert len(pairs) == len(stored_at) == len(model_at) == \
            DOCUMENT_NODES[scale]
        for a, b in pairs:
            assert _read(stored, accessor, a, stored_at) == \
                _read(model, accessor, b, model_at)


@pytest.fixture(scope="module")
def stores(trees, schema):
    """Scale -> the storage and the tree view of f(X), each with its
    nodes' document-order positions."""
    views = {}
    for scale in (10, 100):
        engine = StorageEngine()
        engine.load_tree(trees[scale])
        views[scale] = [
            (store, {store.node_key(node): i for i, node
                     in enumerate(store.iter_document_order())})
            for store in (StorageNodeStore.typed(engine, schema),
                          TreeNodeStore(trees[scale]))]
    return views


def _read(store, accessor, ref, position):
    """One accessor's answer, with nodes as document-order positions."""
    try:
        value = getattr(store, accessor)(ref)
    except ModelError as error:  # typed value of element-only content
        return type(error)
    if accessor == "typed_value":
        return [atomic.value for atomic in value]
    if accessor == "parent":
        return None if value is None else position[store.node_key(value)]
    if accessor in ("children", "attributes"):
        return [position[store.node_key(node)] for node in value]
    return value


class TestRoundTripTheorem:
    """THM: g(f(X)) =_c X at every scale."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_g_of_f_is_content_equal(self, documents, trees, scale):
        assert content_equal(tree_to_document(trees[scale]),
                             documents[scale])

    @pytest.mark.parametrize("scale", SCALES)
    def test_f_maps_every_node(self, trees, scale):
        nodes = TreeNodeStore(trees[scale]).iter_document_order()
        assert sum(1 for _ in nodes) == DOCUMENT_NODES[scale]

    @pytest.mark.parametrize("scale", SCALES)
    def test_serialize_parse_is_content_equal(self, documents, scale):
        # The XML substrate below f and g loses nothing either.
        text = serialize_document(documents[scale])
        assert content_equal(parse_document(text), documents[scale])


class TestDocumentOrder:
    """ORD: labels decide << and ancestry as the structural walk and
    the precomputed order index do, without touching the tree."""

    PAIRS = 300

    @pytest.mark.parametrize("scale", SCALES)
    def test_labels_agree_with_walk_and_index(self, engines, trees, scale):
        descriptors = list(engines[scale].iter_document_order())
        nodes = list(TreeNodeStore(trees[scale]).iter_document_order())
        assert len(descriptors) == len(nodes)
        index = DocumentOrderIndex(trees[scale])
        rng = random.Random(scale)
        shuffled = list(descriptors)
        rng.shuffle(shuffled)
        # Bytewise order of the memoized sort key is symbol order.
        assert sorted(shuffled, key=lambda d: d.nid.sort_key()) == \
            descriptors
        for _ in range(self.PAIRS):
            i = rng.randrange(len(nodes))
            j = rng.randrange(len(nodes))
            a, b = descriptors[i], descriptors[j]
            by_label = label_before(a.nid, b.nid)
            by_walk = nodes[i] is not nodes[j] and \
                structural_before(nodes[i], nodes[j])
            assert by_label == by_walk == index.before(nodes[i], nodes[j]) \
                == (i < j)
            chain = b.parent
            while chain is not None and chain is not a:
                chain = chain.parent
            assert is_ancestor(a.nid, b.nid) == (chain is a)


class TestProposition1:
    """NID: Sedna labels survive updates with zero relabels; the
    ordinal baselines pay for every insertion in front of a node."""

    @pytest.mark.parametrize("operations, scheme, relabels, max_bytes", [
        (100, SednaAdapter, 0, 14), (100, DeweyBaseline, 263, 24),
        (100, IntervalBaseline, 3927, 8), (400, SednaAdapter, 0, 16),
        (400, DeweyBaseline, 1594, 28), (400, IntervalBaseline, 14994, 8)])
    def test_random_updates(self, operations, scheme, relabels, max_bytes):
        run = UpdateWorkload(operations=operations, seed=13,
                             insert_bias=0.75).run(scheme, verify=False)
        assert (run.relabels, run.max_label_bytes) == (relabels, max_bytes)

    @pytest.mark.parametrize("scheme, relabels", [
        (SednaAdapter, 0), (DeweyBaseline, 1770), (IntervalBaseline, 1830)])
    def test_front_insertion(self, scheme, relabels):
        tree = SimTree()
        labelled = scheme(tree)
        labelled.load()
        for _ in range(60):
            labelled.on_insert(tree.insert(tree.root, 0))
        # Dewey renumbers every older sibling: sum(range(60)); intervals
        # also move the parent's end: sum(range(1, 61)).
        assert labelled.relabel_count == relabels

    def test_label_growth_over_long_run(self):
        # 30 bytes is the ceiling the midpoint allocation reaches today;
        # stepping an open bound instead would lower it.
        stats = UpdateWorkload(operations=1500, seed=29,
                               insert_bias=1.0).run(SednaAdapter,
                                                    verify=False)
        assert stats.relabels == 0
        assert stats.max_label_bytes <= 30


class TestConformanceWork:
    """VAL: the Section 6.2 checker's work is linear in the tree."""

    @pytest.mark.parametrize("scale, checks",
                             [(10, 169), (100, 1671), (1000, 16975)])
    def test_requirement_checks(self, clean_obs, trees, schema, scale,
                                checks):
        assert self._checks(trees[scale], schema) == checks

    def test_checks_per_node_do_not_grow(self, clean_obs, trees, schema):
        small = self._checks(trees[10], schema) / DOCUMENT_NODES[10]
        large = self._checks(trees[1000], schema) / DOCUMENT_NODES[1000]
        assert abs(large - small) <= 0.05 * small

    @pytest.mark.parametrize("width", [2, 16, 64])
    def test_choice_width_adds_no_checks(self, clean_obs, width):
        alternatives = "".join(
            f'<xsd:element name="alt{i}" type="xsd:string"/>'
            for i in range(width))
        schema = parse_schema(wrap_in_schema(
            '<xsd:element name="R"><xsd:complexType>'
            '<xsd:choice minOccurs="0" maxOccurs="unbounded">'
            f"{alternatives}</xsd:choice></xsd:complexType></xsd:element>"))
        tree = InstanceBuilder(schema, seed=width, max_occurs_cap=50).build()
        elements = sum(1 for node in iter_document_order(tree)
                       if node.node_kind() == "element")
        # Items 1, 3 and 7 once per tree, items 4 and 5 once per
        # element: the derivative matcher never expands the choice.
        assert self._checks(tree, schema) == 3 + 2 * elements

    @staticmethod
    def _checks(tree, schema):
        obs.enable()
        obs.reset()
        assert ConformanceChecker(schema).check(tree) == []
        return sum(obs.REGISTRY.value(name) for name in obs.REGISTRY
                   if name.startswith("conformance.checks.item"))


class TestSchemaDrivenPaths:
    """XP: the scan plan reads only the blocks of the matching schema
    nodes, so it visits exactly what it returns; naive navigation
    visits every node on the way."""

    @pytest.mark.parametrize("path, returned, naive", [
        ("/library/book/title", 1000, 3001), ("//author", 2985, 5970)])
    def test_scan_visits_what_it_returns(self, engines, path, returned,
                                         naive):
        nids, visited = _visit(engines[1000], path, "scan")
        naive_nids, naive_visited = _visit(engines[1000], path, "naive")
        assert nids == naive_nids
        assert (len(nids), visited, naive_visited) == \
            (returned, returned, naive)

    @pytest.mark.parametrize("policy", ["cost", "structural", "scan"])
    @pytest.mark.parametrize("path", [
        "/library/book/title", "//author", "/library/paper/title/text()",
        "/library/book/issue/year"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_every_plan_visits_what_it_returns(self, engines, scale, path,
                                               policy):
        nids, visited = _visit(engines[scale], path, policy)
        naive, naive_visited = _visit(engines[scale], path, "naive")
        assert nids == naive
        assert visited == len(nids) < naive_visited


def _visit(engine, path, policy):
    """The nids ``path`` returns under ``policy``, and how many
    descriptors the evaluation visited."""
    queries = StorageQueryEngine(engine, planner_policy=policy)
    with explain.collect(path) as record:
        nids = [d.nid for d in queries.evaluate(path)]
    return nids, record.nodes_visited


def _counted_group(max_occurs):
    """``a{0,max_occurs} b``."""
    return GroupDefinition(
        (ElementDeclaration("a", TypeName(xsd("string")),
                            RepetitionFactor(0, max_occurs)),
         ElementDeclaration("b", TypeName(xsd("string")))),
        CombinationFactor.SEQUENCE, RepetitionFactor(1, 1))


class TestAblations:
    """AB: counters beat expansion; a wider alphabet, shorter labels."""

    @pytest.mark.parametrize("max_occurs", [10, 100, 1000])
    def test_glushkov_expands_what_derivatives_count(self, max_occurs):
        particle = compile_group(_counted_group(max_occurs))
        word = ["a"] * min(max_occurs, 50) + ["b"]
        assert GlushkovAutomaton(particle).position_count == max_occurs + 1
        # The derivative matcher runs on the unexpanded model: one
        # counted ``a`` and one ``b``, whatever the bound.
        assert len(list(particle.names())) == 2
        assert DerivativeMatcher(particle).matches(word)

    @pytest.mark.parametrize("base, max_bytes",
                             [(4, 21), (16, 18), (256, 18)])
    def test_label_bytes_by_base(self, base, max_bytes):
        stats = UpdateWorkload(operations=300, seed=17,
                               insert_bias=1.0).run(
            lambda tree: SednaAdapter(tree, base=base), verify=False)
        assert stats.relabels == 0
        assert stats.max_label_bytes == max_bytes


_FILTER = ("for $b in /library/book where $b/issue/year > 1985 "
           "return $b/title")
_ORDER_BY = ("for $b in /library/book let $authors := $b/author "
             "where count($authors) > 1 order by $b/title return $b/title")
_CONSTRUCT = ("for $b in /library/book return "
              "<entry><t>{$b/title}</t><n>{count($b/author)}</n></entry>")


def _named(element, name):
    return [child for child in element.element_children()
            if child.name.local == name]


class TestXQuery:
    """XQ: each FLWOR shape returns one item per matching book."""

    @pytest.fixture(scope="class")
    def library(self, documents):
        document = documents[100]
        books = _named(document.root, "book")
        return XQueryEvaluator(untyped_document_to_tree(document)), books

    @staticmethod
    def _title(book):
        return _named(book, "title")[0].text_content()

    def test_filter(self, library):
        evaluator, books = library
        recent = [self._title(book) for book in books
                  if any(int(year.text_content()) > 1985
                         for issue in _named(book, "issue")
                         for year in _named(issue, "year"))]
        assert recent
        assert evaluator.evaluate_values(_FILTER) == recent

    def test_order_by(self, library):
        evaluator, books = library
        shared = sorted(self._title(book) for book in books
                        if len(_named(book, "author")) > 1)
        assert shared
        assert evaluator.evaluate_values(_ORDER_BY) == shared

    def test_constructor(self, library):
        evaluator, books = library
        entries = evaluator.evaluate(_CONSTRUCT)
        assert len(entries) == len(books)
        assert all(entry.name.local == "entry" for entry in entries)
