"""Tests for the descriptive schema, blocks and the storage engine."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.xmlio import QName, parse_document
from repro.mapping import untyped_document_to_tree
from repro.storage import (
    Block,
    DescriptiveSchema,
    NodeDescriptor,
    NumberingScheme,
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    StorageEngine,
    before,
    dumps_engine,
    recover,
)
from repro.workloads.fixtures import (
    EXAMPLE_8_DESCRIPTIVE_SCHEMA,
    EXAMPLE_8_DOCUMENT,
    EXAMPLE_10_DESCRIPTOR_FIELDS,
)
from repro.workloads import make_library_document, make_irregular_document
from tests.test_query_plan import _budget


@pytest.fixture
def engine():
    engine = StorageEngine(block_capacity=4)
    engine.load_document(parse_document(EXAMPLE_8_DOCUMENT))
    return engine


class TestDescriptiveSchema:
    def test_example_8_descriptive_schema(self, engine):
        """The schema tree of the paper's Example 8 figure, exactly."""
        assert sorted(engine.schema.paths()) == sorted(
            EXAMPLE_8_DESCRIPTIVE_SCHEMA)

    def test_every_document_path_has_one_schema_path(self, engine):
        seen_paths = set()
        for descriptor in engine.iter_document_order():
            steps = []
            node = descriptor
            while node is not None and node.schema_node.node_type \
                    != "document":
                steps.append(node.schema_node.step)
                node = node.parent
            seen_paths.add("/".join(reversed(steps)))
        seen_paths.discard("")
        schema_paths = {path for path, _type in engine.schema.paths()}
        assert seen_paths == schema_paths

    def test_surjective_node_mapping(self, engine):
        """Every schema node has at least one instance (surjectivity)."""
        for schema_node in engine.schema.iter_nodes():
            assert schema_node.descriptor_count >= 1

    def test_find_path(self, engine):
        node = engine.schema.find_path("library/book/issue/year")
        assert node is not None
        assert node.node_type == "element"
        assert engine.schema.find_path("library/nope") is None

    def test_find_path_attribute_and_text_steps(self):
        engine = StorageEngine()
        engine.load_document(parse_document('<a k="v">text</a>'))
        assert engine.schema.find_path("a/@k").node_type == "attribute"
        assert engine.schema.find_path("a/#text").node_type == "text"

    def test_library_schema_node_count_matches_figure(self, engine):
        # document + the 16 (path, type) pairs of the figure.
        assert engine.schema.node_count() == 17


class TestDescriptorLayout:
    def test_example_10_fields_present(self, engine):
        descriptor = engine.children(engine.document)[0]
        for field in EXAMPLE_10_DESCRIPTOR_FIELDS:
            assert hasattr(descriptor, field), field

    def test_short_pointers_are_slots(self, engine):
        for descriptor in engine.iter_document_order():
            block = descriptor.block
            assert block is not None
            if descriptor.next_in_block != -1:
                neighbour = block.slots[descriptor.next_in_block]
                assert neighbour is not None
                assert before(descriptor.nid, neighbour.nid)

    def test_size_accounting(self, engine):
        descriptor = engine.children(engine.document)[0]
        # 3 pointers*8 + 2 shorts*2 + nid + 8 per schema-child pointer
        expected = (24 + 4 + len(descriptor.nid)
                    + 8 * len(descriptor.children_by_schema))
        assert descriptor.size_bytes() == expected

    def test_first_child_by_schema_pointers(self, engine):
        """Only *first* children are stored, per the §9.2 design: the
        library element keeps two pointers (book, paper), not four."""
        library = engine.children(engine.document)[0]
        element_pointers = {
            index: child
            for index, child in library.children_by_schema.items()
            if child.node_type == "element"}
        assert len(element_pointers) == 2
        children = engine.children(library)
        books = [c for c in children
                 if c.schema_node.name and c.schema_node.name.local
                 == "book"]
        papers = [c for c in children
                  if c.schema_node.name and c.schema_node.name.local
                  == "paper"]
        assert books[0] in element_pointers.values()
        assert papers[0] in element_pointers.values()
        assert books[1] not in element_pointers.values()


class TestAccessorsFromStorage:
    """§9.2: descriptor + schema node suffice for every accessor."""

    def test_node_kind(self, engine):
        assert engine.node_kind(engine.document) == "document"
        library = engine.children(engine.document)[0]
        assert engine.node_kind(library) == "element"

    def test_node_name(self, engine):
        library = engine.children(engine.document)[0]
        assert engine.node_name(library) == QName("", "library")
        assert engine.node_name(engine.document) is None

    def test_parent(self, engine):
        library = engine.children(engine.document)[0]
        assert engine.parent(library) is engine.document
        assert engine.parent(engine.document) is None

    def test_children_in_document_order(self, engine):
        library = engine.children(engine.document)[0]
        names = [engine.node_name(c).local
                 for c in engine.children(library)]
        assert names == ["book", "book", "paper", "paper"]

    def test_string_value(self, engine):
        library = engine.children(engine.document)[0]
        first_book = engine.children(library)[0]
        title = engine.children(first_book)[0]
        assert engine.string_value(title) == "Foundations of Databases"
        assert "Abiteboul" in engine.string_value(first_book)

    def test_attributes(self):
        engine = StorageEngine()
        engine.load_document(parse_document('<a x="1" y="2"><b/></a>'))
        a = engine.children(engine.document)[0]
        values = [(engine.node_name(d).local, d.value)
                  for d in engine.attributes(a)]
        assert values == [("x", "1"), ("y", "2")]

    def test_matches_xdm_model(self, engine):
        """Storage accessors agree with the formal model node-for-node."""
        document = parse_document(EXAMPLE_8_DOCUMENT)
        tree = untyped_document_to_tree(document)

        def walk(node, descriptor):
            assert node.node_kind() == engine.node_kind(descriptor)
            node_children = [c for c in node.children()
                             if c.node_kind() != "text"
                             or c.string_value().strip()]
            storage_children = engine.children(descriptor)
            assert len(node_children) == len(storage_children)
            for child, child_descriptor in zip(node_children,
                                               storage_children):
                if child.node_kind() == "element":
                    assert (child.node_name().head()
                            == engine.node_name(child_descriptor))
                    walk(child, child_descriptor)
                else:
                    assert (child.string_value()
                            == engine.string_value(child_descriptor))

        walk(tree.document_element(),
             engine.children(engine.document)[0])


class TestBlocks:
    def test_partial_order_across_blocks(self, engine):
        for schema_node in engine.schema.iter_nodes():
            blocks = list(schema_node.blocks())
            for first, second in zip(blocks, blocks[1:]):
                last = first.last_descriptor()
                head = second.first_descriptor()
                assert before(last.nid, head.nid)

    def test_block_capacity_respected(self, engine):
        for schema_node in engine.schema.iter_nodes():
            for block in schema_node.blocks():
                assert block.count <= block.capacity

    def test_scan_schema_node_in_document_order(self, engine):
        titles = engine.schema.find_path("library/book/title")
        scanned = list(engine.scan_schema_node(titles))
        values = [engine.string_value(d) for d in scanned]
        assert values == ["Foundations of Databases",
                          "An Introduction to Database Systems"]
        for a, b in zip(scanned, scanned[1:]):
            assert before(a.nid, b.nid)

    def test_block_split_preserves_chain(self):
        engine = StorageEngine(block_capacity=2)
        engine.load_document(
            make_library_document(books=20, papers=0, seed=1))
        engine.check_invariants()
        titles = engine.schema.find_path("library/book/title")
        assert titles.block_count() >= 10

    def test_too_small_capacity_rejected(self):
        schema = DescriptiveSchema()
        with pytest.raises(StorageError):
            Block(schema.root, capacity=1)


class TestUpdates:
    def test_insert_between_siblings(self, engine):
        library = engine.children(engine.document)[0]
        inserted = engine.insert_child(library, 1, name=QName("", "book"))
        engine.check_invariants()
        children = engine.children(library)
        assert children[1] is inserted
        assert engine.relabel_count == 0

    def test_insert_text(self, engine):
        library = engine.children(engine.document)[0]
        book = engine.children(library)[0]
        title = engine.children(book)[0]
        old = engine.string_value(title)
        engine.insert_child(title, 1, text="!")
        assert engine.string_value(title) == old + "!"

    def test_insert_extends_descriptive_schema(self, engine):
        before_count = engine.schema.node_count()
        library = engine.children(engine.document)[0]
        engine.insert_child(library, 0, name=QName("", "journal"))
        assert engine.schema.node_count() == before_count + 1
        assert engine.schema.find_path("library/journal") is not None

    def test_insert_bad_argument_combinations(self, engine):
        library = engine.children(engine.document)[0]
        with pytest.raises(StorageError):
            engine.insert_child(library, 0)
        with pytest.raises(StorageError):
            engine.insert_child(library, 0, name=QName("", "x"), text="y")
        with pytest.raises(StorageError):
            engine.insert_child(library, 99, name=QName("", "x"))

    def test_set_attribute(self, engine):
        library = engine.children(engine.document)[0]
        engine.set_attribute(library, QName("", "lang"), "en")
        engine.check_invariants()
        (attribute,) = engine.attributes(library)
        assert attribute.value == "en"

    def test_duplicate_attribute_rejected(self, engine):
        library = engine.children(engine.document)[0]
        engine.set_attribute(library, QName("", "lang"), "en")
        with pytest.raises(StorageError):
            engine.set_attribute(library, QName("", "lang"), "ru")

    def test_delete_subtree(self, engine):
        library = engine.children(engine.document)[0]
        first_book = engine.children(library)[0]
        node_count = engine.node_count()
        removed = engine.delete_subtree(first_book)
        engine.check_invariants()
        assert engine.node_count() == node_count - removed
        names = [engine.node_name(c).local
                 for c in engine.children(library)]
        assert names == ["book", "paper", "paper"]

    def test_delete_document_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.delete_subtree(engine.document)

    def test_first_child_pointer_updates_on_delete(self, engine):
        library = engine.children(engine.document)[0]
        books = [c for c in engine.children(library)
                 if engine.node_name(c).local == "book"]
        engine.delete_subtree(books[0])
        schema_book = engine.schema.find_path("library/book")
        pointer = engine.first_child_by_schema(library, schema_book)
        assert pointer is books[1]

    @staticmethod
    def _walk_place(engine, descriptor):
        """The placement by ``before()`` walks — block by block down
        the chain, then slot by slot inside the target — that the
        keyed placement replaced; kept as its oracle."""
        schema_node = descriptor.schema_node
        target = None
        for block in schema_node.blocks():
            last = block.last_descriptor()
            if last is None or before(descriptor.nid, last.nid):
                target = block
                break
        if target is None:
            engine._append_to_schema_blocks(descriptor)
            return
        if target.is_full:
            sibling = target.split()
            engine.split_count += 1
            first = sibling.first_descriptor()
            if first is not None and before(first.nid, descriptor.nid):
                target = sibling
        predecessor = None
        for candidate in target.iter_in_order():
            if not before(candidate.nid, descriptor.nid):
                break
            predecessor = candidate
        target.insert_after(descriptor, predecessor)
        if schema_node.note_added(descriptor):
            engine.plan_epoch += 1

    @staticmethod
    def _layout(engine, path):
        """Per block of *path*'s chain: its labels in chain order."""
        return [[d.nid.symbols() for d in block.iter_in_order()]
                for block in engine.schema.find_path(path).blocks()]

    @pytest.mark.parametrize("index", range(11))
    def test_keyed_placement_is_the_walked_placement(self, monkeypatch,
                                                     index):
        """Ten books, four to a block: [0-3] [4-7] [8 9].  Inserting a
        book at every index hits the head, middle and tail of a full
        block (which splits) and of a non-full one; the keyed placement
        puts it in the same block after the same predecessor as the
        walk did, and leaves every block holding the same labels."""
        engines = []
        for walked in (False, True):
            engine = StorageEngine(block_capacity=4)
            engine.load_document(
                make_library_document(books=10, papers=0, seed=2))
            assert [len(run) for run in
                    self._layout(engine, "library/book")] == [4, 4, 2]
            if walked:
                monkeypatch.setattr(
                    engine, "_place_descriptor",
                    lambda d, engine=engine: self._walk_place(engine, d))
            library = engine.children(engine.document)[0]
            inserted = engine.insert_child(library, index,
                                           name=QName("", "book"))
            engine.check_invariants()
            predecessor = (None if inserted.prev_in_block == -1 else
                           inserted.block.slots[inserted.prev_in_block])
            engines.append((engine, inserted, predecessor))
        (keyed, mine, mine_before), (walked, theirs, theirs_before) = \
            engines
        blocks = list(keyed.schema.find_path("library/book").blocks())
        walked_blocks = list(
            walked.schema.find_path("library/book").blocks())
        assert blocks.index(mine.block) == \
            walked_blocks.index(theirs.block)
        assert (mine_before and mine_before.nid) == \
            (theirs_before and theirs_before.nid)
        assert self._layout(keyed, "library/book") == \
            self._layout(walked, "library/book")
        assert keyed.split_count == walked.split_count

    def test_randomized_update_storm(self):
        """Many random inserts/deletes keep every invariant."""
        engine = StorageEngine(block_capacity=4, base=16)
        engine.load_document(
            make_library_document(books=5, papers=5, seed=0))
        rng = random.Random(42)
        for step in range(120):
            elements = [d for d in engine.iter_document_order()
                        if d.node_type == "element"]
            if rng.random() < 0.65 or len(elements) < 5:
                parent = rng.choice(elements)
                index = rng.randint(0, len(engine.children(parent)))
                if rng.random() < 0.5:
                    engine.insert_child(
                        parent, index, name=QName("", f"e{step % 7}"))
                else:
                    engine.insert_child(parent, index, text=f"t{step}")
            else:
                victims = [d for d in elements
                           if d.parent is not None
                           and d.parent.node_type != "document"]
                if victims:
                    engine.delete_subtree(rng.choice(victims))
            engine.check_invariants()
        assert engine.relabel_count == 0


class TestEngineLoading:
    def test_double_load_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.load_document(parse_document("<x/>"))

    def test_load_tree_equivalent_to_load_document(self):
        document = parse_document(EXAMPLE_8_DOCUMENT)
        from_xml = StorageEngine()
        from_xml.load_document(document)
        tree = untyped_document_to_tree(
            parse_document(EXAMPLE_8_DOCUMENT))
        # strip whitespace-only text from the tree for parity
        from_tree = StorageEngine()
        from_tree.load_document(document)
        paths_a = sorted(from_xml.schema.paths())
        paths_b = sorted(from_tree.schema.paths())
        assert paths_a == paths_b

    @pytest.mark.parametrize("document", [
        make_library_document(books=12, papers=6, year_attrs=True),
        parse_document(EXAMPLE_8_DOCUMENT),
        parse_document("<r a='1'>alpha<b> </b>\n  <c x='y'>gamma"
                       "<d/>\t</c>  </r>"),
    ], ids=["library", "example-8", "mixed-whitespace"])
    def test_both_loader_entries_build_the_same_image(self, document):
        """``load_document`` and ``load_tree`` are one walk behind two
        ``expand`` functions: same document, byte-identical image."""
        from_xml = StorageEngine()
        from_xml.load_document(document, preserve_whitespace=True)
        from_tree = StorageEngine()
        from_tree.load_tree(untyped_document_to_tree(document))
        assert dumps_engine(from_xml) == dumps_engine(from_tree)

    def test_load_tree_rejects_a_foreign_child_kind(self):
        tree = untyped_document_to_tree(parse_document("<a><b/></a>"))
        # No algebra operation attaches an attribute as a child; put
        # one there by hand to stand for a kind the loader cannot store.
        stray = tree.algebra.create_attribute(QName("", "k"), "v")
        tree.document_element()._children.append(stray)
        with pytest.raises(StorageError,
                           match="unsupported child kind 'attribute'"):
            StorageEngine().load_tree(tree)

    def test_preserve_whitespace_option(self):
        engine = StorageEngine()
        engine.load_document(parse_document("<a>\n  <b/>\n</a>"),
                             preserve_whitespace=True)
        a = engine.children(engine.document)[0]
        kinds = [d.node_type for d in engine.children(a)]
        assert kinds == ["text", "element", "text"]

    def test_stats(self, engine):
        assert engine.node_count() == 31
        assert engine.block_count() >= engine.schema.node_count()
        assert engine.size_bytes() > 0
        per_schema = engine.blocks_per_schema_node()
        assert per_schema["library"] == 1

    def test_dataguide_compression(self):
        regular = StorageEngine()
        regular.load_document(make_library_document(200, 200, seed=1))
        assert regular.schema.node_count() == 17
        irregular = StorageEngine()
        irregular.load_document(make_irregular_document(200, seed=1))
        assert irregular.schema.node_count() == 201


# ----------------------------------------------------------------------
# The statistics each schema node keeps equal a from-scratch recount of
# its blocks after every write, and survive checkpoint + recover.  CI's
# crash-matrix step runs this with --hypothesis-profile=crash-matrix
# --hypothesis-seed=0.

_VALUES = st.sampled_from(["1", "09", "9", "1.5", "nan", "abc", ""])
_WRITES = st.lists(st.one_of(
    st.tuples(st.just("element"), st.integers(0, 99),
              st.sampled_from(["book", "title", "note"])),
    st.tuples(st.just("text"), st.integers(0, 99), _VALUES),
    st.tuples(st.just("attribute"), st.integers(0, 99),
              st.sampled_from(["year", "lang"]), _VALUES),
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("index"))), max_size=20)

_INDEXED = "library/book/@year"


def _write(engine, write) -> None:
    kind, *args = write
    if kind == "index":
        if engine.indexes.active:
            engine.drop_index(_INDEXED)
        else:
            engine.create_index(_INDEXED)
        return
    stored = list(engine.iter_document_order())
    pick = args[0]
    if kind == "delete":
        # Anything below the document element.
        doomed = [d for d in stored if d.parent is not None
                  and d.parent is not engine.document]
        if doomed:
            engine.delete_subtree(doomed[pick % len(doomed)])
        return
    elements = [d for d in stored if d.node_type == "element"]
    parent = elements[pick % len(elements)]
    if kind == "attribute":
        # New where *parent* has no such attribute, else replacing.
        engine.set_attribute(parent, QName("", args[1]), args[2],
                             replace=True)
        return
    index = pick % (len(engine.children(parent)) + 1)
    if kind == "element":
        engine.insert_child(parent, index, name=QName("", args[1]))
    else:
        engine.insert_child(parent, index, text=args[1])


@settings(max_examples=_budget(25), deadline=None)
@given(books=st.integers(1, 4), papers=st.integers(0, 2),
       writes=_WRITES)
def test_statistics_are_a_recount(books, papers, writes):
    engine = StorageEngine(block_capacity=4)
    engine.load_document(make_library_document(
        books=books, papers=papers, seed=books + papers, year_attrs=True))
    schema = engine.schema
    assert schema.statistics() == schema.recount_statistics()
    for write in writes:
        _write(engine, write)
        assert schema.statistics() == schema.recount_statistics(), write
    live = schema.statistics()
    with tempfile.TemporaryDirectory() as directory:
        for backend in (MemoryBackend(),
                        FileBackend(Path(directory) / "store.img",
                                    wal_path=Path(directory) / "wal.log"),
                        SqliteBackend(Path(directory) / "store.db")):
            try:
                backend.checkpoint(engine)
                recovered = recover(backend, strict=True).engine
                assert recovered.schema.statistics() == live, backend.name
            finally:
                backend.close()
