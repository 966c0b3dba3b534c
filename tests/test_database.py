"""Tests for the database layer: documents evolving through states."""

import pytest

from repro.database import DatabaseError, StoredDocument, XmlDatabase
from repro.errors import UpdateError
from repro.schema import parse_schema
from repro.workloads.fixtures import (
    EXAMPLE_7_DOCUMENT,
    EXAMPLE_7_SCHEMA,
    EXAMPLE_8_DOCUMENT,
    LIBRARY_SCHEMA,
)


@pytest.fixture
def database():
    return XmlDatabase()


@pytest.fixture
def library(database):
    return database.store("library", EXAMPLE_8_DOCUMENT,
                          schema=parse_schema(LIBRARY_SCHEMA))


class TestLifecycle:
    def test_store_and_get(self, database):
        stored = database.store("doc", "<a><b>x</b></a>")
        assert database.get("doc") is stored
        assert "doc" in database
        assert len(database) == 1

    def test_duplicate_name_rejected(self, database):
        database.store("doc", "<a/>")
        with pytest.raises(DatabaseError):
            database.store("doc", "<b/>")

    def test_drop(self, database):
        database.store("doc", "<a/>")
        database.drop("doc")
        assert "doc" not in database
        with pytest.raises(DatabaseError):
            database.get("doc")

    def test_drop_unknown_rejected(self, database):
        with pytest.raises(DatabaseError):
            database.drop("ghost")

    def test_names_sorted(self, database):
        for name in ("zebra", "alpha", "mid"):
            database.store(name, "<a/>")
        assert database.names() == ["alpha", "mid", "zebra"]

    def test_typed_store_validates(self, database):
        schema = parse_schema(EXAMPLE_7_SCHEMA)
        stored = database.store("books", EXAMPLE_7_DOCUMENT,
                                schema=schema)
        assert stored.check_conformance() == []

    def test_typed_store_rejects_invalid(self, database):
        from repro.errors import ValidationError
        schema = parse_schema(EXAMPLE_7_SCHEMA)
        with pytest.raises(ValidationError):
            database.store("bad", "<BookStore xmlns='http://www.books.org'>"
                                  "<Junk/></BookStore>", schema=schema)


class TestQueries:
    def test_query_tree(self, library):
        titles = library.query_values("/library/book/title")
        assert titles == ["Foundations of Databases",
                          "An Introduction to Database Systems"]

    def test_query_storage_agrees(self, library):
        from_tree = library.query_values("//author")
        from_storage = [library.engine.string_value(d)
                        for d in library.query_storage("//author")]
        assert from_tree == from_storage

    def test_query_all(self, database):
        database.store("one", "<r><v>1</v></r>")
        database.store("two", "<r><v>2</v><v>3</v></r>")
        assert database.query_all("/r/v") == {
            "one": ["1"], "two": ["2", "3"]}

    def test_serialize(self, library):
        text = library.serialize()
        assert "<library>" in text
        assert "Codd" in text


class TestUpdates:
    def test_insert_element_both_sides(self, library):
        library.insert_element("/library", 2, "book")
        library.insert_element("/library/book[3]", 0, "title")
        library.insert_text("/library/book[3]/title", 0, "New Book")
        library.verify_consistency()
        titles = library.query_values("/library/book/title")
        assert titles[2] == "New Book"
        stored = [library.engine.string_value(d) for d in
                  library.query_storage("/library/book/title")]
        assert stored == titles
        assert library.version == 3

    def test_updates_never_relabel(self, library):
        for index in range(5):
            library.insert_element("/library", index, "book")
        assert library.engine.relabel_count == 0
        library.verify_consistency()

    def test_delete_both_sides(self, library):
        before = library.engine.node_count()
        removed = library.delete("/library/book[1]")
        library.verify_consistency()
        assert library.engine.node_count() == before - removed
        titles = library.query_values("/library/book/title")
        assert titles == ["An Introduction to Database Systems"]

    def test_delete_root_rejected(self, library):
        with pytest.raises(DatabaseError):
            library.delete("/library")

    def test_set_attribute_both_sides(self, library):
        library.set_attribute("/library/book[1]", "lang", "en")
        library.verify_consistency()
        (value,) = library.query_values("/library/book[1]/@lang")
        assert value == "en"

    def test_ambiguous_target_rejected(self, library):
        with pytest.raises(DatabaseError):
            library.insert_element("/library/book", 0, "x")

    def test_missing_target_rejected(self, library):
        with pytest.raises(DatabaseError):
            library.insert_element("/library/shelf", 0, "x")

    def test_conformance_after_valid_update(self, library):
        # Adding a complete new book keeps the document conforming.
        library.insert_element("/library", 0, "book")
        library.insert_element("/library/book[1]", 0, "title")
        library.insert_text("/library/book[1]/title", 0, "T")
        assert library.check_conformance() == []

    def test_conformance_detects_broken_update(self, library):
        # An empty book (no title) violates the content model.
        library.insert_element("/library", 0, "book")
        violations = library.check_conformance()
        assert any(v.item == "5.4.2.3" for v in violations)

    def test_version_counts_states(self, library):
        assert library.version == 0
        library.insert_element("/library", 0, "book")
        library.insert_element("/library/book[1]", 0, "title")
        library.delete("/library/book[1]")
        assert library.version == 3


_REJECTED = [
    lambda doc, path: doc.insert_element(path, 999, "x"),
    lambda doc, path: doc.insert_element(path, -1, "x"),
    lambda doc, path: doc.insert_text(path, 999, "t"),
]


class TestRejectedUpdate:
    """A rejected update changes neither representation: storage
    validates first, and the tree moves only after it accepted."""

    @pytest.mark.parametrize("call", _REJECTED,
                             ids=["element-past-end", "element-negative",
                                  "text-past-end"])
    @pytest.mark.parametrize("typed", [True, False],
                             ids=["typed", "untyped"])
    def test_out_of_range_index_leaves_both_sides_alone(
            self, database, call, typed):
        if typed:
            doc = database.store("d", EXAMPLE_8_DOCUMENT,
                                 schema=parse_schema(LIBRARY_SCHEMA))
            path = "/library"
        else:
            doc = database.store("d", "<r><a>1</a><b>2</b></r>")
            path = "/r"
        before = doc.serialize()
        with pytest.raises(UpdateError, match="out of range"):
            call(doc, path)
        doc.verify_consistency()
        assert doc.version == 0
        assert doc.serialize() == before


class TestConsistency:
    def test_fresh_document_is_consistent(self, library):
        library.verify_consistency()

    def test_mixed_content_document(self, database):
        stored = database.store(
            "mixed", "<r>alpha<b>beta</b>gamma<b>delta</b></r>")
        stored.verify_consistency()
        stored.insert_text("/r", 4, "omega")
        stored.verify_consistency()
        assert stored.query("/r")[0].string_value() == \
            "alphabetagammadeltaomega"

    def test_update_storm_stays_consistent(self, database):
        import random
        stored = database.store("doc", "<root><a>1</a><b>2</b></root>")
        rng = random.Random(5)
        for step in range(40):
            choice = rng.random()
            if choice < 0.5:
                stored.insert_element("/root", rng.randint(
                    0, len(stored.query("/root")[0].children())),
                    f"e{step}")
            elif choice < 0.8:
                target = stored.query("/root")
                stored.insert_text(
                    "/root", 0, f"t{step}")
            else:
                elements = stored.query("/root/*")
                if len(elements) > 1:
                    name = elements[-1].node_name().head().local
                    stored.delete(f"/root/{name}[last()]")
            stored.verify_consistency()
