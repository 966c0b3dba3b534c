"""Tests for the write-ahead log and the transaction manager.

The log format, torn-tail rule and transaction semantics are
medium-independent: the suite parametrizes over every shipped
:class:`WalStore` (file, sqlite rows, in-memory)."""

import pytest

from repro.errors import ReproError, StorageError, UpdateError
from repro.storage import (
    CrashError,
    FaultPlan,
    FileWalStore,
    MemoryWalStore,
    SqliteBackend,
    StorageEngine,
    Transaction,
    TransactionManager,
    WalRecord,
    WriteAheadLog,
    equal,
    faults,
    read_wal_store,
)
from repro.storage import wal as walmod
from repro.storage.codec import iter_frames
from repro.xmlio import QName, parse_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT


@pytest.fixture(params=["file", "sqlite", "memory"])
def wal_store(request, tmp_path):
    if request.param == "file":
        return FileWalStore(tmp_path / "test.wal")
    if request.param == "sqlite":
        return SqliteBackend(tmp_path / "wal.db").wal_store()
    return MemoryWalStore()


def _engine(capacity: int = 4) -> StorageEngine:
    engine = StorageEngine(block_capacity=capacity)
    engine.load_document(parse_document(EXAMPLE_8_DOCUMENT))
    return engine


def _attached(wal_store, capacity: int = 4, strict: bool = False):
    engine = _engine(capacity)
    wal = WriteAheadLog(wal_store)
    manager = TransactionManager(engine, wal, strict=strict)
    return engine, wal, manager


def _library(engine):
    return engine.children(engine.document)[0]


def _snapshot(engine):
    return [(engine.node_kind(d), d.nid.symbols(), d.value)
            for d in engine.iter_document_order()]


class TestWalFormat:
    def test_roundtrip_and_monotonic_lsns(self, wal_store):
        wal = WriteAheadLog(wal_store)
        nid = _engine().document.nid
        wal.append_begin(1)
        wal.append_insert_element(1, nid, 0, QName("", "book"), nid)
        wal.append_insert_text(1, nid, 0, "hello", nid)
        wal.append_set_attribute(1, nid, QName("", "year"), "2004",
                                 nid, replace=False)
        wal.append_delete(1, nid)
        wal.append_commit(1)
        wal.close()

        scan = read_wal_store(wal_store)
        assert [r.kind for r in scan.records] == [
            walmod.BEGIN, walmod.INSERT_ELEMENT, walmod.INSERT_TEXT,
            walmod.SET_ATTRIBUTE, walmod.DELETE, walmod.COMMIT]
        assert [r.lsn for r in scan.records] == [1, 2, 3, 4, 5, 6]
        assert not scan.torn
        assert scan.committed_txns() == {1}
        insert = scan.records[1]
        assert insert.name == QName("", "book")
        assert equal(insert.nid, nid)
        text = scan.records[2]
        assert text.text == "hello"
        attribute = scan.records[3]
        assert attribute.text == "2004"
        assert attribute.replace is False

        # The other rows of the body table: index DDL and the
        # CHECKPOINT marker a reset starts the log with.
        wal = WriteAheadLog(wal_store)
        wal.append_begin(2)
        wal.append_create_index(2, "library/book/@year", "value",
                                "integer")
        wal.append_drop_index(2, "//author", "path")
        wal.append_set_attribute(2, nid, QName("urn:x", "year"), "",
                                 nid, replace=True)
        wal.append_commit(2)
        create, drop, replaced = read_wal_store(wal_store).records[7:10]
        assert [r.kind for r in (create, drop, replaced)] == [
            walmod.CREATE_INDEX, walmod.DROP_INDEX, walmod.SET_ATTRIBUTE]
        assert (create.index_path, create.index_kind, create.value_type) \
            == ("library/book/@year", "value", "integer")
        assert (drop.index_path, drop.index_kind, drop.value_type) \
            == ("//author", "path", None)
        assert (replaced.name, replaced.text, replaced.replace) \
            == (QName("urn:x", "year"), "", True)
        assert equal(replaced.parent_nid, nid) and equal(replaced.nid, nid)
        wal.reset(11)
        wal.close()
        (marker,) = read_wal_store(wal_store).records
        assert (marker.lsn, marker.kind, marker.txn,
                marker.checkpoint_lsn) == (12, walmod.CHECKPOINT, 0, 11)

    def test_reopen_continues_lsns(self, wal_store):
        wal = WriteAheadLog(wal_store)
        wal.append_begin(1)
        wal.append_commit(1)
        wal.close()
        wal = WriteAheadLog(wal_store)
        assert wal.last_lsn == 2
        wal.append_begin(2)
        wal.close()
        assert [r.lsn for r in read_wal_store(wal_store).records] \
            == [1, 2, 3]

    def test_published_records_are_the_decoded_frames(self, wal_store):
        """One record of every kind: what the writer publishes on
        ``wal.scan`` is what ``_decode_payload`` makes of the frame it
        wrote — the same type, field by field — and the body table's
        two resolved directions still cover every kind."""
        assert set(walmod._READERS) == set(walmod._PACKERS) \
            == set(walmod._BODIES)
        wal = WriteAheadLog(wal_store)
        nid = _engine().document.nid
        wal.append_begin(1)
        wal.append_insert_element(1, nid, 3, QName("urn:x", "book"), nid)
        wal.append_insert_text(1, nid, 0, "hello", nid)
        wal.append_set_attribute(1, nid, QName("", "year"), "2004", nid,
                                 replace=True)
        wal.append_delete(1, nid)
        wal.append_create_index(1, "library/book/@year", "value",
                                "integer")
        wal.append_drop_index(1, "library/book/@year", "value")
        wal.append_abort(1)
        wal.append_commit(2)
        published = list(wal.scan.records)
        data = wal_store.load()
        wal.reset(9)
        published += wal.scan.records
        data += wal_store.load()[len(walmod._HEADER):]
        wal.close()
        decoded = [walmod._decode_payload(payload)
                   for payload, _ in iter_frames(data,
                                                 start=len(walmod._HEADER))]
        assert {r.kind for r in published} == set(walmod._BODIES)
        assert len(published) == len(decoded) == len(walmod._BODIES)
        for mine, theirs in zip(published, decoded):
            assert type(mine) is type(theirs) is WalRecord
            assert mine._asdict() == theirs._asdict()

    @pytest.mark.parametrize("point", ["wal.append.torn", "wal.fsync"])
    def test_a_crash_inside_an_append_publishes_nothing(self, wal_store,
                                                        point):
        """A torn append, or a crash before the durability barrier,
        leaves the published scan as it was; a log reopened on that
        store adopts the scan taken at open, torn tail truncated."""
        wal = WriteAheadLog(wal_store)
        wal.append_begin(1)
        before = list(wal.scan.records), wal.scan.valid_bytes
        with faults.injected(FaultPlan().crash_at(point)):
            with pytest.raises(CrashError):
                wal.append_commit(1)
        assert (wal.scan.records, wal.scan.valid_bytes) == before
        reopened = WriteAheadLog(wal_store)
        durable = read_wal_store(wal_store)
        assert not durable.torn and not reopened.scan.torn
        assert reopened.scan.records == durable.records
        assert reopened.scan.valid_bytes == durable.valid_bytes
        assert len(durable.records) == (1 if point == "wal.append.torn"
                                        else 2)

    def test_crc_corruption_drops_the_tail(self, wal_store):
        wal = WriteAheadLog(wal_store)
        wal.append_begin(1)
        offset_after_first = len(wal_store.load())
        wal.append_commit(1)
        wal.close()
        data = bytearray(wal_store.load())
        # Flip a payload byte of the second record: its CRC fails and
        # the scan must stop after the first.
        data[-1] ^= 0xFF
        wal_store.reset(bytes(data))
        scan = read_wal_store(wal_store)
        assert [r.kind for r in scan.records] == [walmod.BEGIN]
        assert scan.torn
        assert scan.valid_bytes == offset_after_first

    def test_torn_tail_is_detected_and_truncated_on_reopen(self,
                                                           wal_store):
        wal = WriteAheadLog(wal_store)
        wal.append_begin(1)
        wal.close()
        wal_store.append(b"\x30\x00\x00\x00\xAA")  # half frame
        scan = read_wal_store(wal_store)
        assert scan.torn and scan.torn_bytes == 5
        assert [r.kind for r in scan.records] == [walmod.BEGIN]
        # Reopening for append truncates the torn tail away.
        wal = WriteAheadLog(wal_store)
        wal.append_commit(1)
        wal.close()
        scan = read_wal_store(wal_store)
        assert not scan.torn
        assert [r.kind for r in scan.records] == [walmod.BEGIN,
                                                  walmod.COMMIT]

    def test_not_a_wal(self, wal_store):
        wal_store.reset(b"NOTAWAL0\x01")
        with pytest.raises(StorageError):
            read_wal_store(wal_store)

    def test_not_a_wal_file(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.write_bytes(b"NOTAWAL0\x01")
        with pytest.raises(StorageError):
            read_wal_store(FileWalStore(path))

    def test_fresh_store_is_an_empty_scan(self, wal_store):
        scan = read_wal_store(wal_store)
        assert scan.records == [] and not scan.torn

    def test_missing_file_is_an_empty_scan(self, tmp_path):
        scan = read_wal_store(FileWalStore(tmp_path / "absent.wal"))
        assert scan.records == [] and not scan.torn


class TestTransactions:
    def test_commit_logs_before_and_commits(self, wal_store):
        engine, wal, manager = _attached(wal_store)
        library = _library(engine)
        with manager.transaction():
            paper = engine.insert_child(library, 0,
                                        name=QName("", "paper"))
            engine.insert_child(paper, 0, name=QName("", "title"))
        wal.close()
        scan = read_wal_store(wal_store)
        kinds = [r.kind for r in scan.records]
        assert kinds == [walmod.BEGIN, walmod.INSERT_ELEMENT,
                         walmod.INSERT_ELEMENT, walmod.COMMIT]
        assert scan.committed_txns() == {1}

    def test_rollback_insert(self, wal_store):
        engine, wal, manager = _attached(wal_store)
        library = _library(engine)
        before_image = _snapshot(engine)
        with pytest.raises(RuntimeError, match="boom"):
            with manager.transaction():
                engine.insert_child(library, 0, name=QName("", "paper"))
                raise RuntimeError("boom")
        assert _snapshot(engine) == before_image
        engine.check_invariants()
        scan = read_wal_store(wal_store)
        assert scan.records[-1].kind == walmod.ABORT
        assert scan.committed_txns() == set()

    def test_rollback_set_attribute_new_and_replace(self, wal_store):
        engine, wal, manager = _attached(wal_store)
        book = engine.children(_library(engine))[0]
        engine.set_attribute(book, QName("", "lang"), "en")
        before_image = _snapshot(engine)
        with pytest.raises(RuntimeError):
            with manager.transaction():
                engine.set_attribute(book, QName("", "lang"), "fr",
                                     replace=True)
                engine.set_attribute(book, QName("", "year"), "2004")
                raise RuntimeError("boom")
        assert _snapshot(engine) == before_image
        (lang,) = engine.attributes(book)
        assert lang.value == "en"
        engine.check_invariants()

    def test_rollback_delete_restores_subtree_label_exactly(self,
                                                            wal_store):
        engine, wal, manager = _attached(wal_store)
        library = _library(engine)
        before_image = _snapshot(engine)
        with pytest.raises(RuntimeError):
            with manager.transaction():
                engine.delete_subtree(engine.children(library)[0])
                raise RuntimeError("boom")
        assert _snapshot(engine) == before_image
        engine.check_invariants()

    def test_rollback_of_a_delete_over_earlier_operations(self, wal_store):
        """The deleted subtree holds a node this transaction inserted
        and a value it replaced: the rollback puts the same descriptors
        back, so the older inverses still find them stored (it used to
        rebuild the subtree from new ones and fail on the insert's)."""
        engine, wal, manager = _attached(wal_store)
        book = engine.children(_library(engine))[0]
        engine.set_attribute(book, QName("", "lang"), "en")
        before_image = _snapshot(engine)
        with pytest.raises(RuntimeError, match="boom"):
            with manager.transaction():
                engine.insert_child(book, 0, name=QName("", "note"))
                engine.set_attribute(book, QName("", "lang"), "fr",
                                     replace=True)
                engine.delete_subtree(book)
                raise RuntimeError("boom")
        assert _snapshot(engine) == before_image
        assert book.block is not None
        engine.check_invariants()
        engine.schema.verify_statistics()

    def test_rollback_restores_the_statistics_digest(self, wal_store):
        """Each inverse reports to the schema node it touches, so a
        rolled-back insert, replace and delete leave every node's
        statistics as they were, not merely consistent with a recount."""
        engine, wal, manager = _attached(wal_store)
        library = _library(engine)
        book = engine.children(library)[0]
        engine.set_attribute(book, QName("", "lang"), "en")
        digest = engine.schema.statistics()
        with pytest.raises(RuntimeError, match="boom"):
            with manager.transaction():
                note = engine.insert_child(book, 0, name=QName("", "note"))
                engine.insert_child(note, 0, text="1994")
                engine.set_attribute(book, QName("", "lang"), "zz",
                                     replace=True)
                engine.delete_subtree(engine.children(library)[-1])
                assert engine.schema.statistics() != digest
                raise RuntimeError("boom")
        assert engine.schema.statistics() == digest
        assert engine.schema.recount_statistics() == digest

    def test_explicit_begin_commit_and_no_nesting(self, wal_store):
        engine, wal, manager = _attached(wal_store)
        txn = manager.begin()
        assert isinstance(txn, Transaction)
        with pytest.raises(UpdateError):
            manager.begin()
        manager.commit()
        with pytest.raises(UpdateError):
            manager.commit()
        with pytest.raises(UpdateError):
            manager.rollback()

    def test_autocommit_wraps_unmanaged_mutations(self, wal_store):
        engine, wal, manager = _attached(wal_store)
        library = _library(engine)
        engine.insert_child(library, 0, name=QName("", "paper"))
        wal.close()
        scan = read_wal_store(wal_store)
        assert [r.kind for r in scan.records] == [
            walmod.BEGIN, walmod.INSERT_ELEMENT, walmod.COMMIT]

    def test_strict_commit_rejects_corrupt_state(self, wal_store,
                                                 monkeypatch):
        engine, wal, manager = _attached(wal_store, strict=True)
        library = _library(engine)

        def broken():
            raise StorageError("simulated invariant breach")

        with manager.transaction() as txn:
            engine.insert_child(library, 0, name=QName("", "paper"))
            monkeypatch.setattr(engine, "check_invariants", broken)
            with pytest.raises(StorageError,
                               match="simulated invariant breach"):
                manager.commit()
        monkeypatch.undo()
        assert manager.active is None
        assert txn.state == "aborted"
        engine.check_invariants()
        scan = read_wal_store(wal_store)
        assert scan.committed_txns() == set()

    def test_one_manager_per_engine(self, wal_store):
        engine, wal, manager = _attached(wal_store)
        with pytest.raises(StorageError):
            TransactionManager(engine, wal)
        manager.detach()
        TransactionManager(engine, wal)


class TestUpdateValidation:
    """Bad mutations are refused up front — nothing half-applied."""

    def test_update_error_is_a_repro_error(self):
        assert issubclass(UpdateError, StorageError)
        assert issubclass(UpdateError, ReproError)

    @pytest.mark.parametrize("mutate", [
        lambda e, lib: e.delete_subtree(e.document),
        lambda e, lib: e.insert_child(lib, 99, name=QName("", "x")),
        lambda e, lib: e.insert_child(lib, -1, name=QName("", "x")),
        lambda e, lib: e.insert_child(lib, 0),
        lambda e, lib: e.insert_child(
            lib, 0, name=QName("", "x"), text="both"),
    ], ids=["delete-root", "index-high", "index-negative",
            "neither-name-nor-text", "both-name-and-text"])
    def test_refused_before_any_change(self, mutate):
        engine = _engine()
        library = _library(engine)
        before_image = _snapshot(engine)
        with pytest.raises(UpdateError):
            mutate(engine, library)
        assert _snapshot(engine) == before_image
        engine.check_invariants()

    def test_insert_under_text_node_refused(self):
        engine = _engine()
        title = engine.children(
            engine.children(_library(engine))[0])[0]
        (text,) = engine.children(title)
        assert engine.node_kind(text) == "text"
        with pytest.raises(UpdateError):
            engine.insert_child(text, 0, name=QName("", "x"))

    def test_set_attribute_on_non_element_refused(self):
        engine = _engine()
        with pytest.raises(UpdateError):
            engine.set_attribute(engine.document, QName("", "a"), "v")

    def test_duplicate_attribute_without_replace_refused(self):
        engine = _engine()
        book = engine.children(_library(engine))[0]
        engine.set_attribute(book, QName("", "lang"), "en")
        with pytest.raises(UpdateError):
            engine.set_attribute(book, QName("", "lang"), "fr")
        (lang,) = engine.attributes(book)
        assert lang.value == "en"

    def test_deleted_node_cannot_be_mutated(self):
        engine = _engine()
        book = engine.children(_library(engine))[0]
        engine.delete_subtree(book)
        with pytest.raises(UpdateError):
            engine.delete_subtree(book)
        with pytest.raises(UpdateError):
            engine.insert_child(book, 0, name=QName("", "x"))
