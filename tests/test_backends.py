"""Tests for the pluggable storage backends.

Fingerprinted snapshot versions (deterministic, timestamp-free),
list/restore round-trips, eviction, incremental checkpoint
correctness on the SQLite backend, and the legacy image matrix
through the file backend.
"""

import json
import struct
import zlib

import pytest

from repro import obs
from repro.errors import CorruptionError, StorageError
from repro.storage import (
    BACKENDS,
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    StorageEngine,
    TransactionManager,
    recover,
    schema_fingerprint,
    snapshot_version,
)
from repro.storage.backends.base import parse_version
from repro.storage.persist import dumps_engine
from repro.workloads import make_library_document
from repro.xmlio import QName, parse_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT


def make_backend(name, tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    if name == "file":
        return FileBackend(tmp_path / "store.img",
                           wal_path=tmp_path / "store.wal")
    if name == "sqlite":
        return SqliteBackend(tmp_path / "store.db")
    return MemoryBackend()


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    return make_backend(request.param, tmp_path)


def _engine(capacity: int = 4) -> StorageEngine:
    engine = StorageEngine(block_capacity=capacity)
    engine.load_document(parse_document(EXAMPLE_8_DOCUMENT))
    return engine


def _snapshot(engine):
    return [(engine.node_kind(d), d.nid.symbols(), d.value)
            for d in engine.iter_document_order()]


class TestFingerprints:
    def test_same_state_same_fingerprint(self):
        assert schema_fingerprint(_engine()) == \
            schema_fingerprint(_engine())

    def test_schema_shape_changes_the_fingerprint(self):
        engine = _engine()
        fingerprint = schema_fingerprint(engine)
        library = engine.children(engine.document)[0]
        engine.insert_child(library, 0, name=QName("", "novel"))
        assert schema_fingerprint(engine) != fingerprint

    def test_index_definitions_change_the_fingerprint(self):
        engine = _engine()
        fingerprint = schema_fingerprint(engine)
        engine.create_index("library/book/title")
        assert schema_fingerprint(engine) != fingerprint

    def test_version_is_deterministic_and_parses(self):
        fingerprint = schema_fingerprint(_engine())
        version = snapshot_version(42, fingerprint)
        assert version == snapshot_version(42, fingerprint)
        lsn, prefix = parse_version(version)
        assert lsn == 42
        assert fingerprint.startswith(prefix)

    def test_all_backends_agree_on_the_version(self, tmp_path):
        versions = set()
        for name in sorted(BACKENDS):
            info = make_backend(name, tmp_path / name).checkpoint(
                _engine())
            versions.add(info.version)
        assert len(versions) == 1


class TestSnapshots:
    def test_checkpoint_records_a_listed_version(self, backend):
        info = backend.checkpoint(_engine())
        listed = backend.list_snapshots()
        assert [s.version for s in listed] == [info.version]
        assert listed[0].lsn == 0

    def test_restore_round_trips_exactly(self, backend):
        engine = _engine()
        info = backend.checkpoint(engine)
        restored = backend.restore(info.version)
        restored.check_invariants()
        assert _snapshot(restored) == _snapshot(engine)
        assert restored.relabel_count == 0

    def test_each_checkpoint_version_restores_its_state(self, backend):
        engine = _engine()
        wal = backend.open_wal()
        TransactionManager(engine, wal)
        states, versions = [], []
        states.append(_snapshot(engine))
        versions.append(backend.checkpoint(engine, wal=wal).version)
        library = engine.children(engine.document)[0]
        for round_ in range(3):
            engine.insert_child(library, 0,
                                name=QName("", f"added{round_}"))
            states.append(_snapshot(engine))
            versions.append(backend.checkpoint(engine, wal=wal).version)
        assert len(set(versions)) == len(versions)
        for version, state in zip(versions, states):
            assert _snapshot(backend.restore(version)) == state

    def test_eviction_keeps_the_newest(self, tmp_path):
        for name in sorted(BACKENDS):
            backend = make_backend(name, tmp_path / name)
            backend.max_snapshots = 2
            engine = _engine()
            wal = backend.open_wal()
            TransactionManager(engine, wal)
            library = engine.children(engine.document)[0]
            versions = [backend.checkpoint(engine, wal=wal).version]
            for round_ in range(3):
                engine.insert_child(library, 0,
                                    name=QName("", f"added{round_}"))
                versions.append(
                    backend.checkpoint(engine, wal=wal).version)
            kept = [s.version for s in backend.list_snapshots()]
            assert kept == versions[-2:], name
            with pytest.raises(StorageError):
                backend.restore(versions[0])

    def test_eviction_keeps_the_newest_when_checkpoints_share_an_lsn(
            self, tmp_path):
        """Without a WAL every checkpoint has LSN 0, so only the write
        order tells the newest apart: the version just returned must
        stay listed and restorable, and ``seq`` must keep growing."""
        for name in sorted(BACKENDS):
            backend = make_backend(name, tmp_path / name)
            backend.max_snapshots = 2
            engine = _engine()
            library = engine.children(engine.document)[0]
            infos = []
            for round_ in range(12):
                engine.insert_child(library, 0,
                                    name=QName("", f"added{round_}"))
                info = backend.checkpoint(engine)
                assert info.lsn == 0
                infos.append(info)
                listed = backend.list_snapshots()
                assert [s.version for s in listed] \
                    == [i.version for i in infos[-2:]], (name, round_)
                assert [s.seq for s in listed] \
                    == [i.seq for i in infos[-2:]], (name, round_)
                assert _snapshot(backend.restore(info.version)) \
                    == _snapshot(engine), (name, round_)
            seqs = [info.seq for info in infos]
            assert seqs == sorted(set(seqs)), (name, seqs)

    def test_listed_fingerprint_is_the_checkpoint_fingerprint(
            self, backend):
        """Every medium lists the full schema fingerprint it returned
        from ``checkpoint``, not the version's 12-digit prefix."""
        info = backend.checkpoint(_engine())
        assert len(info.fingerprint) == 64
        assert [s.fingerprint for s in backend.list_snapshots()] \
            == [info.fingerprint]

    def test_a_copy_named_by_the_version_still_lists(self, tmp_path):
        """A file-backend copy named before it carried the whole
        fingerprint lists under its version, with the prefix it
        has."""
        backend = make_backend("file", tmp_path)
        engine = _engine()
        info = backend.checkpoint(engine)
        (copy,) = backend.snapshot_dir.iterdir()
        copy.rename(copy.with_name(f"{info.seq:08d}_{info.version}.img"))
        (listed,) = backend.list_snapshots()
        assert (listed.version, listed.seq, listed.fingerprint) == \
            (info.version, info.seq, info.fingerprint[:12])
        assert _snapshot(backend.restore(info.version)) == \
            _snapshot(engine)
        backend.max_snapshots = 1
        backend.checkpoint(engine, wal=None)
        assert [s.fingerprint for s in backend.list_snapshots()] \
            == [info.fingerprint]

    def test_restore_unknown_version_raises(self, backend):
        backend.checkpoint(_engine())
        with pytest.raises(StorageError, match="unknown snapshot"):
            backend.restore("0000000099-cafecafecafe")

    def test_checkpoint_empty_engine_refused(self, backend):
        with pytest.raises(StorageError, match="empty engine"):
            backend.checkpoint(StorageEngine())


class TestIncrementalCheckpoints:
    """The SQLite backend rewrites only dirty blocks; the result must
    be indistinguishable from a full snapshot."""

    def _mutate(self, engine, tag):
        library = engine.children(engine.document)[0]
        paper = engine.insert_child(library, 0,
                                    name=QName("", "paper"))
        title = engine.insert_child(paper, 0, name=QName("", "title"))
        engine.insert_child(title, 0, text=f"Incremental {tag}")
        engine.set_attribute(paper, QName("", "tag"), str(tag))

    def test_incremental_equals_full_after_mutations(self, tmp_path):
        engine = _engine()
        incremental = SqliteBackend(tmp_path / "incr.db")
        incremental.checkpoint(engine)
        for tag in range(4):
            self._mutate(engine, tag)
            incremental.checkpoint(engine)
        # A from-scratch backend checkpoints the same engine fully.
        full = SqliteBackend(tmp_path / "full.db")
        info = full.checkpoint(engine)
        current = incremental.list_snapshots()[-1]
        assert current.version == info.version
        restored = incremental.restore(current.version)
        restored.check_invariants()
        assert _snapshot(restored) == \
            _snapshot(full.restore(info.version))
        assert _snapshot(restored) == _snapshot(engine)

    def test_deletes_drop_blocks_incrementally(self, tmp_path):
        engine = _engine()
        backend = SqliteBackend(tmp_path / "store.db")
        backend.checkpoint(engine)
        library = engine.children(engine.document)[0]
        engine.delete_subtree(engine.children(library)[0])
        info = backend.checkpoint(engine)
        restored = backend.restore(info.version)
        restored.check_invariants()
        assert _snapshot(restored) == _snapshot(engine)

    def test_interleaved_consumers_keep_diffs_valid(self, tmp_path):
        """Monolithic checkpoints between two SQLite checkpoints must
        not blind the SQLite backend to the intervening dirt."""
        engine = _engine()
        sqlite_backend = SqliteBackend(tmp_path / "store.db")
        file_backend = FileBackend(tmp_path / "store.img")
        sqlite_backend.checkpoint(engine)
        self._mutate(engine, "a")
        file_backend.checkpoint(engine)  # monolithic, not a consumer
        self._mutate(engine, "b")
        info = sqlite_backend.checkpoint(engine)
        restored = sqlite_backend.restore(info.version)
        assert _snapshot(restored) == _snapshot(engine)

    def test_a_small_batch_writes_a_tenth_of_the_monolithic_image(
            self, tmp_path):
        """The point of block-granular durability, as work counted
        rather than timed: after ten inserts into a 1,000-book library
        the SQLite checkpoint writes a few dirty blocks where the file
        backend rewrites the whole image."""
        engine = StorageEngine()
        engine.load_document(make_library_document(
            books=1000, papers=0, seed=1000))
        incremental = SqliteBackend(tmp_path / "store.db")
        try:
            assert incremental.checkpoint(engine).mode == "full"
            library = engine.children(engine.document)[0]
            for op, book in enumerate(engine.children(library)[:10]):
                author = engine.insert_child(book, 1,
                                             name=QName("", "author"))
                engine.insert_child(author, 0, text=f"Writer {op}")
            written = incremental.checkpoint(engine)
            assert written.mode == "incremental"
            (rows,) = incremental._conn.execute(
                "SELECT COUNT(*) FROM block_rows WHERE gen = ?",
                (written.seq,)).fetchone()
            assert 0 < rows < engine.block_count()
            monolithic = FileBackend(
                tmp_path / "store.img").checkpoint(engine)
            assert 0 < 10 * written.bytes <= monolithic.bytes
        finally:
            incremental.close()

    @pytest.mark.parametrize("name", ["file", "memory"])
    def test_a_small_batch_encodes_a_tenth_of_the_blocks(self, tmp_path,
                                                         name):
        """The same point for the image backends, counted as blocks
        encoded: the image is assembled from block payloads, and a
        block no write touched keeps the payload it was last encoded
        to."""
        engine = StorageEngine()
        engine.load_document(make_library_document(
            books=1000, papers=0, seed=1000))
        backend = make_backend(name, tmp_path)
        encoded = obs.REGISTRY.counter("checkpoint.blocks.encoded")
        reused = obs.REGISTRY.counter("checkpoint.blocks.reused")
        before = encoded.value, reused.value
        backend.checkpoint(engine)
        blocks = engine.block_count()
        assert (encoded.value - before[0], reused.value - before[1]) \
            == (blocks, 0)
        library = engine.children(engine.document)[0]
        for op, book in enumerate(engine.children(library)[:10]):
            author = engine.insert_child(book, 1,
                                         name=QName("", "author"))
            engine.insert_child(author, 0, text=f"Writer {op}")
        before = encoded.value, reused.value
        backend.checkpoint(engine)
        again = encoded.value - before[0]
        assert 0 < 10 * again <= engine.block_count()
        assert reused.value - before[1] == engine.block_count() - again
        assert _snapshot(backend.load_engine()) == _snapshot(engine)

    def test_second_sqlite_store_gets_a_full_snapshot(self, tmp_path):
        """A different SQLite database is a different consumer: its
        first checkpoint cannot reuse another store's diff baseline."""
        engine = _engine()
        first = SqliteBackend(tmp_path / "first.db")
        first.checkpoint(engine)
        self._mutate(engine, "x")
        second = SqliteBackend(tmp_path / "second.db")
        info = second.checkpoint(engine)
        assert _snapshot(second.restore(info.version)) == \
            _snapshot(engine)


class TestRecoverThroughBackends:
    def test_recover_replays_the_backend_wal(self, backend):
        engine = _engine()
        wal = backend.open_wal()
        manager = TransactionManager(engine, wal)
        backend.checkpoint(engine, wal=wal)
        library = engine.children(engine.document)[0]
        with manager.transaction():
            paper = engine.insert_child(library, 0,
                                        name=QName("", "paper"))
            engine.insert_child(paper, 0, name=QName("", "title"))
        result = recover(backend)
        assert result.backend == backend.name
        assert result.replayed == 2  # one per logged operation
        assert result.relabels == 0
        assert _snapshot(result.engine) == _snapshot(engine)

    def test_recover_rejects_backend_plus_wal_path(self, tmp_path,
                                                   backend):
        """One call shape: the backend names its own log, and there is
        no parameter to name another."""
        backend.checkpoint(_engine())
        with pytest.raises(TypeError, match="wal_path"):
            recover(backend, wal_path=tmp_path / "other.wal")

    def test_corruption_error_is_located(self, tmp_path):
        backend = FileBackend(tmp_path / "store.img")
        backend.checkpoint(_engine())
        data = bytearray((tmp_path / "store.img").read_bytes())
        data[-1] ^= 0xFF
        (tmp_path / "store.img").write_bytes(bytes(data))
        with pytest.raises(CorruptionError) as info:
            backend.load_engine()
        assert info.value.backend == "file"
        assert info.value.as_dict()["backend"] == "file"


def _resigned(manifest: bytes) -> bytes:
    """*manifest* with its CRC trailer recomputed over the body."""
    return manifest[:-4] + struct.pack("<I", zlib.crc32(manifest[:-4]))


def _text(value: str) -> bytes:
    data = value.encode()
    return struct.pack("<I", len(data)) + data


def _schema_parent_99(manifest: bytes) -> bytes:
    """The second schema node's parent index (after the header, the
    index definitions and the schema count) set to 99."""
    at = 8 + 12 + 4 + 4
    assert manifest[at:at + 4] == struct.pack("<I", 0xFFFFFFFF)
    at += 5  # the document node: parent index, type tag
    assert manifest[at:at + 4] == struct.pack("<I", 0)
    return _resigned(manifest[:at] + struct.pack("<I", 99)
                     + manifest[at + 4:])


def _missing_row(manifest: bytes, backend) -> bytes:
    """*manifest* with its last row reference pointing at a
    generation no row has."""
    block_id, gen = backend._conn.execute(
        "SELECT block_id, gen FROM block_rows "
        "ORDER BY block_id DESC LIMIT 1").fetchone()
    reference = struct.pack("<II", block_id, gen)
    assert manifest.count(reference) == 1
    return _resigned(manifest.replace(
        reference, struct.pack("<II", block_id, gen + 7)))


def _parent_style(manifest: bytes) -> str:
    """A manifest row as the JSON-writing versions stored it."""
    return json.dumps({"base": 256, "capacity": 4, "lsn": 0,
                       "schema": [[None, "document", None, None]],
                       "indexes": [], "chains": [[1]],
                       "gens": {"1": 1}}, separators=(",", ":"))


class TestDamagedSqliteManifest:
    """A snapshot manifest that is not what a checkpoint wrote is a
    located corruption error; a manifest in a retired format is
    refused by name."""

    @pytest.mark.parametrize("damage,where,match", [
        (_parent_style, "manifest",
         "JSON, a format no longer read"),
        (lambda manifest: b"SEDNAPY6" + manifest[8:], "manifest",
         "bad magic"),
        (lambda manifest: manifest[:-1] + bytes([manifest[-1] ^ 1]),
         "manifest trailer", "CRC mismatch"),
        (_schema_parent_99, "manifest byte 33",
         "schema parent index 99 out of range"),
    ], ids=["parent-json", "image-magic", "crc-mismatch",
            "schema-parent-99"])
    def test_restore_refuses_with_a_location(self, tmp_path, damage,
                                             where, match):
        backend = SqliteBackend(tmp_path / "store.db")
        try:
            info = backend.checkpoint(_engine())
            (manifest,) = backend._conn.execute(
                "SELECT manifest FROM snapshots").fetchone()
            backend._conn.execute("UPDATE snapshots SET manifest = ?",
                                  (damage(manifest),))
            for attempt in (backend.load_engine,
                            lambda: backend.restore(info.version),
                            lambda: recover(backend)):
                with pytest.raises(CorruptionError,
                                   match=match) as refusal:
                    attempt()
                assert refusal.value.as_dict() == {
                    "backend": "sqlite",
                    "location": f"snapshot {info.version} {where}"}
        finally:
            backend.close()

    def test_a_reference_to_a_missing_row(self, tmp_path):
        """Located at the reference, in the manifest."""
        backend = SqliteBackend(tmp_path / "store.db")
        try:
            info = backend.checkpoint(_engine())
            (manifest,) = backend._conn.execute(
                "SELECT manifest FROM snapshots").fetchone()
            damaged = _missing_row(manifest, backend)
            backend._conn.execute("UPDATE snapshots SET manifest = ?",
                                  (damaged,))
            at = next(i for i in range(len(manifest))
                      if manifest[i] != damaged[i]) - 4
            with pytest.raises(CorruptionError,
                               match="missing block row") as refusal:
                backend.restore(info.version)
            assert refusal.value.location == \
                f"snapshot {info.version} manifest byte {at}"
        finally:
            backend.close()

    def test_generation_gc_reads_every_retained_manifest(self,
                                                         tmp_path):
        """Eviction's garbage collection decodes each retained
        manifest's row references, and a damaged one stops it before
        any row is collected."""
        backend = SqliteBackend(tmp_path / "store.db", max_snapshots=1)
        engine = _engine()
        try:
            info = backend.checkpoint(engine)
            (manifest,) = backend._conn.execute(
                "SELECT manifest FROM snapshots").fetchone()
            backend._conn.execute("UPDATE snapshots SET manifest = ?",
                                  (manifest[:-1],))
            rows = "SELECT COUNT(*) FROM block_rows"
            (stored,) = backend._conn.execute(rows).fetchone()
            with pytest.raises(CorruptionError) as refusal:
                backend._gc_generations()
            assert refusal.value.as_dict() == {
                "backend": "sqlite",
                "location": f"snapshot {info.version} manifest trailer"}
            assert backend._conn.execute(rows).fetchone() == (stored,)
        finally:
            backend.close()


class TestLegacyImageMatrix:
    """One image format loads through the file backend; the retired
    ones are refused by name."""

    @pytest.fixture
    def index_free_engine(self):
        engine = StorageEngine(block_capacity=4)
        engine.load_document(make_library_document(books=3, papers=2,
                                                   seed=7))
        return engine

    @pytest.mark.parametrize("magic", [b"SEDNAPY6"], ids=["SEDNAPY6"])
    def test_legacy_images_load_and_recover(self, tmp_path, magic,
                                            index_free_engine):
        image = dumps_engine(index_free_engine)
        assert image[:8] == magic
        (tmp_path / "store.img").write_bytes(image)
        backend = FileBackend(tmp_path / "store.img")
        restored = backend.load_engine()
        restored.check_invariants()
        assert _snapshot(restored) == _snapshot(index_free_engine)
        result = recover(backend)
        assert result.backend == "file"
        assert result.relabels == 0

    @pytest.mark.parametrize("magic", [b"SEDNAPY1", b"SEDNAPY2",
                                       b"SEDNAPY3", b"SEDNAPY4",
                                       b"SEDNAPY5"],
                             ids=["SEDNAPY1", "SEDNAPY2", "SEDNAPY3",
                                  "SEDNAPY4", "SEDNAPY5"])
    def test_legacy_images_are_refused(self, tmp_path, magic,
                                       index_free_engine):
        """What used to load and re-serialize as the current format
        is now a located refusal from load and from recovery."""
        image = magic + dumps_engine(index_free_engine)[8:]
        (tmp_path / "store.img").write_bytes(image)
        backend = FileBackend(tmp_path / "store.img")
        for attempt in (backend.load_engine, lambda: recover(backend)):
            with pytest.raises(CorruptionError,
                               match=magic.decode()) as info:
                attempt()
            assert info.value.as_dict() == {"backend": "file",
                                            "location": "byte 0"}
