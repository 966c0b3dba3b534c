"""The storage codec moves records; the bytes and the refusals stay.

Six things are pinned here:

* **golden byte identity** — the image, every SQLite block payload and
  the WAL stream of a fixed set of engines hash to recorded SHA-256
  values, last recorded when a label became its own bytes
  (``SEDNAPY6``, WAL version 2; ``python tests/test_storage_codec.py``
  prints the table from whatever ``repro`` is on the path);
* **labels** — ``pack_nid`` / ``Reader.nid`` / ``Reader.link``
  against a per-field reference decoder kept in this file, and the
  labels ``Reader.nid`` refuses by §9.3 (a component ending in digit
  0, an empty one, a digit at or above the base, an odd length, no
  final separator), with the retired ``SEDNAPY5`` image and version-1
  WAL refused by name;
* **decoder fuzz** — every truncation and every single-bit flip of a
  small image, a block payload, a WAL payload and a SQLite snapshot
  manifest (restored through a real row) is a located
  :class:`CorruptionError`, never another exception; an image is
  fuzzed twice, once as damaged (the CRC refuses it) and once
  re-signed (the decoder and the invariant checks must);
* **looping links** — a signed image, or SQLite block rows, whose
  sibling chain loops is refused in bounded time, and a label two
  payloads carry where the second one starts;
* **memoised ≡ fresh** — a dump through the payload memo is the dump
  with the memo cleared, after every mutation step and across
  alternating file / SQLite checkpoints of one engine;
* **block fill order** — a hole left by ``remove`` is reused.
"""

import functools
import hashlib
import re
import sqlite3
import struct
import threading
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError, StorageError
from repro.storage import (
    FileBackend,
    MemoryWalStore,
    NidLabel,
    SqliteBackend,
    StorageEngine,
    TransactionManager,
    WriteAheadLog,
    dumps_engine,
    load_engine,
)
from repro.storage.blocks import Block
from repro.storage.codec import (
    FRAME_HEADER_LEN,
    Reader,
    encode_frame,
    iter_frames,
    pack_nid,
)
from repro.storage.descriptor import NodeDescriptor
from repro.storage.dschema import DescriptiveSchema
from repro.storage.persist import (
    decode_block,
    encode_block,
    manifest_chains,
)
from repro.storage.wal import _HEADER as WAL_HEADER
from repro.storage.wal import _decode_payload, scan_wal
from repro.workloads import make_bookstore_document, make_library_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT
from repro.xmlio import QName, parse_document


# ----------------------------------------------------------------------
# (a) Golden byte identity.

FIXTURES = {
    # name: (document factory, block capacity, value-index path)
    "shelf": (lambda: parse_document(EXAMPLE_8_DOCUMENT), 4,
              "library/book/title"),
    "library6": (lambda: make_library_document(3, 3, seed=11), 4,
                 "library/book/title"),
    "library60": (lambda: make_library_document(30, 30, seed=12), 8,
                  "library/paper/title"),
    "bookstore": (lambda: make_bookstore_document(books=8, seed=5), 4,
                  None),
}


def _block_payloads(db_path) -> bytes:
    """Every block payload of the current snapshot, length-prefixed,
    in manifest chain order (block ids are process-global counters, so
    the rows are addressed by position, not by id)."""
    conn = sqlite3.connect(db_path)
    try:
        version = conn.execute(
            "SELECT value FROM meta WHERE key = 'current_version'"
        ).fetchone()[0]
        (manifest,) = conn.execute(
            "SELECT manifest FROM snapshots WHERE version = ?",
            (version,)).fetchone()
        out = bytearray()
        for chain in manifest_chains(manifest, "sqlite", version):
            out += struct.pack("<I", len(chain))
            for block_id, gen in chain:
                (payload,) = conn.execute(
                    "SELECT payload FROM block_rows "
                    "WHERE block_id = ? AND gen = ?",
                    (block_id, gen)).fetchone()
                out += struct.pack("<I", len(payload)) + payload
        return bytes(out)
    finally:
        conn.close()


def _mutation_steps(engine: StorageEngine):
    """Splitting inserts, an attribute, a replaced attribute and a
    delete, the same on every fixture; yields after each
    transaction."""
    root = engine.children(engine.document)[0]
    entries = engine.children(root)
    name = engine.node_name(entries[0])
    manager = engine.txn_manager
    with manager.transaction():
        for position in (0, len(entries) // 2, len(entries) + 2):
            entry = engine.insert_child(root, position, name=name)
            note = engine.insert_child(
                entry, 0, name=QName(name.uri, "note"))
            engine.insert_child(note, 0, text=f"inserted at {position}")
    yield
    with manager.transaction():
        engine.set_attribute(entries[0], QName("", "shelf"), "A3")
        engine.set_attribute(entries[0], QName("", "shelf"), "B1",
                             replace=True)
    yield
    with manager.transaction():
        engine.delete_subtree(entries[-1])
    yield
    # Gap labels: keep inserting in front of the same sibling until
    # a component needs a second digit.
    with manager.transaction():
        for _ in range(10):
            engine.insert_child(root, 1, name=name)
    yield


def _mutate(engine: StorageEngine) -> None:
    for _ in _mutation_steps(engine):
        pass


def golden_digests(tmp_path) -> dict[str, str]:
    digests = {}

    def record(key: str, data: bytes) -> None:
        digests[key] = hashlib.sha256(data).hexdigest()

    for fixture, (factory, capacity, index_path) in FIXTURES.items():
        for indexed in (False, True):
            if indexed and index_path is None:
                continue
            stem = f"{fixture}{'+idx' if indexed else ''}"
            engine = StorageEngine(block_capacity=capacity)
            engine.load_document(factory())
            if indexed:
                engine.create_index(index_path)
            backend = SqliteBackend(tmp_path / f"{stem}.db")
            try:
                backend.checkpoint(engine)
                record(f"{stem}/load/image", dumps_engine(engine))
                record(f"{stem}/load/blocks",
                       _block_payloads(backend.db_path))

                store = MemoryWalStore()
                wal = WriteAheadLog(store, sync=False)
                TransactionManager(engine, wal)
                _mutate(engine)
                assert engine.split_count > 0
                engine.check_invariants()
                record(f"{stem}/mutated/wal", store.load())
                record(f"{stem}/mutated/image",
                       dumps_engine(engine,
                                    checkpoint_lsn=wal.last_lsn))
                # Incremental: only the dirty blocks are re-encoded.
                backend.checkpoint(engine)
                record(f"{stem}/mutated/blocks",
                       _block_payloads(backend.db_path))
            finally:
                backend.close()
    return digests


#: Recorded when a label became its own bytes (``SEDNAPY6``, WAL
#: version 2): every key moved, and no artifact changed length.
GOLDEN = {
    "bookstore/load/blocks":
        "96e89500bb72aeff5f487f57e92a8b6221fdfa16aed106a3daba64685fab44cb",
    "bookstore/load/image":
        "e7eea0f6919f0c2efad7767743c3d41d1ac4d51675707f79b820c63b9a743e92",
    "bookstore/mutated/blocks":
        "77fcdb77e14c4f6c21a00deaa6661ea4239c903eb5163444d088fe04b90bcd2e",
    "bookstore/mutated/image":
        "d6a4e343aff09191c965f175cf2645acb2f41235bb4bc5661642464ac1588fe3",
    "bookstore/mutated/wal":
        "1afd27703963a47db90796a84c17589696fac9d45274938047a1e2919191e3c3",
    "library6+idx/load/blocks":
        "5bd266e5fcdfcf7bc7f9b33523ecb4e3f3374b48831703f739d708979e4e5563",
    "library6+idx/load/image":
        "9d5c223f179e84c27bc36e90a02778ebf72ec62719b028a877d48f65babee855",
    "library6+idx/mutated/blocks":
        "ae32a475618f751d56ef5952ba3e935714f9af6519ae14e3ac16f37a6edde360",
    "library6+idx/mutated/image":
        "d31f8546dd979c9fc726f187558fc02ff85f0ea9fe06b98a95bb94906a19cd14",
    "library6+idx/mutated/wal":
        "8605ecf1ba390450e8d6fc75c5fddafe0e61653d20c3bc9bd87778f7f77f2361",
    "library6/load/blocks":
        "5bd266e5fcdfcf7bc7f9b33523ecb4e3f3374b48831703f739d708979e4e5563",
    "library6/load/image":
        "e2b7ec64ccb06c95dcf8fa3abad84a1a48c35171815061a6375ba0f8f7a8236d",
    "library6/mutated/blocks":
        "ae32a475618f751d56ef5952ba3e935714f9af6519ae14e3ac16f37a6edde360",
    "library6/mutated/image":
        "17da9afc03bfe23b35c8fbbd7f7665bd143d711c8a2fdf433a9b1c703032d8cf",
    "library6/mutated/wal":
        "8605ecf1ba390450e8d6fc75c5fddafe0e61653d20c3bc9bd87778f7f77f2361",
    "library60+idx/load/blocks":
        "67fdcec9c6b4f7eb8408d5de58d18cd7aa07cf04b0489a8d6845916a751f842c",
    "library60+idx/load/image":
        "175f3c209dbce0ba93942d1c90a4fe4ea824a9fb16b488edf39910a15feaaea2",
    "library60+idx/mutated/blocks":
        "12022127eb0e00bb675e0717d381cbf877e0f0623e3ad910abdd9c7a2c92fe89",
    "library60+idx/mutated/image":
        "f4e81053bcf649ab4c3ddd3731fdff6fffdd5af1265602c424aa8b4f4c504e41",
    "library60+idx/mutated/wal":
        "31b307a70fdf33ac951e404a645d768d3669a6897256c0152dad4f6708b70df0",
    "library60/load/blocks":
        "67fdcec9c6b4f7eb8408d5de58d18cd7aa07cf04b0489a8d6845916a751f842c",
    "library60/load/image":
        "95cff811898832d5d4b4e4800f2941563611341b0a49bafebe7e935df085e7b3",
    "library60/mutated/blocks":
        "12022127eb0e00bb675e0717d381cbf877e0f0623e3ad910abdd9c7a2c92fe89",
    "library60/mutated/image":
        "f4637f448b7586c232f9fc57da5116cb4d4b0e19373af125cc1ec2306a2aff25",
    "library60/mutated/wal":
        "31b307a70fdf33ac951e404a645d768d3669a6897256c0152dad4f6708b70df0",
    "shelf+idx/load/blocks":
        "791ccc27a36148b107d608f97e68ceb7d53d9e29e5b65458bdcce9fa60af33cd",
    "shelf+idx/load/image":
        "9a79966c776e86ad0b5a7fea76f726d471fc8321dcf3e59b99dc4bb5687b45ac",
    "shelf+idx/mutated/blocks":
        "a7d1385e05d0a3c85d27c42b9b4df4fa33c943286c12c860e008a3e2ba7bd980",
    "shelf+idx/mutated/image":
        "76a6106efc07eaec17771bb66c0d9cd398ace85e3a2580e82d41573925b2c36b",
    "shelf+idx/mutated/wal":
        "b548eca11387176348eadc9579bae2e73897c391d0d52c3bbfd40a7d5a4e9961",
    "shelf/load/blocks":
        "791ccc27a36148b107d608f97e68ceb7d53d9e29e5b65458bdcce9fa60af33cd",
    "shelf/load/image":
        "b045301dec85090869e3f60c800efff977cb71c43ff99c5e1befdff2ec05f0c6",
    "shelf/mutated/blocks":
        "a7d1385e05d0a3c85d27c42b9b4df4fa33c943286c12c860e008a3e2ba7bd980",
    "shelf/mutated/image":
        "14152bfd2ad8147804e46c4de97c26dbf224097ce23da527433fe69f68039ed7",
    "shelf/mutated/wal":
        "b548eca11387176348eadc9579bae2e73897c391d0d52c3bbfd40a7d5a4e9961",
}


def test_image_blocks_and_wal_are_byte_identical(tmp_path):
    digests = golden_digests(tmp_path)
    assert sorted(digests) == sorted(GOLDEN)
    assert {key: value for key, value in digests.items()
            if GOLDEN[key] != value} == {}


# ----------------------------------------------------------------------
# (b) Labels: the record codec against a per-field reference.

def _reference_pack(components) -> bytes:
    """The label wire form, one field at a time: the byte length, then
    per component its digits + 1 and the separator 0, big-endian u16
    each.  Nothing is validated, so it also packs what §9.3 forbids."""
    body = b"".join(struct.pack(">H", digit + 1) for component
                    in components for digit in component + (-1,))
    return struct.pack("<H", len(body)) + body


class _ReferenceShort(Exception):
    """The reference decoder ran out of bytes at ``args[0]``."""


def _reference_unpack(data: bytes, pos: int):
    """``(components, end)`` read field by field — the length, then the
    body; a field that does not fit raises with its position."""
    if pos + 2 > len(data):
        raise _ReferenceShort(pos)
    (length,) = struct.unpack("<H", data[pos:pos + 2])
    if pos + 2 + length > len(data):
        raise _ReferenceShort(pos + 2)
    components, digits = [], []
    for at in range(pos + 2, pos + 2 + length, 2):
        (symbol,) = struct.unpack(">H", data[at:at + 2])
        if symbol:
            digits.append(symbol - 1)
        else:
            components.append(tuple(digits))
            digits = []
    return tuple(components), pos + 2 + length


@st.composite
def _labels(draw):
    base = draw(st.integers(min_value=3, max_value=65535))
    digit = st.integers(min_value=0, max_value=base - 1)
    last = st.integers(min_value=1, max_value=base - 1)
    component = st.tuples(st.lists(digit, max_size=3), last).map(
        lambda pair: tuple(pair[0]) + (pair[1],))
    return tuple(draw(st.lists(component, min_size=1, max_size=12)))


class TestLabelRoundTrip:
    @given(_labels(), st.binary(max_size=5), st.binary(max_size=5))
    def test_writers_and_readers_agree_with_the_reference(
            self, components, before, after):
        label = NidLabel(components)
        wire = _reference_pack(components)
        assert wire[2:] == label  # the label is its own wire body
        packed = bytearray()
        pack_nid(packed, label)
        assert bytes(packed) == wire

        data = before + wire + after
        assert _reference_unpack(data, len(before)) \
            == (components, len(before) + len(wire))
        reader = Reader(data)
        reader._take(len(before))
        decoded = reader.nid()
        assert isinstance(decoded, NidLabel)
        assert decoded.components == components
        assert decoded.symbols() == label.symbols()
        assert reader.pos == len(before) + len(wire)
        # As a link — a flag, then the label — it is the label's bytes.
        reader = Reader(before + b"\x01" + wire + after)
        reader._take(len(before))
        assert reader.link() == label
        assert reader.pos == len(before) + 1 + len(wire)
        reader = Reader(before + b"\x00" + after)
        reader._take(len(before))
        assert reader.link() is None
        assert reader.pos == len(before) + 1

    @given(_labels(), st.data())
    def test_a_short_label_is_refused_where_the_reference_stops(
            self, components, data):
        wire = _reference_pack(components)
        cut = wire[:data.draw(st.integers(0, len(wire) - 1))]
        with pytest.raises(_ReferenceShort) as expected:
            _reference_unpack(cut, 0)
        with pytest.raises(CorruptionError) as info:
            Reader(cut, backend="memory").nid()
        assert info.value.backend == "memory"
        assert info.value.location == f"byte {expected.value.args[0]}"
        with pytest.raises(CorruptionError) as info:
            Reader(b"\x01" + cut, backend="memory").link()
        assert info.value.location \
            == f"byte {expected.value.args[0] + 1}"

    def test_a_label_without_components_is_corruption(self):
        with pytest.raises(CorruptionError, match="components") as info:
            Reader(b"\x00\x00\x01\x00", backend="sqlite").nid()
        assert info.value.as_dict() == {"backend": "sqlite",
                                        "location": "byte 0"}
        with pytest.raises(CorruptionError, match="truncated") as info:
            Reader(b"\x01\x02\x00\x00", backend="sqlite").link()
        assert info.value.location == "byte 3"
        with pytest.raises(CorruptionError, match="truncated") as info:
            Reader(b"", backend="sqlite").link()
        assert info.value.location == "byte 0"


class TestLabelRefusals:
    """``Reader.nid`` accepts only what §9.3 allows: each refusal is a
    located corruption error at the label's first byte."""

    @staticmethod
    def _refused(wire: bytes, match: str, base: int = 256) -> None:
        data = b"\x07" + wire  # one byte of something before it
        reader = Reader(data, backend="memory")
        reader._take(1)
        with pytest.raises(CorruptionError, match=match) as info:
            reader.nid(base)
        assert info.value.as_dict() == {"backend": "memory",
                                        "location": "byte 1"}

    def test_a_component_ending_in_digit_zero(self):
        self._refused(_reference_pack(((1, 0),)), "ending in digit 0")

    def test_an_empty_component(self):
        self._refused(_reference_pack(((3,), ())), "empty component")
        self._refused(_reference_pack(((), (3,))), "empty component")

    def test_a_digit_at_or_above_the_base(self):
        self._refused(_reference_pack(((300,),)), "digit 300 out of range")
        self._refused(_reference_pack(((7, 16),)), "digit 16 out of range",
                      base=16)
        reader = Reader(_reference_pack(((300,),)))
        assert reader.nid().components == ((300,),)  # a u16 base: fine

    def test_an_odd_length(self):
        self._refused(b"\x03\x00\x00\x81\x00", "odd length 3")

    def test_a_missing_final_separator(self):
        self._refused(b"\x04\x00\x00\x81\x00\x05", "final separator")

    def test_a_separator_straddling_two_symbols_is_not_one(self):
        """Digit 255 then digit 0 is ``01 00 00 01``: the ``00 00`` at
        an odd offset separates nothing."""
        wire = _reference_pack(((255, 0, 1),))
        assert b"\x00\x00" in wire[2:-2]
        label = Reader(wire).nid(256)
        assert label.components == ((255, 0, 1),)

    def test_a_digit_out_of_the_image_base_is_refused_in_an_image(self):
        """Through the image decoder, the base is the header's."""
        engine = StorageEngine(base=16)
        engine.load_document(make_library_document(2, 0, seed=1))
        image = bytearray(dumps_engine(engine))
        root = engine.document.nid  # one component, digit 8
        assert root == NidLabel(((8,),))
        at = image.index(b"\x04\x00" + root)  # the document's record
        image[at + 3] = 17  # digit 16, which base 16 has not
        with pytest.raises(CorruptionError, match="digit 16") as info:
            load_engine(_resign(bytes(image)), backend="memory")
        assert info.value.location == f"byte {at}"

    def test_a_sednapy5_image_is_refused_by_name(self):
        engine = StorageEngine()
        engine.load_document(make_library_document(2, 0, seed=1))
        body = b"SEDNAPY5" + dumps_engine(engine)[8:-4]
        image = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CorruptionError, match="SEDNAPY5") as info:
            load_engine(image, backend="memory")
        assert info.value.location == "byte 0"

    def test_a_version_1_wal_is_refused_by_name(self):
        old = WAL_HEADER[:-2] + struct.pack("<H", 1)
        assert struct.unpack("<H", WAL_HEADER[-2:]) == (2,)
        with pytest.raises(StorageError, match="WAL version 1"):
            scan_wal(old, backend="memory")
        store = MemoryWalStore()
        store.append(old)
        with pytest.raises(StorageError, match="WAL version 1"):
            WriteAheadLog(store)

    def test_a_bulk_load_record_is_refused_by_name(self):
        """Kind 11 stays reserved for the removed bulk-load marker: a
        log holding one is refused at its kind byte, never replayed."""
        payload = struct.pack("<QBQQ", 8, 11, 2, 40)  # lsn, kind, txn
        with pytest.raises(CorruptionError, match="bulk LOAD") as info:
            _decode_wal_payload(payload)
        assert info.value.location == "byte 8"
        store = MemoryWalStore()
        store.append(WAL_HEADER + encode_frame(payload))
        with pytest.raises(CorruptionError, match="bulk LOAD") as info:
            WriteAheadLog(store)
        assert info.value.location.endswith("byte 8")

    def test_a_bulk_load_record_cannot_be_appended(self):
        """``append_load`` keeps its name but refuses, and the log it
        was called on stays as it was."""
        log = WriteAheadLog(MemoryWalStore())
        log.append_begin(3)
        before = log.store.load()
        with pytest.raises(StorageError, match="bulk LOAD"):
            log.append_load(3, 17)
        assert log.store.load() == before
        assert log.append_commit(3) == 2


# ----------------------------------------------------------------------
# (c) Decoder fuzz: damage is a located CorruptionError, nothing else.

_BLOCK_PLACE = "block 7 gen 1"


def _decode_image(data: bytes):
    return load_engine(data, backend="memory")


def _resign(image: bytes) -> bytes:
    """*image* with its CRC trailer recomputed over the body."""
    return image[:-4] + struct.pack("<I", zlib.crc32(image[:-4]))


def _decode_resigned_image(data: bytes):
    return load_engine(_resign(data), backend="memory")


def _decode_block_payload(data: bytes):
    return list(decode_block(Reader(
        data, backend="sqlite",
        place=lambda pos: f"{_BLOCK_PLACE} byte {pos}",
        what="block payload")))


#: Where a damaged manifest is refused: the manifest as a whole (its
#: magic), its CRC trailer, or one of its bytes.
_MANIFEST_PLACE = re.compile(
    r"snapshot \d{10}-[0-9a-f]{12} manifest( trailer| byte (\d+))?")


def _sqlite_manifest(engine: StorageEngine):
    """*engine*'s snapshot manifest and a decoder that restores from
    it through a real SQLite row (the payload rows stay intact)."""
    backend = SqliteBackend(":memory:")
    version = backend.checkpoint(engine).version
    (manifest,) = backend._conn.execute(
        "SELECT manifest FROM snapshots").fetchone()

    def decode(data: bytes):
        backend._conn.execute("UPDATE snapshots SET manifest = ?",
                              (data,))
        return backend.restore(version)

    return manifest, decode


def _decode_wal_payload(data: bytes):
    return _decode_payload(data, backend="file")


def _decode_wal_frame(data: bytes):
    """The records a log holding just this frame scans to: none for a
    damaged frame — a torn tail, the scan stops in front of it."""
    scan = scan_wal(WAL_HEADER + data, backend="memory")
    assert scan.records or scan.valid_bytes == len(WAL_HEADER)
    return scan.records


#: The rows of the WAL body table, in the order ``_fuzz_inputs``
#: appends one record of each.
_WAL_ROWS = ("checkpoint", "begin", "insert_element", "insert_text",
             "set_attribute", "delete", "create_index", "drop_index",
             "abort", "commit")


@functools.lru_cache(maxsize=None)
def _fuzz_inputs(mutated: bool) -> dict:
    """One small artifact per decoder, and one WAL payload per record
    kind: ``name -> (bytes, decoder, backend, may a damaged input
    decode?)``.  A payload has no
    checksum of its own, so damage can leave a valid one; an image
    and a WAL frame have, so it cannot — unless the image is signed
    again after the damage, which is what reaches the decoder's own
    checks and ``check_invariants`` behind the CRC."""
    factory, capacity, _ = FIXTURES["library6" if mutated else "shelf"]
    engine = StorageEngine(block_capacity=capacity)
    engine.load_document(factory())
    engine.create_index("library/book/title")
    store = MemoryWalStore()
    wal = WriteAheadLog(store, sync=False)
    TransactionManager(engine, wal)
    if mutated:
        _mutate(engine)
    else:
        library = engine.children(engine.document)[0]
        engine.set_attribute(engine.children(library)[0],
                             QName("urn:x", "shelf"), "A3")
    frames = [store.load()[end - len(payload) - FRAME_HEADER_LEN:end]
              for payload, end in iter_frames(store.load(),
                                              len(WAL_HEADER))]
    frame = max(frames, key=len)
    block = max((block for node in engine.schema.iter_nodes()
                 for block in node.blocks()
                 if node.node_type == "text"),
                key=lambda block: block.count)
    image = dumps_engine(engine, checkpoint_lsn=wal.last_lsn)
    manifest, decode_manifest = _sqlite_manifest(engine)
    rows = MemoryWalStore()
    log = WriteAheadLog(rows, sync=False)
    label = block.last_descriptor().nid
    name = QName("urn:x", "shelf")
    log.reset(wal.last_lsn)
    log.append_begin(9)
    log.append_insert_element(9, label, 3, name, label)
    log.append_insert_text(9, label, 0, "h\u00e9llo", label)
    log.append_set_attribute(9, label, name, "A3", label, replace=True)
    log.append_delete(9, label)
    log.append_create_index(9, "library/book/title", "value", "string")
    log.append_drop_index(9, "//author", "path")
    log.append_abort(9)
    log.append_commit(9)
    payloads = [payload for payload, _ in iter_frames(rows.load(),
                                                      len(WAL_HEADER))]
    assert len(payloads) == len(_WAL_ROWS)
    return {
        **{f"wal-payload-{row}": (payload, _decode_wal_payload, "file",
                                  True)
           for row, payload in zip(_WAL_ROWS, payloads)},
        "image": (image, _decode_image, "memory", False),
        "image-resigned": (image, _decode_resigned_image, "memory",
                           True),
        "block": (encode_block(block), _decode_block_payload,
                  "sqlite", True),
        "wal-payload": (frame[FRAME_HEADER_LEN:], _decode_wal_payload,
                        "file", True),
        "wal-frame": (frame, _decode_wal_frame, "memory", False),
        "sqlite-manifest": (manifest, decode_manifest, "sqlite", False),
    }


def _check_damaged(name, damaged: bytes, decoder, backend, may_decode):
    try:
        decoded = decoder(damaged)
    except CorruptionError as error:
        assert error.backend == backend, (name, error)
        if name == "sqlite-manifest":
            where = _MANIFEST_PLACE.fullmatch(error.location)
            assert where, (name, error)
            assert 0 <= int(where[2] or 0) <= len(damaged), (name, error)
            return
        where = error.location.rpartition("byte ")
        if where[1]:
            assert 0 <= int(where[2]) <= len(damaged), (name, error)
            if name == "block":
                assert where[0] == _BLOCK_PLACE + " ", (name, error)
        else:
            assert error.location == "trailer", (name, error)
    else:
        assert may_decode or not decoded, \
            f"{name}: damaged input was accepted"


def _check_generated_damage(name, damaged: bytes):
    """:func:`_check_damaged` for a damaged artifact of the mutated
    engine, except where the damage only appended bytes to an intact
    WAL frame: that is a torn tail, and the scan returns the frame's
    records in front of it."""
    original, decoder, backend, may_decode = _fuzz_inputs(True)[name]
    if damaged == original:
        return
    if name == "wal-frame" and damaged.startswith(original):
        assert decoder(damaged) == decoder(original)
    else:
        _check_damaged(name, damaged, decoder, backend, may_decode)


class TestDecoderFuzz:
    @pytest.mark.parametrize("name", ["image", "image-resigned", "block",
                                      "wal-payload", "wal-frame",
                                      "sqlite-manifest",
                                      *[f"wal-payload-{row}"
                                        for row in _WAL_ROWS]])
    def test_every_truncation_and_a_flip_at_every_byte(self, name):
        data, decoder, backend, may_decode = _fuzz_inputs(False)[name]
        assert decoder(data)  # intact, it decodes
        # A re-signed image is decoded and invariant-checked in full
        # every time, so tier-1 takes every 13th position (13 and 8
        # are coprime: every bit still gets flipped); the generated
        # test below covers the rest under the crash-matrix profile.
        step = 13 if name == "image-resigned" else 1
        for length in range(0, len(data), step):
            _check_damaged(name, data[:length], decoder, backend,
                           may_decode)
        for position in range(0, len(data), step):
            damaged = bytearray(data)
            damaged[position] ^= 1 << (position % 8)
            _check_damaged(name, bytes(damaged), decoder, backend,
                           may_decode)

    @given(st.data())
    def test_generated_damage_on_a_mutated_engine(self, data):
        """Several flips, overwritten runs and cuts, on artifacts with
        split blocks and multi-digit labels; the example budget is the
        hypothesis profile's (CI: ``crash-matrix``, fixed seed)."""
        inputs = _fuzz_inputs(True)
        name = data.draw(st.sampled_from(sorted(inputs)))
        damaged = bytearray(inputs[name][0])
        for _ in range(data.draw(st.integers(1, 3))):
            position = data.draw(st.integers(0, len(damaged) - 1))
            kind = data.draw(st.sampled_from(["flip", "write", "cut"]))
            if kind == "flip":
                damaged[position] ^= 1 << data.draw(st.integers(0, 7))
            elif kind == "write":
                run = data.draw(st.binary(min_size=1, max_size=4))
                damaged[position:position + len(run)] = run
            else:
                del damaged[max(position, 1):]
        _check_generated_damage(name, bytes(damaged))

    @pytest.mark.parametrize("name, position, run", [
        # Rewrites the frame's last byte with itself and appends one.
        ("wal-frame", 85, b"\x00\x00"),
    ])
    def test_stored_damage_on_a_mutated_engine(self, name, position, run):
        """Draws the generated test above once failed on."""
        damaged = bytearray(_fuzz_inputs(True)[name][0])
        damaged[position:position + len(run)] = run
        _check_generated_damage(name, bytes(damaged))


# ----------------------------------------------------------------------
# (d) Links that loop are refused, not followed.

def _outcome_within(call, seconds: float = 10.0):
    """What *call* returned or raised; fails if it is still running
    after *seconds* (the thread is a daemon, so a hang cannot outlive
    the test run)."""
    outcome = []

    def run():
        try:
            outcome.append(call())
        except BaseException as error:  # noqa: BLE001 — reported below
            outcome.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome[0]


class TestLoopingLinks:
    @pytest.fixture
    def engine(self):
        engine = StorageEngine(block_capacity=2)
        engine.load_document(make_library_document(4, 0, seed=11))
        return engine

    @staticmethod
    def _books(engine):
        library = engine.children(engine.document)[0]
        return engine.children(library)

    @staticmethod
    def _section(payload: bytes) -> bytes:
        """A payload as the image holds it, behind its length."""
        return struct.pack("<I", len(payload)) + payload

    @staticmethod
    def _twice_carried(engine):
        """The two book blocks' payloads, and the second one with its
        first record replaced by the first block's last: one label
        carried twice."""
        first, second = (
            encode_block(block)
            for block in TestLoopingLinks._books(engine)[0]
            .schema_node.blocks())

        def last_record(payload: bytes) -> bytes:
            starts = [record[0]
                      for record in decode_block(Reader(payload))]
            assert len(starts) == 2
            return payload[starts[1]:]

        return second, second[:4] + last_record(first) \
            + last_record(second)

    def _assert_refused(self, load, backend):
        error = _outcome_within(load)
        assert isinstance(error, CorruptionError), error
        assert error.backend == backend and error.location, error
        return error

    def test_a_sibling_chain_that_loops_in_a_signed_image(self, engine):
        books = self._books(engine)
        last = books[-1]
        image = dumps_engine(engine)
        intact = self._section(encode_block(last.block))
        last.right_sibling = books[0]
        assert image.count(intact) == 1
        looped = _resign(image.replace(
            intact, self._section(encode_block(last.block))))
        self._assert_refused(
            lambda: load_engine(looped, backend="memory"), "memory")

    def test_an_in_block_chain_that_loops_in_a_signed_image(self,
                                                            engine):
        """A descriptor listed in two blocks used to re-point its
        short pointer and loop the first block's chain walk; a label
        is one descriptor's now, and the second payload carrying it
        is refused where that record starts."""
        image = dumps_engine(engine)
        second, twice = self._twice_carried(engine)
        assert image.count(self._section(second)) == 1
        looped = _resign(image.replace(self._section(second),
                                       self._section(twice)))
        error = self._assert_refused(
            lambda: load_engine(looped, backend="memory"), "memory")
        assert "already carried" in str(error)
        assert error.location == \
            f"byte {image.index(self._section(second)) + 8}"

    def test_a_label_carried_by_two_sqlite_rows(self, tmp_path, engine):
        """The same refusal from the other medium, located in the row
        — not a statistics mismatch found once everything is in."""
        backend = SqliteBackend(tmp_path / "store.db")
        info = backend.checkpoint(engine)
        block = self._books(engine)[-1].block
        backend._conn.execute(
            "UPDATE block_rows SET payload = ? WHERE block_id = ?",
            (self._twice_carried(engine)[1], block.block_id))
        backend.close()

        def restore():
            reopened = SqliteBackend(tmp_path / "store.db")
            try:
                return reopened.restore(info.version)
            finally:
                reopened.close()

        error = self._assert_refused(restore, "sqlite")
        assert "already carried" in str(error)
        assert error.location == \
            f"block {block.block_id} gen {info.seq} byte 4"

    def test_a_sibling_chain_that_loops_in_sqlite_rows(self, tmp_path,
                                                       engine):
        backend = SqliteBackend(tmp_path / "store.db")
        info = backend.checkpoint(engine)
        books = self._books(engine)
        books[-1].right_sibling = books[0]
        block = books[-1].block
        backend._conn.execute(
            "UPDATE block_rows SET payload = ? WHERE block_id = ?",
            (encode_block(block), block.block_id))
        backend.close()

        def restore():  # a connection belongs to the thread it opens in
            reopened = SqliteBackend(tmp_path / "store.db")
            try:
                return reopened.restore(info.version)
            finally:
                reopened.close()

        self._assert_refused(restore, "sqlite")


# ----------------------------------------------------------------------
# (e) A remembered payload is the payload a fresh encode gives.

def _fresh_dump(engine: StorageEngine) -> bytes:
    """The image with every block encoded anew."""
    engine.payloads.clear()
    return dumps_engine(engine)


class TestMemoisedEqualsFresh:
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_after_every_mutation_step(self, tmp_path, fixture):
        """After each transaction of ``_mutate``: the dump through the
        memo is the dump with the memo cleared, and checkpoints of the
        one engine that alternate between a file and a SQLite store —
        each reusing payloads the other left behind — restore it."""
        factory, capacity, _ = FIXTURES[fixture]
        engine = StorageEngine(block_capacity=capacity)
        engine.load_document(factory())
        TransactionManager(engine,
                           WriteAheadLog(MemoryWalStore(), sync=False))
        stores = [FileBackend(tmp_path / "store.img"),
                  SqliteBackend(tmp_path / "store.db")]
        try:
            for store in stores:
                store.checkpoint(engine)
            for step, _ in enumerate(_mutation_steps(engine)):
                memoised = dumps_engine(engine)
                assert memoised == _fresh_dump(engine)
                store = stores[step % 2]
                store.checkpoint(engine)
                assert dumps_engine(store.load_engine()) == memoised
            assert engine.split_count > 0
            for store in stores:
                store.checkpoint(engine)
                assert dumps_engine(store.load_engine()) \
                    == _fresh_dump(engine)
        finally:
            for store in stores:
                store.close()

    def test_a_reloaded_image_dumps_to_itself(self):
        for mutated in (False, True):
            image = _fuzz_inputs(mutated)["image"][0]
            restored = load_engine(image)
            assert dumps_engine(
                restored, checkpoint_lsn=restored.checkpoint_lsn) == image


# ----------------------------------------------------------------------
# (f) Block fill order.

class TestBlockFillOrder:
    def _block(self, capacity: int = 6):
        schema = DescriptiveSchema()
        node = schema.get_or_add_child(schema.root, QName("", "a"),
                                       "element")
        block = Block(node, capacity)
        node.first_block = node.last_block = block
        return block

    @staticmethod
    def _descriptor(block, digit: int) -> NodeDescriptor:
        return NodeDescriptor(block.schema_node,
                              NidLabel(((128,), (digit,))))

    def test_a_block_without_holes_fills_in_slot_order(self):
        block = self._block()
        last = None
        for digit in range(1, 7):
            descriptor = self._descriptor(block, digit)
            block.insert_after(descriptor, last)
            last = descriptor
            assert descriptor.slot == digit - 1
        assert block.is_full

    def test_a_hole_is_reused_before_the_tail(self):
        engine = StorageEngine(block_capacity=6)
        engine.load_document(parse_document(
            "<a><b/><b/><b/><b/><b/></a>"))
        root = engine.children(engine.document)[0]
        children = engine.children(root)
        block = children[0].block
        assert [child.slot for child in children] == [0, 1, 2, 3, 4]
        engine.delete_subtree(children[1])
        engine.delete_subtree(children[3])
        assert block.slots[1] is None and block.slots[3] is None
        first = engine.insert_child(root, 0, name=QName("", "b"))
        second = engine.insert_child(root, 4, name=QName("", "b"))
        third = engine.insert_child(root, 5, name=QName("", "b"))
        # Both holes are taken before the untouched tail slot is.
        assert {first.slot, second.slot} == {1, 3}
        assert third.slot == 5
        assert [d.slot for d in block.iter_in_order()] \
            == [first.slot, 0, 2, 4, second.slot, 5]
        assert block.is_full
        engine.check_invariants()
        restored = load_engine(dumps_engine(engine))
        restored.check_invariants()
        assert [d.nid for d in restored.iter_document_order()] \
            == [d.nid for d in engine.iter_document_order()]


if __name__ == "__main__":
    import pathlib
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pprint.pprint(golden_digests(pathlib.Path(scratch)), width=100)
