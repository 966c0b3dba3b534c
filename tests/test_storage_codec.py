"""The storage codec moves records; the bytes and the refusals stay.

Six things are pinned here:

* **golden byte identity** — the image, every SQLite block payload and
  the WAL stream of a fixed set of engines hash to SHA-256 values
  recorded at the commit *before* the codec was rewritten to pack and
  unpack whole records — the image ones again when the image became a
  container of those block payloads (``SEDNAPY5``), with every
  ``blocks`` and ``wal`` value unchanged (``python
  tests/test_storage_codec.py`` prints the table from whatever
  ``repro`` is on the path);
* **label round trip** — ``pack_nid`` / ``Reader.nid`` /
  ``Reader.nid_bytes`` / ``Reader.link`` against a per-field
  reference decoder kept in this file;
* **decoder fuzz** — every truncation and every single-bit flip of a
  small image, a block payload and a WAL payload is a located
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
import json
import sqlite3
import struct
import threading
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import CorruptionError
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
    Writer,
    iter_frames,
    pack_nid,
)
from repro.storage.descriptor import NodeDescriptor
from repro.storage.dschema import DescriptiveSchema
from repro.storage.persist import decode_block, encode_block
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
        manifest = json.loads(conn.execute(
            "SELECT manifest FROM snapshots WHERE version = ?",
            (version,)).fetchone()[0])
        out = bytearray()
        for chain in manifest["chains"]:
            out += struct.pack("<I", len(chain))
            for block_id in chain:
                (payload,) = conn.execute(
                    "SELECT payload FROM block_rows "
                    "WHERE block_id = ? AND gen = ?",
                    (block_id, manifest["gens"][str(block_id)])
                ).fetchone()
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


#: Recorded at the parent of the record-codec change (4a32132); the
#: ``image`` values at the change to ``SEDNAPY5``, the six ``+idx``
#: ones again at the parent of the path index's removal, with only
#: the value index declared.
GOLDEN = {
    "bookstore/load/blocks":
        "db37ac51a6a0fd1aed8ed7175d228816e1ac5a8e100a9dd94cd94b4bcb57c4fa",
    "bookstore/load/image":
        "27ad482a39eed965e0880e119ef92f593b584cc4a4719b04a403018298e2dd23",
    "bookstore/mutated/blocks":
        "2e301c4f2b22c25a6327d974dd7c62334b1d226b534d238f043bc242c1791f34",
    "bookstore/mutated/image":
        "a0d4a0507af5a040fe759f44cab8d8868a1357ffa11ec7e8b352f5edab87a6dc",
    "bookstore/mutated/wal":
        "1c7ac88dae7cb3a3dffbc01250bc7bb98964a51300cf4b5d22e5a54ad0a23ea2",
    "library6+idx/load/blocks":
        "a236d9e7d334c5a17e54cff4c1261f324452bb34a1dc51e9df3d7858a292f9fe",
    "library6+idx/load/image":
        "0d8d94918ad97901481564e3f64867fbc20d59855d80800db29ae49faead57ba",
    "library6+idx/mutated/blocks":
        "e52960a62e63dc21bf3f04be0c938ecc6386bc60ed31dda35463dfddd77fdd68",
    "library6+idx/mutated/image":
        "9bb42fd8e82b3a6155975bc4f36017093bd0b0fd72e79c5caa633a629ecfd3a7",
    "library6+idx/mutated/wal":
        "27bc42ce6bbf789dd30f3922c6eac9c71aaa735154e7f9a78ae400a88070a7ab",
    "library6/load/blocks":
        "a236d9e7d334c5a17e54cff4c1261f324452bb34a1dc51e9df3d7858a292f9fe",
    "library6/load/image":
        "dce6b71f98bcce07f342c809b84cdcb6efde30871dddc09145006473c4f09990",
    "library6/mutated/blocks":
        "e52960a62e63dc21bf3f04be0c938ecc6386bc60ed31dda35463dfddd77fdd68",
    "library6/mutated/image":
        "412b159115d9adb7a4ca69552e8095701fad23174dceeb3e0f0aab7f2c2ca3c8",
    "library6/mutated/wal":
        "27bc42ce6bbf789dd30f3922c6eac9c71aaa735154e7f9a78ae400a88070a7ab",
    "library60+idx/load/blocks":
        "05659b3544f2e1727a622e7505648a51f874a1b6d61ffc789b19a99063d274cd",
    "library60+idx/load/image":
        "099e84af7b4aa353bab533a2761a41b3d08a9ace580b168f42e7ad0fd5c0b1e1",
    "library60+idx/mutated/blocks":
        "4c334877a489b4c7698986bf0fdfb92aa0e9ff2559e23dcda8c3d994ce140d54",
    "library60+idx/mutated/image":
        "65d46701b6eff09791ce040ba925c9d7a60ab30be1628989fc96c5839f318ac1",
    "library60+idx/mutated/wal":
        "c43746e8be9c8788a4f42aca19a572ce5eebc782fbcb09a3fa56db0ca9897c53",
    "library60/load/blocks":
        "05659b3544f2e1727a622e7505648a51f874a1b6d61ffc789b19a99063d274cd",
    "library60/load/image":
        "251a0f1519e78ce3b747443b3d16cd08d5d6aee6f2f6797b2499f2cdf92332ad",
    "library60/mutated/blocks":
        "4c334877a489b4c7698986bf0fdfb92aa0e9ff2559e23dcda8c3d994ce140d54",
    "library60/mutated/image":
        "91abf794c57357bae47867d0a8a0e2dbd285fe99f904475836bb06ff495bb283",
    "library60/mutated/wal":
        "c43746e8be9c8788a4f42aca19a572ce5eebc782fbcb09a3fa56db0ca9897c53",
    "shelf+idx/load/blocks":
        "e502ecf14e9d37ebfe1cfac6be7739833b6ae9b9543afd45f0502741ca68864a",
    "shelf+idx/load/image":
        "102478a471369a4e8a04e3c6c02936ed24e85220ac9741d23b3f16b16623daec",
    "shelf+idx/mutated/blocks":
        "1300291cb0c59ab2520bc082bdd0eafaff3dd13195a51ec7687d6445c654b6e8",
    "shelf+idx/mutated/image":
        "6ff4fd4ed238ad98f444fd05d4de43fef457e6cea6c2536aae5e1dc42db3b5aa",
    "shelf+idx/mutated/wal":
        "7ba8375876f09f2aa7ffa9101b745b6b94d36e5eb225002f0904cb704ccf48e5",
    "shelf/load/blocks":
        "e502ecf14e9d37ebfe1cfac6be7739833b6ae9b9543afd45f0502741ca68864a",
    "shelf/load/image":
        "1e4cda49652ab221f577d5d40e1377c1939b1641d21bb03953e92d882774d89c",
    "shelf/mutated/blocks":
        "1300291cb0c59ab2520bc082bdd0eafaff3dd13195a51ec7687d6445c654b6e8",
    "shelf/mutated/image":
        "e0036c7c7961e54826d946081e772e5fd2514ddb4f9295e217db78330ebe5407",
    "shelf/mutated/wal":
        "7ba8375876f09f2aa7ffa9101b745b6b94d36e5eb225002f0904cb704ccf48e5",
}


def test_image_blocks_and_wal_are_byte_identical(tmp_path):
    digests = golden_digests(tmp_path)
    assert sorted(digests) == sorted(GOLDEN)
    assert {key: value for key, value in digests.items()
            if GOLDEN[key] != value} == {}


# ----------------------------------------------------------------------
# (b) Labels: the record codec against a per-field reference.

def _reference_pack(components) -> bytes:
    """The label wire form, one field at a time."""
    out = struct.pack("<H", len(components))
    for component in components:
        out += struct.pack("<H", len(component))
        for digit in component:
            out += struct.pack("<H", digit)
    return out


class _ReferenceShort(Exception):
    """The reference decoder ran out of bytes at ``args[0]``."""


def _reference_unpack(data: bytes, pos: int):
    """``(components, end)`` read u16 by u16; a field that does not
    fit raises with the position of that field."""
    def u16():
        nonlocal pos
        if pos + 2 > len(data):
            raise _ReferenceShort(pos)
        (value,) = struct.unpack("<H", data[pos:pos + 2])
        pos += 2
        return value
    components = []
    for _ in range(u16()):
        components.append(tuple(u16() for _ in range(u16())))
    return tuple(components), pos


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
        packed = bytearray()
        pack_nid(packed, label)
        assert bytes(packed) == wire
        writer = Writer()
        writer.nid(label)
        assert bytes(writer.out) == wire

        data = before + wire + after
        assert _reference_unpack(data, len(before)) \
            == (components, len(before) + len(wire))
        reader = Reader(data)
        reader._take(len(before))
        decoded = reader.nid()
        assert decoded.components == components
        assert decoded.symbols() == label.symbols()
        assert reader.pos == len(before) + len(wire)
        assert reader.since(len(before)) == wire
        reader = Reader(data)
        reader._take(len(before))
        assert reader.nid_bytes() == wire
        assert reader.pos == len(before) + len(wire)
        # As a link — a flag, then the label — whatever the hint: the
        # stem a record passes (all components but the last), none,
        # one that does not match, one deeper than the label.
        linked = before + b"\x01" + wire + after
        for shared in (components[:-1], (), ((7, 7),) + components[1:],
                       components + ((1,),)):
            stem = b"".join(_reference_pack((component,))[2:]
                            for component in shared)
            reader = Reader(linked)
            reader._take(len(before))
            assert reader.link(stem, len(shared)) == wire
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
        for read in (Reader.nid, Reader.nid_bytes):
            with pytest.raises(CorruptionError) as info:
                read(Reader(cut, backend="memory"))
            assert info.value.backend == "memory"
            assert info.value.location == f"byte {expected.value.args[0]}"
        stem = _reference_pack(components[:-1])[2:]
        with pytest.raises(CorruptionError) as info:
            Reader(b"\x01" + cut, backend="memory").link(
                stem, len(components) - 1)
        assert info.value.location \
            == f"byte {expected.value.args[0] + 1}"

    def test_a_label_without_components_is_corruption(self):
        for read in (Reader.nid, Reader.nid_bytes):
            with pytest.raises(CorruptionError, match="components") \
                    as info:
                read(Reader(b"\x00\x00\x01\x00", backend="sqlite"))
            assert info.value.as_dict() == {"backend": "sqlite",
                                            "location": "byte 0"}
        with pytest.raises(CorruptionError, match="components") as info:
            Reader(b"\x01\x00\x00\x01\x00", backend="sqlite").link()
        assert info.value.location == "byte 1"
        with pytest.raises(CorruptionError, match="truncated") as info:
            Reader(b"", backend="sqlite").link()
        assert info.value.location == "byte 0"


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
             "load", "abort", "commit")


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
    log.append_load(9, engine.node_count())
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
    }


def _check_damaged(name, damaged: bytes, decoder, backend, may_decode):
    try:
        decoded = decoder(damaged)
    except CorruptionError as error:
        assert error.backend == backend, (name, error)
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


class TestDecoderFuzz:
    @pytest.mark.parametrize("name", ["image", "image-resigned", "block",
                                      "wal-payload", "wal-frame",
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
        original, decoder, backend, may_decode = inputs[name]
        damaged = bytearray(original)
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
        if bytes(damaged) != original:
            _check_damaged(name, bytes(damaged), decoder, backend,
                           may_decode)


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
    engine.checkpoints.payloads.clear()
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
