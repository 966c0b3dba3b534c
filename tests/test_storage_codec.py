"""The storage codec moves records; the bytes and the refusals stay.

Five things are pinned here:

* **golden byte identity** — the image, every SQLite block payload and
  the WAL stream of a fixed set of engines hash to SHA-256 values
  recorded at the commit *before* the codec was rewritten to pack and
  unpack whole records (``python tests/test_storage_codec.py`` prints
  the table from whatever ``repro`` is on the path);
* **label round trip** — ``pack_nid`` / ``Reader.nid`` /
  ``Reader.nid_bytes`` against a per-field reference decoder kept in
  this file;
* **decoder fuzz** — every truncation and every single-bit flip of a
  small image, a block payload and a WAL payload is a located
  :class:`CorruptionError`, never another exception; an image is
  fuzzed twice, once as damaged (the CRC refuses it) and once
  re-signed (the decoder and the invariant checks must);
* **looping links** — a signed image, or SQLite block rows, whose
  sibling or in-block chain loops is refused in bounded time;
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
    MemoryWalStore,
    NidLabel,
    SqliteBackend,
    StorageEngine,
    TransactionManager,
    WriteAheadLog,
    dumps_engine,
    load_engine,
)
from repro.storage.backends.sqlite import _decode_block, _encode_block
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
from repro.storage.persist import _LINKS, _NONE
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


def _mutate(engine: StorageEngine) -> None:
    """Splitting inserts, an attribute, a replaced attribute and a
    delete, the same on every fixture."""
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
    with manager.transaction():
        engine.set_attribute(entries[0], QName("", "shelf"), "A3")
        engine.set_attribute(entries[0], QName("", "shelf"), "B1",
                             replace=True)
    with manager.transaction():
        engine.delete_subtree(entries[-1])
    # Gap labels: keep inserting in front of the same sibling until
    # a component needs a second digit.
    with manager.transaction():
        for _ in range(10):
            engine.insert_child(root, 1, name=name)


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
                engine.create_index("//title", kind="path")
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


#: Recorded at the parent of the record-codec change (4a32132).
GOLDEN = {
    "bookstore/load/blocks":
        "db37ac51a6a0fd1aed8ed7175d228816e1ac5a8e100a9dd94cd94b4bcb57c4fa",
    "bookstore/load/image":
        "4343b9032e9a8275ee4669e0fe7b379a854b46f730cf08cf5b5a1b359763855b",
    "bookstore/mutated/blocks":
        "2e301c4f2b22c25a6327d974dd7c62334b1d226b534d238f043bc242c1791f34",
    "bookstore/mutated/image":
        "5700f18d53bf373eea4b99426b91fbb1ddfdc9c962450d24a0f238611abe6531",
    "bookstore/mutated/wal":
        "1c7ac88dae7cb3a3dffbc01250bc7bb98964a51300cf4b5d22e5a54ad0a23ea2",
    "library6+idx/load/blocks":
        "a236d9e7d334c5a17e54cff4c1261f324452bb34a1dc51e9df3d7858a292f9fe",
    "library6+idx/load/image":
        "59e449046724e583aa383d91b88ec8b51d2ee0666f9903d6768e9c0f9d0f3f18",
    "library6+idx/mutated/blocks":
        "e52960a62e63dc21bf3f04be0c938ecc6386bc60ed31dda35463dfddd77fdd68",
    "library6+idx/mutated/image":
        "cf941568f2947419d1c31829d856771d9c8c9cd06f3d8e5b95aca13fddb7c8c4",
    "library6+idx/mutated/wal":
        "27bc42ce6bbf789dd30f3922c6eac9c71aaa735154e7f9a78ae400a88070a7ab",
    "library6/load/blocks":
        "a236d9e7d334c5a17e54cff4c1261f324452bb34a1dc51e9df3d7858a292f9fe",
    "library6/load/image":
        "fd97070ad7af1cb9e001f85cee2814f3e739eb1c763969fdf817c6f2dffa5cfb",
    "library6/mutated/blocks":
        "e52960a62e63dc21bf3f04be0c938ecc6386bc60ed31dda35463dfddd77fdd68",
    "library6/mutated/image":
        "bde8e59d061a6e8bf773411a8fc6fc6cde1702008623a47daa168ca079a9e6ac",
    "library6/mutated/wal":
        "27bc42ce6bbf789dd30f3922c6eac9c71aaa735154e7f9a78ae400a88070a7ab",
    "library60+idx/load/blocks":
        "05659b3544f2e1727a622e7505648a51f874a1b6d61ffc789b19a99063d274cd",
    "library60+idx/load/image":
        "84b911352e70e7f0b281dc21e2ff10e8bd8cf5fe6f48be7a340b128f5041721e",
    "library60+idx/mutated/blocks":
        "4c334877a489b4c7698986bf0fdfb92aa0e9ff2559e23dcda8c3d994ce140d54",
    "library60+idx/mutated/image":
        "26fc455728c15a87aab86065cc9a3c992c78a0d0594693284b59c5a44d7cabf5",
    "library60+idx/mutated/wal":
        "c43746e8be9c8788a4f42aca19a572ce5eebc782fbcb09a3fa56db0ca9897c53",
    "library60/load/blocks":
        "05659b3544f2e1727a622e7505648a51f874a1b6d61ffc789b19a99063d274cd",
    "library60/load/image":
        "25c7e43f225203ab65896bdaedda131cb9c3013e5c3f7b6eec2e83a4b2ba9928",
    "library60/mutated/blocks":
        "4c334877a489b4c7698986bf0fdfb92aa0e9ff2559e23dcda8c3d994ce140d54",
    "library60/mutated/image":
        "397136ed589efa1ab8ba35e62616208d1a06c9036a65ae3364b211a38157a2a3",
    "library60/mutated/wal":
        "c43746e8be9c8788a4f42aca19a572ce5eebc782fbcb09a3fa56db0ca9897c53",
    "shelf+idx/load/blocks":
        "e502ecf14e9d37ebfe1cfac6be7739833b6ae9b9543afd45f0502741ca68864a",
    "shelf+idx/load/image":
        "5139e943f4f8567373ce2087c04a6bedca9963e9089274b8026e535344145513",
    "shelf+idx/mutated/blocks":
        "1300291cb0c59ab2520bc082bdd0eafaff3dd13195a51ec7687d6445c654b6e8",
    "shelf+idx/mutated/image":
        "c0a40558ce511f251550a55e568057dd6719005a98bf6595d501dba08cb2f5bb",
    "shelf+idx/mutated/wal":
        "7ba8375876f09f2aa7ffa9101b745b6b94d36e5eb225002f0904cb704ccf48e5",
    "shelf/load/blocks":
        "e502ecf14e9d37ebfe1cfac6be7739833b6ae9b9543afd45f0502741ca68864a",
    "shelf/load/image":
        "fa6d1559dc050888fd4656126750d5dfb5a5c42aec5eb893f618ec9f19d99877",
    "shelf/mutated/blocks":
        "1300291cb0c59ab2520bc082bdd0eafaff3dd13195a51ec7687d6445c654b6e8",
    "shelf/mutated/image":
        "179bfa37026795d5f0a6e6526224cc6ae412f0301dd0ab3ac9fb9d2846de5c32",
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

    def test_a_label_without_components_is_corruption(self):
        for read in (Reader.nid, Reader.nid_bytes):
            with pytest.raises(CorruptionError, match="components") \
                    as info:
                read(Reader(b"\x00\x00\x01\x00", backend="sqlite"))
            assert info.value.as_dict() == {"backend": "sqlite",
                                            "location": "byte 0"}


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
    return list(_decode_block(Reader(
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


@functools.lru_cache(maxsize=None)
def _fuzz_inputs(mutated: bool) -> dict:
    """One small artifact per decoder: ``name -> (bytes, decoder,
    backend, may a damaged input decode?)``.  A payload has no
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
    return {
        "image": (image, _decode_image, "memory", False),
        "image-resigned": (image, _decode_resigned_image, "memory",
                           True),
        "block": (_encode_block(block), _decode_block_payload,
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
                                      "wal-payload", "wal-frame"])
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
    def _image_ids(engine):
        """``id(descriptor)`` → its index in the image's records."""
        return {id(descriptor): index for index, descriptor
                in enumerate(engine.iter_document_order())}

    def _assert_refused(self, load, backend):
        error = _outcome_within(load)
        assert isinstance(error, CorruptionError), error
        assert error.backend == backend and error.location, error

    def test_a_sibling_chain_that_loops_in_a_signed_image(self, engine):
        order = self._image_ids(engine)
        books = self._books(engine)
        last = books[-1]
        image = dumps_engine(engine)

        def links(right):
            record = bytearray()
            pack_nid(record, last.nid)
            return bytes(record) + _LINKS.pack(
                order[id(last.parent)], order[id(last.left_sibling)],
                right, False)

        assert image.count(links(_NONE)) == 1
        looped = _resign(image.replace(links(_NONE),
                                       links(order[id(books[0])])))
        self._assert_refused(
            lambda: load_engine(looped, backend="memory"), "memory")

    def test_an_in_block_chain_that_loops_in_a_signed_image(self,
                                                            engine):
        """A descriptor listed in two blocks: the second listing
        re-points its short pointer, and the first block's chain walk
        then never leaves it."""
        order = self._image_ids(engine)
        first, second = ([order[id(d)] for d in block.iter_in_order()]
                         for block in self._books(engine)[0]
                         .schema_node.blocks())
        image = dumps_engine(engine)
        members = struct.pack("<3I", 2, *second)
        assert image.count(members) == 1
        looped = _resign(image.replace(
            members, struct.pack("<3I", 2, first[1], second[1])))
        self._assert_refused(
            lambda: load_engine(looped, backend="memory"), "memory")

    def test_a_sibling_chain_that_loops_in_sqlite_rows(self, tmp_path,
                                                       engine):
        backend = SqliteBackend(tmp_path / "store.db")
        info = backend.checkpoint(engine)
        books = self._books(engine)
        books[-1].right_sibling = books[0]
        block = books[-1].block
        backend._conn.execute(
            "UPDATE block_rows SET payload = ? WHERE block_id = ?",
            (_encode_block(block), block.block_id))
        backend.close()

        def restore():  # a connection belongs to the thread it opens in
            reopened = SqliteBackend(tmp_path / "store.db")
            try:
                return reopened.restore(info.version)
            finally:
                reopened.close()

        self._assert_refused(restore, "sqlite")


# ----------------------------------------------------------------------
# (e) Block fill order.

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
