"""Tests for binary persistence of the storage engine."""

import struct
import zlib

import pytest

from repro.errors import CorruptionError, StorageError
from repro.storage import StorageEngine
from repro.storage.codec import pack_nid
from repro.storage.persist import dumps_engine, encode_block, load_engine
from repro.xmlio import QName, parse_document
from repro.workloads import make_library_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT


def _engine(document=None, **kwargs) -> StorageEngine:
    engine = StorageEngine(**kwargs)
    engine.load_document(document
                         or parse_document(EXAMPLE_8_DOCUMENT))
    return engine


def _snapshot(engine: StorageEngine) -> list[tuple]:
    return [(d.schema_node.path, d.nid.components, d.value)
            for d in engine.iter_document_order()]


class TestRoundTrip:
    def test_descriptive_schema_preserved(self):
        original = _engine()
        restored = load_engine(dumps_engine(original))
        assert restored.schema.paths() == original.schema.paths()

    def test_document_order_and_labels_preserved(self):
        original = _engine()
        restored = load_engine(dumps_engine(original))
        assert _snapshot(restored) == _snapshot(original)

    def test_invariants_hold_after_load(self):
        restored = load_engine(dumps_engine(_engine(block_capacity=4)))
        restored.check_invariants()

    def test_string_values_preserved(self):
        original = _engine()
        restored = load_engine(dumps_engine(original))
        root_a = original.children(original.document)[0]
        root_b = restored.children(restored.document)[0]
        assert original.string_value(root_a) == \
            restored.string_value(root_b)

    def test_block_layout_preserved(self):
        original = _engine(make_library_document(50, 50, seed=1),
                           block_capacity=8)
        restored = load_engine(dumps_engine(original))
        assert restored.blocks_per_schema_node() == \
            original.blocks_per_schema_node()

    def test_configuration_preserved(self):
        original = _engine(base=16, block_capacity=4)
        restored = load_engine(dumps_engine(original))
        assert restored.numbering.base == 16
        assert restored.block_capacity == 4

    def test_attributes_survive(self):
        engine = StorageEngine()
        engine.load_document(parse_document('<a x="1" y="2">t</a>'))
        restored = load_engine(dumps_engine(engine))
        a = restored.children(restored.document)[0]
        assert [(restored.node_name(d).local, d.value)
                for d in restored.attributes(a)] == \
            [("x", "1"), ("y", "2")]


class TestUpdatesAfterLoad:
    def test_insert_into_restored_engine(self):
        restored = load_engine(dumps_engine(_engine()))
        library = restored.children(restored.document)[0]
        restored.insert_child(library, 1, name=QName("", "book"))
        restored.check_invariants()
        assert restored.relabel_count == 0

    def test_gap_insertion_between_restored_labels(self):
        """The restored labels keep their density: a mid insertion
        lands between the originals without touching them."""
        from repro.storage import before
        restored = load_engine(dumps_engine(_engine()))
        library = restored.children(restored.document)[0]
        children = restored.children(library)
        inserted = restored.insert_child(library, 1,
                                         name=QName("", "book"))
        assert before(children[0].nid, inserted.nid)
        assert before(inserted.nid, children[1].nid)

    def test_delete_from_restored_engine(self):
        restored = load_engine(dumps_engine(_engine()))
        library = restored.children(restored.document)[0]
        first = restored.children(library)[0]
        restored.delete_subtree(first)
        restored.check_invariants()


class TestErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            load_engine(b"NOTMAGIC" + b"\x00" * 32)

    def test_truncated_image_rejected(self):
        image = dumps_engine(_engine())
        with pytest.raises(StorageError):
            load_engine(image[:len(image) // 2])

    def test_trailing_bytes_rejected(self):
        image = dumps_engine(_engine())
        with pytest.raises(StorageError):
            load_engine(image + b"\x00")

    def test_empty_engine_rejected(self):
        with pytest.raises(StorageError):
            dumps_engine(StorageEngine())


def _resigned(image: bytearray) -> bytes:
    """*image* with a CRC trailer that matches its damaged body, so
    the parser — not the CRC gate — meets the damage."""
    body = bytes(image[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _wire(nid) -> bytes:
    out = bytearray()
    pack_nid(out, nid)
    return bytes(out)


def _section(block) -> bytes:
    """*block* as the image holds it: payload length, payload."""
    payload = encode_block(block)
    return struct.pack("<I", len(payload)) + payload


class TestDamagePastTheCrcIsLocated:
    """What the parser itself refuses is a corruption error with the
    byte offset, like a short read — not a bare StorageError."""

    def _refused(self, image: bytearray, match: str) -> int:
        with pytest.raises(CorruptionError, match=match) as info:
            load_engine(_resigned(image), backend="memory")
        assert info.value.backend == "memory"
        kind, _, offset = info.value.location.partition(" ")
        assert kind == "byte"
        assert 0 < int(offset) <= len(image) - 4
        return int(offset)

    def test_malformed_schema_tree(self):
        image = bytearray(dumps_engine(_engine()))
        # magic, header, no index definitions, schema count, the root
        # schema node (parent, tag): the second node's parent follows.
        second_parent = 8 + 12 + 4 + 4 + 5
        assert image[second_parent:second_parent + 4] == b"\0\0\0\0"
        image[second_parent:second_parent + 4] = b"\xff" * 4
        self._refused(image, "malformed schema tree")

    def test_descriptor_link_out_of_range(self):
        """A link names its target by label: one that no descriptor
        carries is refused where the linking record starts."""
        engine = _engine()
        library = engine.children(engine.document)[0]
        record = _wire(library.nid) + b"\x01" + _wire(engine.document.nid)
        image = bytearray(dumps_engine(engine))
        start = image.index(record)
        image[start + len(record) - 3] ^= 1  # the parent's only digit
        assert self._refused(
            image, "links to a label no descriptor carries") == start

    def test_no_document_node(self):
        """The document schema node without a block, and the library
        element without the parent link that would dangle."""
        engine = _engine()
        library = engine.children(engine.document)[0]
        image = dumps_engine(engine)
        document_blocks = struct.pack("<I", 1) \
            + _section(engine.document.block)
        linked = _section(library.block)
        library.parent = None
        assert image.count(document_blocks) == image.count(linked) == 1
        image = image.replace(document_blocks, struct.pack("<I", 0)) \
            .replace(linked, _section(library.block))
        self._refused(bytearray(image), "no document node")

    def test_unknown_index_kind(self):
        engine = _engine()
        engine.create_index("library/book/title")
        image = bytearray(dumps_engine(engine))
        kind = image.index(b"\x05\0\0\0value")
        image[kind + 8] = ord("x")
        self._refused(image, "unknown index kind 'valux'")

    def test_invalid_name(self):
        image = bytearray(dumps_engine(_engine()))
        name = image.index(b"\x07\0\0\0library")
        image[name + 4] = ord("<")
        self._refused(image, "corrupt name")


class TestScale:
    def test_large_document_roundtrip(self):
        original = _engine(make_library_document(200, 200, seed=3))
        image = dumps_engine(original)
        restored = load_engine(image)
        assert restored.node_count() == original.node_count()
        assert _snapshot(restored) == _snapshot(original)


class TestDumpAfterUpdates:
    def test_updated_engine_roundtrips(self):
        """Dump/load after inserts and splits preserves the mutated
        state, including the gap-allocated labels."""
        engine = _engine(block_capacity=2)
        library = engine.children(engine.document)[0]
        for index in range(6):
            book = engine.insert_child(library, index,
                                       name=QName("", "book"))
            title = engine.insert_child(book, 0, name=QName("", "title"))
            engine.insert_child(title, 0, text=f"inserted {index}")
        engine.check_invariants()
        assert engine.split_count > 0
        restored = load_engine(dumps_engine(engine))
        assert _snapshot(restored) == _snapshot(engine)
        restored.check_invariants()

    def test_dump_after_delete(self):
        engine = _engine()
        library = engine.children(engine.document)[0]
        engine.delete_subtree(engine.children(library)[0])
        restored = load_engine(dumps_engine(engine))
        assert _snapshot(restored) == _snapshot(engine)


class TestImageFormatV2:
    def test_checkpoint_lsn_roundtrips(self):
        engine = _engine()
        restored = load_engine(dumps_engine(engine, checkpoint_lsn=37))
        assert restored.checkpoint_lsn == 37
        assert load_engine(dumps_engine(engine)).checkpoint_lsn == 0

    def test_crc_trailer_detects_corruption(self):
        image = bytearray(dumps_engine(_engine()))
        image[len(image) // 2] ^= 0xFF
        with pytest.raises(StorageError, match="CRC mismatch"):
            load_engine(bytes(image))

    def test_truncation_error_names_the_byte_offset(self):
        image = dumps_engine(_engine())
        # Re-sign the truncated image so the CRC gate passes and the
        # parser itself hits the short read.
        cut = image[:60]
        signed = cut + struct.pack("<I", zlib.crc32(cut))
        with pytest.raises(StorageError, match=r"at byte \d+"):
            load_engine(signed)

    @pytest.mark.parametrize("magic", [b"SEDNAPY1", b"SEDNAPY2",
                                       b"SEDNAPY3", b"SEDNAPY4",
                                       b"SEDNAPY5"])
    def test_old_magic_is_refused_by_name(self, magic):
        """Only the current format is read: an image under a retired
        magic is a located corruption error that names it, whatever
        follows the magic (a valid trailer included)."""
        body = magic + dumps_engine(_engine())[8:-4]
        for image in (body, body + struct.pack("<I", zlib.crc32(body))):
            with pytest.raises(CorruptionError,
                               match=magic.decode()) as info:
                load_engine(image, backend="memory")
            assert info.value.backend == "memory"
            assert info.value.location == "byte 0"

    def test_index_definitions_roundtrip(self):
        original = _engine(make_library_document(5, 0, seed=2))
        original.create_index("library/book/title")
        restored = load_engine(dumps_engine(original))
        assert [d.as_dict() for d in restored.indexes.definitions()] \
            == [d.as_dict() for d in original.indexes.definitions()]
        assert restored.indexes.get("library/book/title").snapshot() \
            == original.indexes.get("library/book/title").snapshot()

    def test_corrupt_text_names_the_byte_offset(self):
        engine = _engine()
        image = bytearray(dumps_engine(engine))
        # Make some stored text undecodable, then re-sign the CRC so
        # only the UTF-8 decode trips.
        position = image.find(b"library")
        assert position > 0
        image[position] = 0xFF
        image[-4:] = struct.pack("<I", zlib.crc32(bytes(image[:-4])))
        with pytest.raises(StorageError, match="at byte"):
            load_engine(bytes(image))
