"""Binary persistence of the storage engine.

Sedna is a disk-based system; this module gives the simulated engine
the corresponding capability: :func:`dumps_engine` serializes the whole
Section 9 state — descriptive schema, numbering labels, descriptors,
and the block assignment with its in-block order chains — into a
compact binary image, and :func:`load_engine` reconstructs an
equivalent engine from it.  Labels are stored digit-exactly, so
document order, ancestry and future gap insertions behave identically
after a round trip.

Format (little-endian, fixed-width), magic ``SEDNAPY4``::

* header: magic, base (u16), block capacity (u16), checkpoint LSN
  (u64) — the WAL horizon this image covers;
* index definitions: count (u32), then per declared secondary index
  its path, kind and value type (length-prefixed UTF-8).  Only the
  *definitions* persist — index contents are derived state, rebuilt
  from the block lists on load;
* schema nodes in pre-order: parent index (u32), type tag (u8),
  name URI and local (length-prefixed UTF-8, only for named kinds);
* descriptors in document order, one record each: schema node index
  (u32), the nid (:func:`repro.storage.codec.u16_run`), then parent
  and sibling ids and the value flag as one fixed head (3 × u32,
  ``0xFFFFFFFF`` = none, u8), then the optional text value;
* per schema node: its blocks as lists of descriptor ids in in-block
  chain (document) order;
* statistics digest: the canonical JSON of
  :meth:`~repro.obs.statistics.StatisticsCollector.export`
  (length-prefixed UTF-8) — per-schema-node descriptor counts, byte
  sizing and value ranges.  Loads always *recount* from the decoded
  block lists (decoding bypasses the mutation hooks); the persisted
  digest is a corruption check against that recount;
* trailer: CRC32 (u32) of every preceding byte, header included.

This is the only format read: an image under an older magic is
refused by name.  Any truncated or garbled input surfaces as
:class:`CorruptionError` with the byte offset of the damage — never a
raw ``struct.error``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Optional

from repro.errors import CorruptionError, ReproError, StorageError
from repro.obs.statistics import StatisticsCollector
from repro.storage.blocks import Block
from repro.storage.codec import Reader, Writer
from repro.storage.descriptor import NodeDescriptor
from repro.storage.dschema import SchemaNode
from repro.storage.engine import StorageEngine
from repro.storage.indexes import KINDS, IndexDefinition

_MAGIC = b"SEDNAPY4"
_NONE = 0xFFFFFFFF

_TYPE_TAGS = {"document": 0, "element": 1, "attribute": 2, "text": 3}
_TAG_TYPES = {tag: name for name, tag in _TYPE_TAGS.items()}

_HEADER = struct.Struct("<HHQ")       # base, block capacity, LSN
_SCHEMA_HEAD = struct.Struct("<IB")   # parent index, type tag
_LINKS = struct.Struct("<IIIB")       # parent, left, right, has value


def dumps_engine(engine: StorageEngine, checkpoint_lsn: int = 0) -> bytes:
    """Serialize *engine* to a bytes image.

    *checkpoint_lsn* is the WAL horizon the image covers — recovery
    replays only log records strictly beyond it.
    """
    if engine.document is None:
        raise StorageError("cannot dump an empty engine")
    writer = Writer()
    writer.out += _MAGIC
    writer.pack(_HEADER, engine.numbering.base, engine.block_capacity,
                checkpoint_lsn)

    definitions = engine.indexes.definitions()
    writer.u32(len(definitions))
    for definition in definitions:
        writer.text(definition.path)
        writer.text(definition.kind)
        writer.text(definition.value_type)

    schema_nodes = list(engine.schema.iter_nodes())
    schema_index = {id(node): i for i, node in enumerate(schema_nodes)}
    schema_index[id(None)] = _NONE
    writer.u32(len(schema_nodes))
    for node in schema_nodes:
        writer.pack(_SCHEMA_HEAD, schema_index[id(node.parent)],
                    _TYPE_TAGS[node.node_type])
        if node.name is not None:
            writer.text(node.name.uri)
            writer.text(node.name.local)

    descriptors = list(engine.iter_document_order())
    descriptor_index = {id(d): i for i, d in enumerate(descriptors)}
    descriptor_index[id(None)] = _NONE  # an absent link
    writer.u32(len(descriptors))
    for descriptor in descriptors:
        value = descriptor.value
        writer.u32(schema_index[id(descriptor.schema_node)])
        writer.nid(descriptor.nid)
        writer.pack(_LINKS,
                    descriptor_index[id(descriptor.parent)],
                    descriptor_index[id(descriptor.left_sibling)],
                    descriptor_index[id(descriptor.right_sibling)],
                    value is not None)
        if value is not None:
            writer.text(value)

    for node in schema_nodes:
        blocks = list(node.blocks())
        writer.u32(len(blocks))
        for block in blocks:
            ordered: list[NodeDescriptor] = []
            block.extend_in_order(ordered)
            writer.out += struct.pack(
                f"<{len(ordered) + 1}I", len(ordered),
                *[descriptor_index[id(d)] for d in ordered])

    writer.text(json.dumps(engine.stats.export(),
                           separators=(",", ":"), sort_keys=True))
    writer.trailer()
    return bytes(writer.out)


def load_engine(data: bytes, backend: str = "file",
                place=None) -> StorageEngine:
    """Reconstruct an engine from a binary image.

    *backend* and *place* label corruption errors with the medium the
    bytes came from (see :class:`repro.storage.codec.Reader`).
    """
    magic_len = len(_MAGIC)
    if len(data) < magic_len:
        raise CorruptionError(
            "not a storage image (shorter than the magic)",
            backend=backend, location="byte 0")
    magic = data[:magic_len]
    if magic != _MAGIC:
        if magic[:-1] == _MAGIC[:-1] and magic[-1:] in b"123":
            raise CorruptionError(
                f"storage image format {magic.decode('latin-1')} is no "
                "longer read: SEDNAPY1 to SEDNAPY3 images must be "
                f"re-checkpointed as {_MAGIC.decode()}",
                backend=backend, location="byte 0")
        raise CorruptionError("not a storage image (bad magic)",
                              backend=backend, location="byte 0")
    if len(data) < magic_len + 4:
        raise CorruptionError(
            "truncated storage image (no room for the CRC trailer)",
            backend=backend, location="trailer")
    (expected,) = struct.unpack_from("<I", data, len(data) - 4)
    actual = zlib.crc32(memoryview(data)[:-4])
    if actual != expected:
        raise CorruptionError(
            f"storage image CRC mismatch: trailer says "
            f"{expected:#010x}, content hashes to {actual:#010x} "
            "(torn or corrupted image)",
            backend=backend, location="trailer")

    reader = Reader(data[:-4], backend=backend, place=place)
    reader._take(magic_len)
    try:
        return _parse_image(reader)
    except CorruptionError:
        raise
    except (ReproError, struct.error, ValueError, IndexError,
            OverflowError, MemoryError) as error:
        # Signed bytes the engine refuses — a full block overfilled,
        # an invariant broken, an index that no longer resolves.
        raise reader.corrupt(
            f"corrupt storage image at {reader.location()}: "
            f"{error}") from error


def _parse_image(reader: Reader) -> StorageEngine:
    base, capacity, checkpoint_lsn = reader.unpack(_HEADER)
    engine = StorageEngine(base=base, block_capacity=capacity)
    engine.checkpoint_lsn = checkpoint_lsn

    definitions: list[IndexDefinition] = []
    for _ in range(reader.u32()):
        definition = IndexDefinition(reader.text(), reader.text(),
                                     reader.text())
        if definition.kind not in KINDS:
            raise reader.corrupt(
                f"unknown index kind {definition.kind!r} in storage "
                f"image before {reader.location()}")
        definitions.append(definition)

    schema_count = reader.u32()
    schema_nodes: list[SchemaNode] = []
    for index in range(schema_count):
        parent_index, tag = reader.unpack(_SCHEMA_HEAD)
        node_type = _TAG_TYPES.get(tag)
        if node_type is None:
            raise reader.corrupt(
                f"unknown schema node type tag at {reader.location()}")
        name = reader.qname() \
            if node_type in ("element", "attribute") else None
        if parent_index == _NONE:
            if index != 0 or node_type != "document":
                raise reader.corrupt(
                    f"malformed schema tree at {reader.location()}")
            schema_nodes.append(engine.schema.root)
            continue
        if parent_index >= len(schema_nodes):
            raise reader.corrupt(
                f"schema parent index {parent_index} out of range "
                f"at {reader.location()}")
        parent = schema_nodes[parent_index]
        child = engine.schema.get_or_add_child(parent, name, node_type)
        schema_nodes.append(child)

    descriptor_count = reader.u32()
    descriptors: list[NodeDescriptor] = []
    links: list[tuple[int, int, int]] = []
    for _ in range(descriptor_count):
        schema_ref = reader.u32()
        if schema_ref >= len(schema_nodes):
            raise reader.corrupt(
                f"descriptor schema index {schema_ref} out of range "
                f"at {reader.location()}")
        nid = reader.nid()
        head = reader.unpack(_LINKS)
        for slot in (0, 1, 2):
            link_id = head[slot]
            if link_id >= descriptor_count and link_id != _NONE:
                where = reader.pos - _LINKS.size + 4 * slot
                raise reader.corrupt(
                    f"descriptor link {link_id} out of range at "
                    f"{reader.location(where)}", pos=where)
        descriptors.append(NodeDescriptor(
            schema_nodes[schema_ref], nid,
            value=reader.text() if head[3] else None))
        links.append(head)

    for descriptor, (parent_id, left_id, right_id, _) in zip(descriptors,
                                                             links):
        if parent_id != _NONE:
            descriptor.parent = descriptors[parent_id]
        if left_id != _NONE:
            descriptor.left_sibling = descriptors[left_id]
        if right_id != _NONE:
            descriptor.right_sibling = descriptors[right_id]

    for schema_node in schema_nodes:
        previous: Block | None = None
        for _b in range(reader.u32()):
            block = Block(schema_node, capacity)
            if previous is None:
                schema_node.first_block = block
            else:
                previous.next_block = block
                block.prev_block = previous
            schema_node.last_block = block
            previous = block
            members = reader.unpack(
                struct.Struct(f"<{reader.u32()}I"))
            last: NodeDescriptor | None = None
            for offset, member_id in enumerate(members, start=1):
                if member_id >= descriptor_count:
                    where = reader.pos - 4 * (len(members) - offset)
                    raise reader.corrupt(
                        f"block member {member_id} out of range "
                        f"at {reader.location(where)}", pos=where)
                descriptor = descriptors[member_id]
                block.insert_after(descriptor, last)
                last = descriptor
            schema_node.descriptor_count += len(members)

    stats_digest = reader.text()
    if not reader.at_end():
        raise reader.corrupt(
            f"trailing bytes in storage image after {reader.location()}")
    finish_load(engine, descriptors, definitions,
                json.loads(stats_digest), reader.corrupt)
    return engine


def finish_load(engine: StorageEngine,
                descriptors: list[NodeDescriptor],
                definitions: list[IndexDefinition],
                stats: Optional[dict],
                corrupt: Callable[[str], CorruptionError]) -> None:
    """The tail every loader shares, once descriptors, links and
    blocks are decoded.  *descriptors* holds every decoded descriptor,
    the document node first; *stats* is the persisted statistics
    digest (None: a SQLite manifest from before there was one);
    *corrupt* builds the loader's located error for a message."""
    if not descriptors or descriptors[0].node_type != "document":
        raise corrupt("the stored data holds no document node")
    engine.document = descriptors[0]

    # Rebuild the first-child-by-schema pointers from the links.
    for descriptor in descriptors:
        parent = descriptor.parent
        if parent is None:
            continue
        index = parent.schema_node.child_index(descriptor.schema_node)
        current = parent.children_by_schema.get(index)
        if current is None or descriptor.nid.symbols() < \
                current.nid.symbols():
            parent.children_by_schema[index] = descriptor
    engine.check_invariants()

    # Decoding bypassed the mutation hooks, so the statistics are
    # rebuilt from the decoded block lists; a persisted digest must
    # agree with the recount (corruption check).
    # The new collector counts its epoch from zero again: the bump
    # keeps the engine's plan epoch from ever naming two states.
    engine.stats = StatisticsCollector.recount(engine)
    engine.stats.engine = engine
    engine.plan_epoch += 1
    if stats is not None and stats != engine.stats.export():
        raise corrupt("persisted statistics digest does not match the "
                      "recount of the stored data")

    # Re-install the declared indexes last: their contents are derived
    # state, rebuilt here by one block-list scan per index.
    for definition in definitions:
        engine.indexes.install(definition)
