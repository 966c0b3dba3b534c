"""Binary persistence of the storage engine, block by block.

Sedna is a disk-based system; this module gives the simulated engine
the corresponding capability with the §9.2 block as the unit of
encoding, and it is the only module that encodes or decodes durable
engine state.  :func:`encode_block` / :func:`decode_block` are the one
descriptor codec of every durable medium and :func:`load_blocks` the
one payload → engine builder; :func:`dumps_engine` assembles payloads
into a binary image and :func:`load_engine` reconstructs an equivalent
engine from it; :func:`dumps_manifest` / :func:`load_manifest` do the
same for a SQLite snapshot row, whose payloads live in rows of their
own.  A label is stored as its own bytes, so document order, ancestry
and future gap insertions survive a round trip.

A block payload: descriptor count (u32), then per descriptor, in
in-block chain order, its nid (:func:`repro.storage.codec.pack_nid`:
byte length u16, then the label's big-endian symbols), the parent /
left / right links as optional nids (u8 flag, label) and the optional
value (u8 flag, length-prefixed UTF-8).  A record's nid must be a
label over the header's base; a link must be some record's nid.  A
payload depends on nothing outside its block, so :func:`block_payload`
remembers it in the engine's payload memo until a write reaches the
block; the memo is the only record of what changed since a
checkpoint.

Image format (little-endian, fixed-width, labels aside), magic
``SEDNAPY6``::

* header: magic, base (u16), block capacity (u16), checkpoint LSN
  (u64) — the WAL horizon this image covers;
* index definitions: count (u32), then per declared secondary index
  its path, kind (``value``: any other is refused) and value type
  (length-prefixed UTF-8) — contents are derived state, rebuilt from
  the block lists on load;
* schema nodes in pre-order: parent index (u32), type tag (u8),
  name URI and local (length-prefixed UTF-8, only for named kinds);
* per schema node, same order: block count (u32), then per block of
  its chain the payload length (u32) and the payload;
* statistics digest: the canonical JSON of
  :meth:`~repro.obs.statistics.StatisticsCollector.export`
  (length-prefixed UTF-8).  Loads always *recount* from the decoded
  block lists; the digest is a corruption check against the recount;
* trailer: CRC32 (u32) of every preceding byte, header included.

A snapshot manifest is the same bytes under the magic ``SEDNAMF1``,
except that a block is the reference to the row holding its payload,
block id (u32) and generation (u32), in place of the inline payload.

These are the only formats read: an image under an older magic
(``SEDNAPY1`` to ``SEDNAPY5``, whose labels were component lists) and
a manifest written as JSON (before ``SEDNAMF1``) are refused by name.
Any truncated or garbled input surfaces as :class:`CorruptionError`
with the byte offset of the damage — never a raw ``struct.error``.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Iterable, Iterator, Optional

from repro import obs
from repro.errors import CorruptionError, ReproError, StorageError
from repro.obs.statistics import StatisticsCollector
from repro.storage.blocks import Block
from repro.storage.codec import Reader, Writer, pack_nid, pack_text
from repro.storage.descriptor import NodeDescriptor
from repro.storage.dschema import SchemaNode
from repro.storage.engine import StorageEngine
from repro.storage.indexes import IndexDefinition, decode_definition
from repro.storage.labels import MAX_BASE

_MAGIC = b"SEDNAPY6"
#: The head of a SQLite snapshot row: the image with row references.
_MANIFEST_MAGIC = b"SEDNAMF1"
_NONE = 0xFFFFFFFF

_TYPE_TAGS = {"document": 0, "element": 1, "attribute": 2, "text": 3}
_TAG_TYPES = {tag: name for name, tag in _TYPE_TAGS.items()}

_HEADER = struct.Struct("<HHQ")       # base, block capacity, LSN
_SCHEMA_HEAD = struct.Struct("<IB")   # parent index, type tag
_REFERENCE = struct.Struct("<II")     # block id, row generation

_ENCODED = obs.REGISTRY.counter("checkpoint.blocks.encoded")
_REUSED = obs.REGISTRY.counter("checkpoint.blocks.reused")


def encode_block(block: Block) -> bytes:
    """The binary payload of one block (module docstring)."""
    ordered: list[NodeDescriptor] = []
    block.extend_in_order(ordered)
    out = bytearray(struct.pack("<I", len(ordered)))
    for descriptor in ordered:
        pack_nid(out, descriptor.nid)
        for link in (descriptor.parent, descriptor.left_sibling,
                     descriptor.right_sibling):
            if link is None:
                out += b"\0"
            else:
                out += b"\1"
                pack_nid(out, link.nid)
        if descriptor.value is None:
            out += b"\0"
        else:
            out += b"\1"
            pack_text(out, descriptor.value)
    return bytes(out)


def decode_block(reader: Reader, base: int = MAX_BASE) -> Iterator[tuple]:
    """The records of one block payload: per descriptor where its
    record starts, its label (digits below *base*), the parent / left /
    right links as label bytes (None = no link) and the value.  Links
    are only ever looked up, and equal bytes are equal labels."""
    u8, nid, link = reader.u8, reader.nid, reader.link
    for _ in range(reader.u32()):
        yield (reader.pos, nid(base), link(), link(), link(),
               reader.text() if u8() else None)


def block_payload(engine: StorageEngine, block: Block) -> bytes:
    """*block*'s payload, encoded only if a write reached the block
    since it was last encoded (the engine's payload memo)."""
    memo = engine.payloads
    payload = memo.get(block.block_id)
    if payload is None:
        payload = memo[block.block_id] = encode_block(block)
        _ENCODED.inc()
    else:
        _REUSED.inc()
    return payload


def _dump(engine: StorageEngine, checkpoint_lsn: int, magic: bytes,
          put_block: Callable[[Writer, Block], None]) -> bytes:
    """The head every durable form shares, with *put_block* writing
    each block's section (module docstring)."""
    if engine.document is None:
        raise StorageError("cannot dump an empty engine")
    writer = Writer()
    writer.out += magic
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

    for node in schema_nodes:
        blocks = list(node.blocks())
        writer.u32(len(blocks))
        for block in blocks:
            put_block(writer, block)

    writer.text(json.dumps(engine.stats.export(),
                           separators=(",", ":"), sort_keys=True))
    writer.trailer()
    return bytes(writer.out)


def dumps_engine(engine: StorageEngine, checkpoint_lsn: int = 0) -> bytes:
    """Serialize *engine* to a bytes image.

    *checkpoint_lsn* is the WAL horizon the image covers — recovery
    replays only log records strictly beyond it.
    """
    def inline(writer: Writer, block: Block) -> None:
        payload = block_payload(engine, block)
        writer.u32(len(payload))
        writer.out += payload

    return _dump(engine, checkpoint_lsn, _MAGIC, inline)


def dumps_manifest(engine: StorageEngine, checkpoint_lsn: int,
                   generation: Callable[[Block], int]) -> bytes:
    """*engine*'s head as a snapshot manifest: each block is the
    reference ``(block id, generation(block))`` to the row holding its
    payload."""
    return _dump(engine, checkpoint_lsn, _MANIFEST_MAGIC,
                 lambda writer, block: writer.pack(
                     _REFERENCE, block.block_id, generation(block)))


#: Formats no longer read, by their first bytes, and what to do.
_RETIRED_IMAGES = {
    b"SEDNAPY%d" % n: f"storage image format SEDNAPY{n} is no longer "
    "read: SEDNAPY1 to SEDNAPY5 images must be re-checkpointed as "
    + _MAGIC.decode() for n in range(1, 6)}
_RETIRED_MANIFESTS = {
    b"{": "snapshot manifest is JSON, a format no longer read: SQLite "
    f"stores written before the binary {_MANIFEST_MAGIC.decode()} "
    "manifest must be re-checkpointed"}


def _signed(data: bytes, magic: bytes, retired: dict[bytes, str],
            backend: str, head: str, trailer: str, place, what: str
            ) -> Reader:
    """A reader past *magic* over *data* less its CRC trailer, once
    both check out; a wrong magic is refused at *head* (by name when
    *retired* knows it), a failing CRC at *trailer*."""
    if not data.startswith(magic):
        message = next((message for prefix, message in retired.items()
                        if data.startswith(prefix)),
                       f"not a {what} (bad magic)")
        raise CorruptionError(message, backend=backend, location=head)
    if len(data) < len(magic) + 4:
        raise CorruptionError(
            f"truncated {what} (no room for the CRC trailer)",
            backend=backend, location=trailer)
    (expected,) = struct.unpack_from("<I", data, len(data) - 4)
    actual = zlib.crc32(memoryview(data)[:-4])
    if actual != expected:
        raise CorruptionError(
            f"{what} CRC mismatch: trailer says {expected:#010x}, "
            f"content hashes to {actual:#010x} (torn or corrupted "
            f"{what})", backend=backend, location=trailer)
    reader = Reader(data[:-4], backend=backend, place=place, what=what)
    reader._take(len(magic))
    return reader


def _parsed(reader: Reader, parse: Callable[[Reader], object]):
    """``parse(reader)``, with whatever the engine or the decoder
    raises on damaged input turned into a located
    :class:`CorruptionError`."""
    try:
        return parse(reader)
    except CorruptionError:
        raise
    except (ReproError, struct.error, ValueError, IndexError,
            OverflowError, MemoryError) as error:
        # Signed bytes the engine refuses — a full block overfilled,
        # an invariant broken, an index that no longer resolves.
        raise reader.corrupt(
            f"corrupt {reader.what} at {reader.location()}: "
            f"{error}") from error


def load_engine(data: bytes, backend: str = "file",
                place=None) -> StorageEngine:
    """Reconstruct an engine from a binary image.

    *backend* and *place* label corruption errors with the medium the
    bytes came from (see :class:`repro.storage.codec.Reader`).
    """
    def inline(reader: Reader) -> tuple:
        length = reader.u32()
        return None, reader, reader.pos + length

    reader = _signed(data, _MAGIC, _RETIRED_IMAGES, backend,
                     head="byte 0", trailer="trailer", place=place,
                     what="storage image")
    return _parsed(reader, lambda reader: _parse(reader, inline))


def _manifest(data: bytes, backend: str, where: str) -> Reader:
    return _signed(data, _MANIFEST_MAGIC, _RETIRED_MANIFESTS, backend,
                   head=where, trailer=f"{where} trailer",
                   place=lambda pos: f"{where} byte {pos}",
                   what="snapshot manifest")


def load_manifest(data: bytes, row: Callable[[int, int], Optional[bytes]],
                  backend: str, where: str) -> StorageEngine:
    """Reconstruct an engine from a snapshot manifest whose referenced
    payloads ``row(block_id, generation)`` returns (None: no such
    row).  *where* locates the manifest in its medium; its bytes are
    ``{where} byte N``, a row's ``block B gen G byte N``."""
    def fetch(reader: Reader) -> tuple:
        start = reader.pos
        block_id, gen = reader.unpack(_REFERENCE)
        payload = row(block_id, gen)
        if payload is None:
            raise reader.corrupt(
                f"missing block row (block {block_id} gen {gen})",
                pos=start)
        return block_id, Reader(
            payload, backend=backend,
            place=lambda pos: f"block {block_id} gen {gen} byte {pos}",
            what="block payload"), len(payload)

    return _parsed(_manifest(data, backend, where),
                   lambda reader: _parse(reader, fetch))


def manifest_chains(data: bytes, backend: str,
                    where: str) -> list[list[tuple[int, int]]]:
    """The row references of a snapshot manifest: per schema node, in
    pre-order, its chain's ``(block_id, generation)`` pairs."""
    def references(reader: Reader) -> list[list[tuple[int, int]]]:
        _, _, schema_nodes = _parse_head(reader)
        chains = [[reader.unpack(_REFERENCE)
                   for _ in range(reader.u32())]
                  for _ in schema_nodes]
        _parse_digest(reader)
        return chains

    return _parsed(_manifest(data, backend, where), references)


def _parse_head(reader: Reader) -> tuple[StorageEngine,
                                         list[IndexDefinition],
                                         list[SchemaNode]]:
    """Header, index definitions and schema tree: an engine with the
    schema built and no blocks yet."""
    base, capacity, checkpoint_lsn = reader.unpack(_HEADER)
    engine = StorageEngine(base=base, block_capacity=capacity)
    engine.checkpoint_lsn = checkpoint_lsn

    definitions = [decode_definition(reader.text(), reader.text(),
                                     reader.text())
                   for _ in range(reader.u32())]

    schema_count = reader.u32()
    schema_nodes: list[SchemaNode] = []
    for index in range(schema_count):
        start = reader.pos
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
                f"at {reader.location(start)}", pos=start)
        parent = schema_nodes[parent_index]
        child = engine.schema.get_or_add_child(parent, name, node_type)
        schema_nodes.append(child)
    return engine, definitions, schema_nodes


def _parse_digest(reader: Reader) -> dict:
    """The statistics digest, the last field before the trailer."""
    digest = reader.text()
    if not reader.at_end():
        raise reader.corrupt(
            f"trailing bytes in {reader.what} after {reader.location()}")
    return json.loads(digest)


def _parse(reader: Reader, block: Callable[[Reader], tuple]
           ) -> StorageEngine:
    """The engine an image or a manifest describes; ``block(reader)``
    reads one block's section and returns ``(block_id, payload reader,
    payload end)``."""
    engine, definitions, schema_nodes = _parse_head(reader)

    def payloads():
        for schema_node in schema_nodes:
            for _ in range(reader.u32()):
                yield (schema_node, *block(reader))

    descriptors = load_blocks(engine, payloads())
    finish_load(engine, descriptors, definitions, _parse_digest(reader),
                reader.corrupt)
    return engine


def load_blocks(engine: StorageEngine,
                payloads: Iterable[tuple]) -> list[NodeDescriptor]:
    """Fill *engine*'s block chains from stored payloads — the one
    builder under both durable media; returns every decoded
    descriptor, the document node first.

    *payloads* yields ``(schema_node, block_id, reader, end)`` per
    block, schema nodes in pre-order, a node's blocks in chain order:
    *reader* stands at the payload and must stand at *end* after its
    records; *block_id* is the stored id (None: the medium keeps
    none).  Links are resolved last, by label."""
    capacity = engine.block_capacity
    base = engine.numbering.base
    by_nid: dict[Optional[bytes], Optional[NodeDescriptor]] = {}
    records: list[tuple] = []
    max_block_id = -1
    for schema_node, block_id, reader, end in payloads:
        block = Block(schema_node, capacity)
        if block_id is not None:
            block.block_id = block_id
            max_block_id = max(max_block_id, block_id)
        schema_node.append_block(block)
        last: Optional[NodeDescriptor] = None
        for start, nid, parent, left, right, value in \
                decode_block(reader, base):
            if nid in by_nid:
                raise reader.corrupt(
                    f"label {nid!r} at {reader.location(start)} is "
                    "already carried by another descriptor", pos=start)
            descriptor = NodeDescriptor(schema_node, nid, value=value)
            block.insert_after(descriptor, last)
            last = descriptor
            by_nid[nid] = descriptor
            records.append((descriptor, parent, left, right, reader,
                            start))
        schema_node.descriptor_count += block.count
        if reader.pos != end:
            raise reader.corrupt(
                f"block payload ends at {reader.location()}, not at "
                f"{reader.location(end)} as its length says")
    # Stored block ids survive the round trip; keep the global
    # allocator past them so future splits never collide.
    if max_block_id >= Block._next_id:
        Block._next_id = max_block_id + 1

    by_nid[None] = None  # an absent link resolves to no descriptor
    try:
        for descriptor, parent, left, right, reader, start in records:
            descriptor.parent = by_nid[parent]
            descriptor.left_sibling = by_nid[left]
            descriptor.right_sibling = by_nid[right]
    except KeyError as missing:
        raise reader.corrupt(
            f"descriptor {descriptor.nid!r} at {reader.location(start)} "
            "links to a label no descriptor carries, "
            f"0x{missing.args[0].hex()}", pos=start) from None
    return [record[0] for record in records]


def finish_load(engine: StorageEngine,
                descriptors: list[NodeDescriptor],
                definitions: list[IndexDefinition],
                stats: dict,
                corrupt: Callable[[str], CorruptionError]) -> None:
    """The tail every loader shares, once descriptors, links and
    blocks are decoded.  *descriptors* holds every decoded descriptor,
    the document node first; *stats* is the persisted statistics
    digest; *corrupt* builds the loader's located error for a
    message."""
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
        if current is None or descriptor.nid < current.nid:
            parent.children_by_schema[index] = descriptor
    engine.check_invariants()

    # Decoding bypassed the mutation hooks, so the statistics are
    # rebuilt from the decoded block lists; a persisted digest must
    # agree with the recount (corruption check).
    # Plans priced under the old collector are stale: bump the epoch.
    engine.stats = StatisticsCollector.recount(engine)
    engine.stats.engine = engine
    engine.plan_epoch += 1
    if stats != engine.stats.export():
        raise corrupt("persisted statistics digest does not match the "
                      "recount of the stored data")

    # Re-install the declared indexes last: their contents are derived
    # state, rebuilt here by one block-list scan per index.
    for definition in definitions:
        engine.indexes.install(definition)
