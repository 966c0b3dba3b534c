"""A binary write-ahead log of logical update records.

Sedna pairs the §9 physical layout with logging and recovery; this
module is the logging half.  Every engine mutation appends one
*logical* record — insert/set-attribute/delete expressed in terms of
numbering labels (nids), which Proposition 1 guarantees are stable —
**before** the in-memory structures change, so a crash at any point
leaves a log that replays to exactly the committed state.

Log layout (little-endian, medium-independent)::

    header:  magic "SEDNAWAL", version u16 (2)
    record:  payload_len u32, crc32(payload) u32, payload
    payload: lsn u64, kind u8, txn u64, body (per kind: ``_BODIES``)

A label travels as its own bytes (:func:`repro.storage.codec.pack_nid`);
a version-1 log, with labels as component lists, is refused by name.

The *medium* is pluggable: :class:`WriteAheadLog` drives a
:class:`WalStore` — :class:`FileWalStore` (one append-only file, the
classic shape), :class:`MemoryWalStore` (hermetic tests), or the
sqlite-rows store of :mod:`repro.storage.backends.sqlite`.  Every
store exposes the log as one byte stream, so the framing, the
torn-tail rule and the scanner below are written once and hold for
all of them.

Record kinds: BEGIN / COMMIT / ABORT frame transactions;
INSERT_ELEMENT / INSERT_TEXT / SET_ATTRIBUTE / DELETE are the logical
updates; CREATE_INDEX / DROP_INDEX log secondary-index DDL (contents
are derived state and never logged); LOAD marks a bulk load whose
nodes bypassed per-op logging (valid only under the very next
checkpoint's horizon); CHECKPOINT marks a log reset after an image
checkpoint.

Torn-tail semantics: :func:`read_wal_store` stops at the first record whose
frame is incomplete or whose CRC32 does not match, reporting the valid
prefix length.  Opening a log for append truncates such a tail first,
so new records are never written behind garbage.

The writer also keeps what it wrote: :attr:`WriteAheadLog.scan` holds
every record since the last reset, each published after its
durability barrier, so between appends it is what
:func:`read_wal_store` reads back from the store.  A crash inside an
append publishes nothing (and the crash model discards the writer).

LSNs are monotone across the life of the log, *including* checkpoint
resets — the checkpoint image stores the LSN it covers, and recovery
replays only records beyond it, which makes the
crash-between-rename-and-log-reset window idempotent.
"""

from __future__ import annotations

import os
import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

from repro import obs
from repro.errors import StorageError
from repro.storage import faults
from repro.storage.codec import Reader, encode_frame, iter_frames, \
    pack_nid, pack_text
from repro.storage.faults import CrashError
from repro.storage.labels import NidLabel
from repro.xmlio.qname import QName

_MAGIC = b"SEDNAWAL"
_VERSION = 2
_HEADER = _MAGIC + struct.pack("<H", _VERSION)
_HEADER_LEN = len(_HEADER)
_RECORD_HEAD = struct.Struct("<QBQ")  # lsn, kind, txn

# Record kinds.
BEGIN = 1
COMMIT = 2
ABORT = 3
INSERT_ELEMENT = 4
INSERT_TEXT = 5
SET_ATTRIBUTE = 6
DELETE = 7
CHECKPOINT = 8
CREATE_INDEX = 9
DROP_INDEX = 10
LOAD = 11

#: The kinds recovery replays (everything else is framing).
OP_KINDS = frozenset({INSERT_ELEMENT, INSERT_TEXT, SET_ATTRIBUTE, DELETE})

#: Index DDL — replayed by recovery like data ops, but handled
#: separately because they mutate definitions, not descriptors.
DDL_KINDS = frozenset({CREATE_INDEX, DROP_INDEX})


class WalRecord(NamedTuple):
    """One log record (fields unused by the kind stay None).

    A tuple, not a frozen dataclass: the writer builds one per append
    to publish (:attr:`WriteAheadLog.scan`) and the scanner one per
    decoded frame, so construction is on the write path.
    """

    lsn: int
    kind: int
    txn: int
    parent_nid: Optional[NidLabel] = None
    nid: Optional[NidLabel] = None
    index: int = 0
    name: Optional[QName] = None
    text: Optional[str] = None
    replace: bool = False
    checkpoint_lsn: int = 0
    #: Index DDL fields (CREATE_INDEX / DROP_INDEX).
    index_path: Optional[str] = None
    index_kind: Optional[str] = None
    value_type: Optional[str] = None
    #: Bulk-load marker (LOAD): nodes loaded outside per-op logging.
    node_count: int = 0


@dataclass
class WalScan:
    """The result of reading a log."""

    records: list[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0

    def committed_txns(self) -> set[int]:
        return {r.txn for r in self.records if r.kind == COMMIT}


# ----------------------------------------------------------------------
# Record bodies: the one statement of what each kind carries.  A field
# codec is ``(append the value to a bytearray, read it off a Reader)``.


def _fixed(layout: struct.Struct):
    pack = layout.pack
    return lambda out, value: out.extend(pack(value))


def _pack_qname(out: bytearray, name: QName) -> None:
    pack_text(out, name.uri)
    pack_text(out, name.local)


_NID = (pack_nid, Reader.nid)
_TEXT = (pack_text, Reader.text)
_QNAME = (_pack_qname, Reader.qname)
_U32 = (_fixed(struct.Struct("<I")), Reader.u32)
_U64 = (_fixed(struct.Struct("<Q")), Reader.u64)
_FLAG = ((lambda out, value: out.append(1 if value else 0)),
         (lambda reader: bool(reader.u8())))

#: kind -> its body: the :class:`WalRecord` fields it fills, in wire
#: order, each with its codec.  ``WriteAheadLog._append`` packs and
#: :func:`_decode_payload` reads through this table and nothing else.
_BODIES = {
    BEGIN: (),
    COMMIT: (),
    ABORT: (),
    INSERT_ELEMENT: (("parent_nid", _NID), ("index", _U32),
                     ("name", _QNAME), ("nid", _NID)),
    INSERT_TEXT: (("parent_nid", _NID), ("index", _U32),
                  ("text", _TEXT), ("nid", _NID)),
    SET_ATTRIBUTE: (("parent_nid", _NID), ("name", _QNAME),
                    ("text", _TEXT), ("replace", _FLAG), ("nid", _NID)),
    DELETE: (("nid", _NID),),
    CHECKPOINT: (("checkpoint_lsn", _U64),),
    CREATE_INDEX: (("index_path", _TEXT), ("index_kind", _TEXT),
                   ("value_type", _TEXT)),
    DROP_INDEX: (("index_path", _TEXT), ("index_kind", _TEXT)),
    LOAD: (("node_count", _U64),),
}

# Both directions, resolved once at import: per kind the packers in
# wire order, and the readers with the positional slot each one fills.
_SLOTS = {name: slot for slot, name in enumerate(WalRecord._fields)}
_BODY_DEFAULTS = tuple(WalRecord._field_defaults[name]
                       for name in WalRecord._fields[3:])
_PACKERS = {kind: tuple(pack for _, (pack, _) in body)
            for kind, body in _BODIES.items()}
_READERS = {kind: tuple((_SLOTS[name], read) for name, (_, read) in body)
            for kind, body in _BODIES.items()}


def _body_picker(slots: tuple[int, ...]):
    """How the writer builds the record it publishes from the values
    it packed: the record's fields after the head, picked out of
    ``body + _BODY_DEFAULTS`` — a field the kind carries from *body*
    (*slots* lists them in wire order), any other its default."""
    return itemgetter(*(slots.index(slot) if slot in slots
                        else len(slots) + slot - 3
                        for slot in range(3, len(WalRecord._fields))))


_PICK_BODY = {kind: _body_picker(tuple(slot for slot, _ in readers))
              for kind, readers in _READERS.items()}


def _decode_payload(payload: bytes, backend: str = "file") -> WalRecord:
    reader = Reader(payload, backend=backend, what="WAL payload")
    head = reader.unpack(_RECORD_HEAD)
    readers = _READERS.get(head[1])
    if readers is None:
        raise reader.corrupt(f"unknown WAL record kind {head[1]} at "
                             f"{reader.location(8)}", pos=8)
    values = [*head, *_BODY_DEFAULTS]
    for slot, read in readers:
        values[slot] = read(reader)
    return WalRecord(*values)


# ----------------------------------------------------------------------
# Pluggable log media.


class WalStore(ABC):
    """Where the log bytes live.

    Every store presents the log as **one byte stream** beginning with
    the "SEDNAWAL" header, whatever rows or buffers hold it underneath
    — that is what lets the framing, torn-tail scan and truncation
    logic live in exactly one place.  ``append`` must make the chunk
    visible to a subsequent ``load`` (the OS-buffer analogue);
    ``sync`` is the durability barrier (the fsync analogue).
    """

    #: Label carried by corruption errors out of this medium.
    backend: str = "?"

    @abstractmethod
    def load(self) -> bytes:
        """The full current log contents (``b""`` if absent/empty)."""

    @abstractmethod
    def append(self, chunk: bytes) -> None:
        """Append *chunk* (a whole frame, or a deliberately torn
        fragment under fault injection) to the stream."""

    @abstractmethod
    def sync(self) -> None:
        """Durability barrier for everything appended so far."""

    @abstractmethod
    def truncate(self, valid_bytes: int) -> None:
        """Drop every byte at or beyond *valid_bytes* (torn tail)."""

    @abstractmethod
    def reset(self, header: bytes) -> None:
        """Restart the log: only *header* remains."""

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    @abstractmethod
    def describe(self) -> str:
        """Human-readable address of the log (path, table, ...)."""


class FileWalStore(WalStore):
    """The classic shape: one append-only file."""

    backend = "file"

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._file = None

    def load(self) -> bytes:
        if not self.path.exists():
            return b""
        return self.path.read_bytes()

    def _handle(self):
        if self._file is None or self._file.closed:
            self._file = open(self.path, "ab")
        return self._file

    def append(self, chunk: bytes) -> None:
        handle = self._handle()
        handle.write(chunk)
        handle.flush()

    def sync(self) -> None:
        os.fsync(self._handle().fileno())

    def truncate(self, valid_bytes: int) -> None:
        # Never append behind garbage: drop the torn tail.
        with open(self.path, "r+b") as handle:
            handle.truncate(valid_bytes)

    def reset(self, header: bytes) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()
        self._file = open(self.path, "wb")
        self._file.write(header)
        self._file.flush()

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.flush()
            self._file.close()

    def describe(self) -> str:
        return str(self.path)


class MemoryWalStore(WalStore):
    """A log held in a bytearray — hermetic tests, no filesystem."""

    backend = "memory"

    def __init__(self) -> None:
        self._buffer = bytearray()

    def load(self) -> bytes:
        return bytes(self._buffer)

    def append(self, chunk: bytes) -> None:
        self._buffer += chunk

    def sync(self) -> None:
        pass

    def truncate(self, valid_bytes: int) -> None:
        del self._buffer[valid_bytes:]

    def reset(self, header: bytes) -> None:
        self._buffer[:] = header

    def describe(self) -> str:
        return "<memory WAL>"


# ----------------------------------------------------------------------
# Scanning.


def scan_wal(data: bytes, describe: str = "WAL",
             backend: str = "file") -> WalScan:
    """Scan one log byte stream up to the first torn/corrupt record."""
    if not data:
        return WalScan()
    if len(data) < _HEADER_LEN or data[:len(_MAGIC)] != _MAGIC:
        raise StorageError(
            f"{describe} is not a write-ahead log (bad magic)")
    version = struct.unpack_from("<H", data, len(_MAGIC))[0]
    if version == 1:
        raise StorageError(
            f"{describe} is WAL version 1, which is no longer read: "
            "recover and checkpoint it with a release that reads it")
    if version != _VERSION:
        raise StorageError(f"unsupported WAL version {version}")
    scan = WalScan(valid_bytes=_HEADER_LEN)
    for payload, end in iter_frames(data, start=_HEADER_LEN):
        scan.records.append(_decode_payload(payload, backend=backend))
        scan.valid_bytes = end
    scan.torn_bytes = len(data) - scan.valid_bytes
    return scan


def read_wal_store(store: WalStore) -> WalScan:
    """Scan any log store up to the first torn or corrupt record."""
    return scan_wal(store.load(), describe=store.describe(),
                    backend=store.backend)


class WriteAheadLog:
    """An append-only log with per-record CRC32 and monotone LSNs.

    *store* is the medium, any :class:`WalStore`.  ``sync=False``
    skips the per-record durability barrier (the benchmarks use it to
    separate the logging tax from the disk tax); the bytes still reach
    the store on every append.

    :attr:`scan` is the log as :func:`read_wal_store` would read it
    back, kept in memory: the records since the last reset, each
    published only *after* its durability barrier — ``store.sync()``,
    or ``store.append`` without ``sync`` — so a torn append or a crash
    before the barrier publishes nothing.  A reader follows it instead
    of re-reading the store (see :mod:`repro.server.snapshots`).
    """

    def __init__(self, store: WalStore, sync: bool = True) -> None:
        self.store = store
        self.sync = sync
        self.last_lsn = 0
        #: Highest transaction id on any record of the log: a manager
        #: attaching to a log that was not reset continues from it, so
        #: no new transaction shares an id — recovery's measure of
        #: "committed" — with an old one.
        self.last_txn = 0
        self.appends = 0
        self._closed = False
        existing = self.store.load()
        if existing:
            scan = scan_wal(existing, describe=self.store.describe(),
                            backend=self.store.backend)
            if scan.records:
                self.last_lsn = scan.records[-1].lsn
                self.last_txn = max(r.txn for r in scan.records)
            if scan.torn:
                # Never append behind garbage: drop the torn tail.
                self.store.truncate(scan.valid_bytes)
                scan.torn_bytes = 0
        else:
            self.store.reset(_HEADER)
            scan = WalScan(valid_bytes=_HEADER_LEN)
        #: The durable records since the last reset (a new object per
        #: reset): appended to, never rewritten.
        self.scan = scan

    # -- the one write path ---------------------------------------------

    def _append(self, kind: int, txn: int, *body) -> int:
        """Pack (*body*: the kind's fields in the wire order of
        :data:`_BODIES`), frame and append one record, then publish it
        on :attr:`scan`."""
        if self._closed:
            raise StorageError("write-ahead log is closed")
        started = time.perf_counter_ns()
        lsn = self.last_lsn + 1
        payload = bytearray(_RECORD_HEAD.pack(lsn, kind, txn))
        for pack, value in zip(_PACKERS[kind], body):
            pack(payload, value)
        frame = encode_frame(payload)
        faults.fire("wal.append")
        if faults.wants("wal.append.torn"):
            # A torn write: half the frame lands, then the process dies.
            self.store.append(frame[:max(1, len(frame) // 2)])
            raise CrashError("wal.append.torn")
        self.store.append(frame)
        faults.fire("wal.fsync")
        if self.sync:
            sync_started = time.perf_counter_ns()
            self.store.sync()
            obs.REGISTRY.histogram("wal.sync.ns").observe(
                time.perf_counter_ns() - sync_started)
        self.last_lsn = lsn
        if txn > self.last_txn:
            self.last_txn = txn
        self.appends += 1
        scan = self.scan
        scan.valid_bytes += len(frame)
        scan.records.append(WalRecord._make(
            (lsn, kind, txn) + _PICK_BODY[kind](body + _BODY_DEFAULTS)))
        registry = obs.REGISTRY
        registry.counter("wal.appends").inc()
        registry.counter("wal.bytes").inc(len(frame))
        registry.histogram("wal.append.ns").observe(
            time.perf_counter_ns() - started)
        return lsn

    # -- record constructors --------------------------------------------

    def append_begin(self, txn: int) -> int:
        return self._append(BEGIN, txn)

    def append_commit(self, txn: int) -> int:
        faults.fire("wal.commit")
        return self._append(COMMIT, txn)

    def append_abort(self, txn: int) -> int:
        return self._append(ABORT, txn)

    def append_insert_element(self, txn: int, parent_nid: NidLabel,
                              index: int, name: QName,
                              nid: NidLabel) -> int:
        return self._append(INSERT_ELEMENT, txn, parent_nid, index, name,
                            nid)

    def append_insert_text(self, txn: int, parent_nid: NidLabel,
                           index: int, text: str, nid: NidLabel) -> int:
        return self._append(INSERT_TEXT, txn, parent_nid, index, text, nid)

    def append_set_attribute(self, txn: int, parent_nid: NidLabel,
                             name: QName, value: str, nid: NidLabel,
                             replace: bool) -> int:
        return self._append(SET_ATTRIBUTE, txn, parent_nid, name, value,
                            replace, nid)

    def append_delete(self, txn: int, nid: NidLabel) -> int:
        return self._append(DELETE, txn, nid)

    def append_create_index(self, txn: int, path: str, kind: str,
                            value_type: str) -> int:
        return self._append(CREATE_INDEX, txn, path, kind, value_type)

    def append_drop_index(self, txn: int, path: str, kind: str) -> int:
        return self._append(DROP_INDEX, txn, path, kind)

    def append_load(self, txn: int, node_count: int) -> int:
        """The bulk-load marker: *node_count* nodes entered the engine
        without per-op records; a checkpoint must follow immediately
        (recovery refuses a committed LOAD past the horizon)."""
        return self._append(LOAD, txn, node_count)

    # -- checkpoint reset ------------------------------------------------

    def reset(self, checkpoint_lsn: int) -> None:
        """Start a fresh log after a checkpoint covering *checkpoint_lsn*.

        The store is restarted with just the header, and :attr:`scan`
        with a new, empty object; the first record is a CHECKPOINT
        marker.  LSNs keep counting up, so every record
        in the fresh log is strictly beyond the image's horizon.
        """
        self.store.reset(_HEADER)
        self.scan = WalScan(valid_bytes=_HEADER_LEN)
        self._append(CHECKPOINT, 0, checkpoint_lsn)

    def close(self) -> None:
        self._closed = True
        self.store.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"WriteAheadLog({self.store.describe()!r}, "
                f"lsn={self.last_lsn}, appends={self.appends})")
