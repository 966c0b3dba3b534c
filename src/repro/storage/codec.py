"""Shared binary codec of the persistence layer.

One statement of the little-endian fixed-width field conventions used
by every durable artifact in this package: the checkpoint image
(:mod:`repro.storage.persist`), the write-ahead log
(:mod:`repro.storage.wal`) and the per-block payloads of the pluggable
backends (:mod:`repro.storage.backends`).  The pieces:

* :class:`Writer` — record writer over one buffer; the CRC32 the
  image trailer signs is taken once, over the finished buffer;
* :class:`Reader` — bounds-checked record reader whose errors are
  :class:`~repro.errors.CorruptionError` carrying a backend label and
  a backend-specific location ("byte 123" for a file image, "block
  row 7 byte 9" for a SQLite payload), never a raw ``struct.error``;
  a fixed-width record head is one compiled ``struct.Struct``;
* u32-length + CRC32 record framing (:func:`encode_frame` /
  :func:`iter_frames`) — the WAL's torn-tail detection, shared by
  every WAL store;
* numbering labels: a :class:`~repro.storage.labels.NidLabel` is
  bytes already, and travels as its byte length (u16) followed by
  those bytes (:func:`pack_nid`).  ``Reader.nid`` refuses what is not
  a label (:func:`~repro.storage.labels.key_fault`); ``Reader.link``
  reads an optional label that is only looked up, unvalidated.
"""

from __future__ import annotations

import re
import struct
import zlib
from typing import Callable, Iterator, NoReturn, Optional

from repro.errors import CorruptionError, XmlSyntaxError
from repro.storage.labels import MAX_BASE, NidLabel, from_key, key_fault
from repro.xmlio.qname import QName

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_FIELDS = re.compile(r"(\d*)([BHIQ])")  # the codes layouts here use


def pack_nid(out: bytearray, nid: NidLabel) -> None:
    """Append the wire form of *nid* to *out*: its byte length (u16),
    then the label's own bytes."""
    out += _U16.pack(bytes.__len__(nid))
    out += nid


def pack_text(out: bytearray, value: str) -> None:
    """Append a u32-length-prefixed UTF-8 string to *out*."""
    data = value.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


class Writer:
    """Record writer over one growing buffer, :attr:`out`.  The CRC32
    an image trailer signs is taken once, over the whole buffer."""

    def __init__(self) -> None:
        self.out = bytearray()

    def pack(self, layout: struct.Struct, *values: int) -> None:
        """One fixed-width record through its compiled layout."""
        self.out += layout.pack(*values)

    def u32(self, value: int) -> None:
        self.out += _U32.pack(value)

    def text(self, value: str) -> None:
        pack_text(self.out, value)

    def trailer(self) -> None:
        """The CRC32 of everything written so far (not self-included)."""
        self.out += _U32.pack(zlib.crc32(self.out))


class Reader:
    """Bounds-checked record reader with backend-labeled errors.

    *backend* names where the bytes came from ("file", "sqlite",
    "memory"); *place* renders a byte position into that backend's
    location vocabulary (default: ``byte {pos}``).  Both ride on the
    :class:`CorruptionError` any damage raises, so ``--json`` error
    objects stay meaningful whatever medium held the bytes.  A record
    that does not fit is refused at its first *field* that does not.
    """

    def __init__(self, data: bytes, backend: str = "file",
                 place: Optional[Callable[[int], str]] = None,
                 what: str = "storage image") -> None:
        self._data = data
        self._pos = 0
        self.backend = backend
        self.what = what
        self._place = place or (lambda pos: f"byte {pos}")

    @property
    def pos(self) -> int:
        return self._pos

    def location(self, pos: Optional[int] = None) -> str:
        return self._place(self._pos if pos is None else pos)

    def corrupt(self, message: str,
                pos: Optional[int] = None) -> CorruptionError:
        """Build a located corruption error (caller raises it)."""
        return CorruptionError(message, backend=self.backend,
                               location=self.location(pos))

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise self.corrupt(
                f"truncated {self.what} at {self.location()} "
                f"(wanted {count} more byte(s), "
                f"{len(self._data) - self._pos} left)")
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def _truncated(self, layout: struct.Struct, pos: int) -> None:
        """*layout* does not fit at *pos*: walk to its first field
        that does not fit and fail there."""
        self._pos = pos
        for count, code in _FIELDS.findall(layout.format):
            for _ in range(int(count or 1)):
                self._take(struct.calcsize(code))
        raise AssertionError("the record fits")  # pragma: no cover

    def unpack(self, layout: struct.Struct) -> tuple:
        """One fixed-width record through its compiled layout."""
        pos = self._pos
        end = pos + layout.size
        if end > len(self._data):
            self._truncated(layout, pos)
        self._pos = end
        return layout.unpack_from(self._data, pos)

    def u8(self) -> int:
        pos = self._pos
        if pos >= len(self._data):
            self._truncated(_U8, pos)
        self._pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def text(self) -> str:
        start = self._pos
        raw = self._take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise self.corrupt(
                f"corrupt text in {self.what} at {self.location(start)}: "
                f"{error}", pos=start) from error

    def qname(self) -> QName:
        """A name as two texts, namespace URI then local part."""
        start = self._pos
        try:
            return QName(self.text(), self.text())
        except XmlSyntaxError as error:
            raise self.corrupt(
                f"corrupt name in {self.what} at {self.location(start)}: "
                f"{error}", pos=start) from error

    def nid(self, base: int = MAX_BASE) -> NidLabel:
        """One label, refused where it starts unless it is a label
        over *base* digits."""
        data = self._data
        start = self._pos
        end = start + 2
        if end <= len(data):
            end += data[start] | data[start + 1] << 8
        if end > len(data):
            self._short_label()
        key = data[start + 2:end]
        fault = key_fault(key, base)
        if fault is not None:
            raise self.corrupt(
                f"label {fault} in {self.what} at "
                f"{self.location(start)}", pos=start)
        self._pos = end
        return from_key(key)

    def link(self) -> Optional[bytes]:
        """An optional label (u8 flag, then the label) as its bytes;
        None for an absent one.  A link is only ever looked up among
        labels :meth:`nid` accepted, so it is not validated."""
        data = self._data
        flag = self._pos
        end = flag + 3
        if end <= len(data):
            if not data[flag]:
                self._pos = flag + 1
                return None
            end += data[flag + 1] | data[flag + 2] << 8
            if end <= len(data):
                self._pos = end
                return data[flag + 3:end]
        if self.u8():
            self._short_label()
        return None

    def _short_label(self) -> NoReturn:
        """A label that does not fit: fail at its first field that
        does not."""
        self._take(self.unpack(_U16)[0])
        raise AssertionError("the label fits")  # pragma: no cover

    def at_end(self) -> bool:
        return self._pos == len(self._data)


# ----------------------------------------------------------------------
# Record framing: u32 payload length + u32 CRC32(payload) + payload.
# The write-ahead log's torn-tail rule lives here: a frame whose header
# is incomplete, whose payload is short, or whose CRC32 does not match
# is torn, and everything from its first byte on is garbage.

FRAME_HEADER_LEN = 8


def encode_frame(payload: bytes) -> bytes:
    """One framed record ready to append."""
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def iter_frames(data: bytes, start: int = 0
                ) -> Iterator[tuple[bytes, int]]:
    """Yield ``(payload, end_offset)`` for every intact frame.

    Stops silently at the first torn or corrupt frame — the caller
    compares the last ``end_offset`` against ``len(data)`` to size the
    torn tail.
    """
    pos = start
    while pos < len(data):
        if pos + FRAME_HEADER_LEN > len(data):
            return  # torn frame header
        length, crc = struct.unpack_from("<II", data, pos)
        end = pos + FRAME_HEADER_LEN + length
        if end > len(data):
            return  # torn payload
        payload = data[pos + FRAME_HEADER_LEN:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt payload: treat as torn tail
        yield payload, end
        pos = end
