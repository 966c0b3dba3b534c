"""Blocks, snapshot manifests and WAL frames as SQLite rows.

Where :class:`FileBackend` writes one whole image per checkpoint,
this backend makes durability **block-granular** — the unit the §9
layout already updates in: an engine mutation touches one block (or
splits it), so a checkpoint after a small mutation only has to write
the few rows whose persisted form changed.

Layout (one database file):

* ``block_rows(block_id, gen, payload)`` — copy-on-write generations
  of each block's payload, the same bytes the file image is made of
  (:func:`repro.storage.persist.encode_block`);
* ``snapshots(version, seq, lsn, fingerprint, manifest, bytes)`` —
  one row per retained checkpoint; the manifest is the image's head
  (:func:`repro.storage.persist.dumps_manifest`: descriptive schema,
  index definitions, statistics digest, CRC trailer) with a
  ``(block_id, gen)`` row reference in each block payload's place, so
  ``restore(version)`` is the image loader reading those rows;
* ``wal_chunks(seq, data)`` — the WAL as framed byte chunks on a
  *separate connection* (log appends must be durable independently of
  any in-flight checkpoint transaction);
* ``meta(key, value)`` — the current version pointer and the
  generation counter.

Checkpoint protocol: a block's row is reused when this backend's last
committed checkpoint wrote (or its restore of the current version
read) the very payload the engine's payload memo still holds for it,
and no one has published to the store since (``meta.gen`` is the
generation this backend committed or restored); every other
block gets a row at the new generation (a checkpoint that reuses no
row is ``full``).  All of it happens inside one SQLite transaction
whose COMMIT is the atomic publish.  The named fault points keep
their historical meaning: ``persist.write`` fires before any row
lands, ``persist.write.torn`` writes half the rows and dies (the
transaction rolls back — the old snapshot stays intact, exactly the
old-image-survives contract), and ``persist.rename`` fires just
before COMMIT.

Eviction deletes old snapshot rows and garbage-collects block
generations no retained manifest references.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.errors import StorageError
from repro.storage import faults
from repro.storage.backends.base import (
    DEFAULT_MAX_SNAPSHOTS,
    SnapshotInfo,
    StorageBackend,
    schema_fingerprint,
    snapshot_version,
)
from repro.storage.blocks import Block
from repro.storage.faults import CrashError
from repro.storage.persist import (
    block_payload,
    dumps_manifest,
    load_manifest,
    manifest_chains,
)
from repro.storage.wal import WalStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import StorageEngine

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS block_rows (
    block_id INTEGER NOT NULL,
    gen      INTEGER NOT NULL,
    payload  BLOB NOT NULL,
    PRIMARY KEY (block_id, gen)
);
CREATE TABLE IF NOT EXISTS snapshots (
    version     TEXT PRIMARY KEY,
    seq         INTEGER NOT NULL,
    lsn         INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    manifest    BLOB NOT NULL,
    bytes       INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS wal_chunks (
    seq  INTEGER PRIMARY KEY AUTOINCREMENT,
    data BLOB NOT NULL
);
"""


class SqliteWalStore(WalStore):
    """The WAL as framed chunk rows (one row per append).

    Presented to :class:`~repro.storage.wal.WriteAheadLog` as one byte
    stream, so the shared framing and torn-tail scan apply unchanged;
    a torn append is simply a partial-frame row, detected by the same
    CRC walk and truncated away at reopen.  Each append COMMITs — the
    SQLite transaction is the durability barrier, so ``sync`` is a
    no-op.
    """

    backend = "sqlite"

    def __init__(self, connection: sqlite3.Connection,
                 describe: str) -> None:
        self._conn = connection
        self._describe = describe

    def load(self) -> bytes:
        rows = self._conn.execute(
            "SELECT data FROM wal_chunks ORDER BY seq").fetchall()
        return b"".join(row[0] for row in rows)

    def append(self, chunk: bytes) -> None:
        self._conn.execute("INSERT INTO wal_chunks (data) VALUES (?)",
                           (chunk,))
        self._conn.commit()

    def sync(self) -> None:
        pass  # each append commits: already durable

    def truncate(self, valid_bytes: int) -> None:
        rows = self._conn.execute(
            "SELECT seq, data FROM wal_chunks ORDER BY seq").fetchall()
        position = 0
        for seq, data in rows:
            end = position + len(data)
            if end <= valid_bytes:
                position = end
                continue
            if position < valid_bytes:
                # A chunk straddling the cut: keep its valid prefix.
                self._conn.execute(
                    "UPDATE wal_chunks SET data = ? WHERE seq = ?",
                    (data[:valid_bytes - position], seq))
            else:
                self._conn.execute(
                    "DELETE FROM wal_chunks WHERE seq = ?", (seq,))
            position = end
        self._conn.commit()

    def reset(self, header: bytes) -> None:
        self._conn.execute("DELETE FROM wal_chunks")
        self._conn.execute("INSERT INTO wal_chunks (data) VALUES (?)",
                           (header,))
        self._conn.commit()

    def describe(self) -> str:
        return f"{self._describe}#wal_chunks"


class SqliteBackend(StorageBackend):
    """Incremental, row-granular durability in one SQLite file."""

    name = "sqlite"

    def __init__(self, db_path: str | os.PathLike,
                 max_snapshots: Optional[int] = DEFAULT_MAX_SNAPSHOTS
                 ) -> None:
        super().__init__(max_snapshots=max_snapshots)
        self.db_path = Path(db_path)
        self._conn = sqlite3.connect(self.db_path,
                                     isolation_level=None)
        self._conn.executescript(_SCHEMA_SQL)
        self._wal_conn: Optional[sqlite3.Connection] = None
        self._wal_store: Optional[SqliteWalStore] = None
        # The generation this backend last committed (or restored as
        # the current one), and per block the (generation, payload) row
        # its manifest references.
        self._gen: Optional[int] = None
        self._rows: dict[int, tuple[int, bytes]] = {}

    # -- checkpointing ---------------------------------------------------

    def _write_snapshot(self, engine: "StorageEngine",
                        horizon: int) -> SnapshotInfo:
        gen = int(self._meta_get("gen", "0")) + 1
        # Rows this backend committed stand for their blocks only while
        # nobody else has published since.
        previous = self._rows if self._gen == gen - 1 else {}
        memo = engine.payloads
        rows: dict[int, tuple[int, bytes]] = {}
        to_write: list[Block] = []

        def generation(block: Block) -> int:
            row = previous.get(block.block_id)
            if row is not None and row[1] is memo.get(block.block_id):
                rows[block.block_id] = row
                return row[0]
            to_write.append(block)
            return gen

        manifest = dumps_manifest(engine, horizon, generation)
        fingerprint = schema_fingerprint(engine)
        version = snapshot_version(horizon, fingerprint)
        full = not rows

        payload_bytes = 0
        try:
            self._conn.execute("BEGIN IMMEDIATE")
            faults.fire("persist.write")
            # Torn: half the rows land, then the process dies; the
            # open transaction rolls back, so the previous snapshot
            # stays intact — the row analogue of a torn image write
            # that never reached the rename.
            torn = faults.wants("persist.write.torn")
            for block in (to_write[:len(to_write) // 2] if torn
                          else to_write):
                payload = block_payload(engine, block)
                rows[block.block_id] = (gen, payload)
                payload_bytes += len(payload)
                self._conn.execute(
                    "INSERT OR REPLACE INTO block_rows "
                    "(block_id, gen, payload) VALUES (?, ?, ?)",
                    (block.block_id, gen, payload))
            if torn:
                raise CrashError("persist.write.torn")
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshots "
                "(version, seq, lsn, fingerprint, manifest, bytes) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (version, gen, horizon, fingerprint, manifest,
                 payload_bytes))
            self._meta_set("gen", str(gen))
            self._meta_set("current_version", version)
            faults.fire("persist.rename")  # the publish barrier
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")
        self._gen, self._rows = gen, rows
        return SnapshotInfo(version=version, lsn=horizon,
                            fingerprint=fingerprint, seq=gen,
                            bytes=payload_bytes,
                            mode="full" if full else "incremental")

    # -- meta helpers ----------------------------------------------------

    def _meta_get(self, key: str, default: Optional[str] = None
                  ) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return row[0] if row is not None else default

    def _meta_set(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, value))

    # -- loading ---------------------------------------------------------

    def load_engine(self) -> "StorageEngine":
        version = self._meta_get("current_version")
        if version is None:
            raise StorageError(
                f"no checkpoint image at {self.describe()}")
        return self.restore(version)

    def restore(self, version: str) -> "StorageEngine":
        # A text manifest (the format before the binary one) reaches
        # the decoder as its UTF-8 bytes, and is refused by name.
        row = self._conn.execute(
            "SELECT CAST(manifest AS BLOB) FROM snapshots "
            "WHERE version = ?", (version,)).fetchone()
        if row is None:
            raise StorageError(
                f"unknown snapshot version {version!r} "
                f"(backend {self.name}, {self.describe()})")
        fetched: dict[int, tuple[int, bytes]] = {}

        def payload(block_id: int, gen: int) -> Optional[bytes]:
            data = self._payload(block_id, gen)
            if data is not None:
                fetched[block_id] = (gen, data)
            return data

        engine = load_manifest(row[0], payload, backend=self.name,
                               where=f"snapshot {version} manifest")
        if version == self._meta_get("current_version"):
            # The current generation's rows stand for the restored
            # blocks: a backend that did not commit it adopts them, and
            # the engine's payload memo holds the very payloads the rows
            # reference, so the next checkpoint reuses every row no
            # write reaches.
            gen = int(self._meta_get("gen", "0"))
            if self._gen != gen:
                self._gen, self._rows = gen, fetched
            rows = self._rows
            engine.payloads.update(
                (block_id, rows.get(block_id, ref)[1])
                for block_id, ref in fetched.items())
        return engine

    def _payload(self, block_id: int, gen: int) -> Optional[bytes]:
        row = self._conn.execute(
            "SELECT payload FROM block_rows "
            "WHERE block_id = ? AND gen = ?", (block_id, gen)).fetchone()
        return row[0] if row is not None else None

    # -- snapshot management ---------------------------------------------

    def list_snapshots(self) -> list[SnapshotInfo]:
        rows = self._conn.execute(
            "SELECT version, seq, lsn, fingerprint, bytes "
            "FROM snapshots ORDER BY seq").fetchall()
        return [SnapshotInfo(version=version, lsn=lsn,
                             fingerprint=fingerprint, seq=seq,
                             bytes=size)
                for version, seq, lsn, fingerprint, size in rows]

    def evict_snapshots(self, keep: int) -> list[str]:
        snapshots = self.list_snapshots()
        current = self._meta_get("current_version")
        evicted = []
        for info in snapshots[:max(0, len(snapshots) - keep)]:
            if info.version == current:
                continue  # the current state itself never goes
            self._conn.execute(
                "DELETE FROM snapshots WHERE version = ?",
                (info.version,))
            evicted.append(info.version)
        if evicted:
            self._gc_generations()
        self._conn.commit()
        return evicted

    def _gc_generations(self) -> None:
        """Drop block generations no retained manifest references."""
        referenced: set[tuple[int, int]] = set()
        for version, manifest in self._conn.execute(
                "SELECT version, CAST(manifest AS BLOB) "
                "FROM snapshots").fetchall():
            for chain in manifest_chains(
                    manifest, self.name, f"snapshot {version} manifest"):
                referenced.update(chain)
        rows = self._conn.execute(
            "SELECT block_id, gen FROM block_rows").fetchall()
        for block_id, gen in rows:
            if (block_id, gen) not in referenced:
                self._conn.execute(
                    "DELETE FROM block_rows "
                    "WHERE block_id = ? AND gen = ?", (block_id, gen))

    # -- the log medium --------------------------------------------------

    def wal_store(self) -> Optional[WalStore]:
        if self._wal_store is None:
            # The log gets its own connection: appends must commit
            # independently of an in-flight checkpoint transaction.
            self._wal_conn = sqlite3.connect(self.db_path,
                                             isolation_level=None)
            self._wal_store = SqliteWalStore(self._wal_conn,
                                             str(self.db_path))
        return self._wal_store

    def close(self) -> None:
        if self._wal_conn is not None:
            self._wal_conn.close()
            self._wal_conn = None
            self._wal_store = None
        self._conn.close()

    def describe(self) -> str:
        return str(self.db_path)
