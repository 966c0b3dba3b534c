"""Blocks, index definitions and WAL frames as SQLite rows.

Where :class:`FileBackend` writes one whole image per checkpoint,
this backend makes durability **block-granular** — the unit the §9
layout already updates in: an engine mutation touches one block (or
splits it), so a checkpoint after a small mutation only has to upsert
the few rows whose persisted form changed.

Layout (one database file):

* ``block_rows(block_id, gen, payload)`` — copy-on-write generations
  of each block's payload, the same bytes the file image is made of
  (:func:`repro.storage.persist.encode_block`);
* ``snapshots(version, seq, lsn, fingerprint, manifest, bytes)`` —
  one row per retained checkpoint; the JSON manifest pins the
  descriptive schema (pre-order), index definitions, per-schema-node
  block chains and the exact ``block_id → gen`` map the version was
  built from, so ``restore(version)`` is just "read those rows";
* ``wal_chunks(seq, data)`` — the WAL as framed byte chunks on a
  *separate connection* (log appends must be durable independently of
  any in-flight checkpoint transaction);
* ``meta(key, value)`` — the current version pointer and the
  generation counter.

Checkpoint protocol: drain the engine's
:class:`~repro.storage.checkpoints.CheckpointTracker` under this
backend's consumer identity — a full write when the diff is not
relative to this store's own last checkpoint, a dirty-block upsert
otherwise — inside one SQLite transaction whose COMMIT is the atomic
publish.  The named fault points keep their historical meaning:
``persist.write`` fires before any row lands, ``persist.write.torn``
writes half the rows and dies (the transaction rolls back — the old
snapshot stays intact, exactly the old-image-survives contract), and
``persist.rename`` fires just before COMMIT.

Eviction deletes old snapshot rows and garbage-collects block
generations no retained manifest references.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import CorruptionError, ReproError, StorageError
from repro.storage import faults
from repro.storage.backends.base import (
    DEFAULT_MAX_SNAPSHOTS,
    SnapshotInfo,
    StorageBackend,
    schema_fingerprint,
    snapshot_version,
)
from repro.storage.blocks import Block
from repro.storage.codec import Reader
from repro.storage.engine import StorageEngine
from repro.storage.faults import CrashError
from repro.storage.indexes import decode_definition
from repro.storage.persist import block_payload, finish_load, load_blocks
from repro.storage.wal import WalStore
from repro.xmlio.qname import QName

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
    manifest    TEXT NOT NULL,
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

    @property
    def _consumer(self) -> str:
        """This store's identity for the dirty-diff handshake."""
        return f"sqlite:{self.db_path.resolve()}"

    # -- checkpointing ---------------------------------------------------

    def _write_snapshot(self, engine: "StorageEngine",
                        horizon: int) -> SnapshotInfo:
        tracker = engine.checkpoints
        full, dirty, dropped = tracker.begin(self._consumer)
        current = self._meta_get("current_version")
        previous = self._manifest(current)
        if previous is None:
            full = True
        gens = {} if full else self._gens(previous, current)

        schema_nodes = list(engine.schema.iter_nodes())
        schema_index = {id(node): i
                        for i, node in enumerate(schema_nodes)}
        live_blocks: dict[int, Block] = {}
        chains: list[list[int]] = []
        for node in schema_nodes:
            chain = []
            for block in node.blocks():
                chain.append(block.block_id)
                live_blocks[block.block_id] = block
            chains.append(chain)

        if full:
            to_write = list(live_blocks.values())
        else:
            for block_id in dropped:
                gens.pop(block_id, None)
            to_write = [live_blocks[block_id] for block_id in dirty
                        if block_id in live_blocks]

        gen = int(self._meta_get("gen", "0")) + 1
        for block in to_write:
            gens[block.block_id] = gen
        # Stale map entries for blocks no longer live (covers drops
        # the tracker could not see, e.g. after a foreign full write).
        gens = {block_id: g for block_id, g in gens.items()
                if block_id in live_blocks}

        fingerprint = schema_fingerprint(engine)
        version = snapshot_version(horizon, fingerprint)
        manifest = {
            "base": engine.numbering.base,
            "capacity": engine.block_capacity,
            "lsn": horizon,
            "schema": [
                [schema_index[id(node.parent)]
                 if node.parent is not None else None,
                 node.node_type,
                 node.name.uri if node.name is not None else None,
                 node.name.local if node.name is not None else None]
                for node in schema_nodes],
            "indexes": [[d.path, d.kind, d.value_type]
                        for d in engine.indexes.definitions()],
            "chains": chains,
            "gens": {str(block_id): g
                     for block_id, g in gens.items()},
            "stats": engine.stats.export(),
        }
        manifest_text = json.dumps(manifest, separators=(",", ":"))

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
                (version, gen, horizon, fingerprint, manifest_text,
                 payload_bytes))
            self._meta_set("gen", str(gen))
            self._meta_set("current_version", version)
            faults.fire("persist.rename")  # the publish barrier
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")
        tracker.complete(self._consumer)
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

    def _manifest(self, version: Optional[str]) -> Optional[dict]:
        """The manifest of snapshot *version* (None: no such row)."""
        row = self._conn.execute(
            "SELECT manifest FROM snapshots WHERE version = ?",
            (version,)).fetchone()
        if row is None:
            return None
        try:
            manifest = json.loads(row[0])
            if not isinstance(manifest, dict):
                raise ValueError("not a JSON object")
        except ValueError as error:
            raise self._corrupt(f"unreadable snapshot manifest: {error}",
                                version, "manifest") from error
        return manifest

    def _gens(self, manifest: dict, version: str) -> dict[int, int]:
        """The ``block_id → gen`` map *manifest* pins."""
        try:
            return {int(block_id): int(gen)
                    for block_id, gen in manifest["gens"].items()}
        except (KeyError, AttributeError, TypeError,
                ValueError) as error:
            raise self._corrupt(
                f"damaged snapshot manifest at 'gens': {error!r}",
                version, "manifest[gens]") from error

    # -- loading ---------------------------------------------------------

    def load_engine(self) -> "StorageEngine":
        version = self._meta_get("current_version")
        if version is None:
            raise StorageError(
                f"no checkpoint image at {self.describe()}")
        return self.restore(version)

    def restore(self, version: str) -> "StorageEngine":
        manifest = self._manifest(version)
        if manifest is None:
            raise StorageError(
                f"unknown snapshot version {version!r} "
                f"(backend {self.name}, {self.describe()})")
        try:
            return self._build_engine(manifest, version)
        except CorruptionError:
            raise
        except ReproError as error:
            # Stored rows the engine refuses: an overfilled block, a
            # broken invariant, an index that no longer resolves.
            raise self._corrupt(f"corrupt snapshot rows: {error}",
                                version) from error

    def _build_engine(self, manifest: dict,
                      version: str) -> "StorageEngine":
        # What the manifest says, decoded before any row is read: a
        # damaged one is refused by the key it is damaged at.
        key = "base"
        try:
            engine = StorageEngine(base=manifest["base"],
                                   block_capacity=manifest["capacity"])
            key = "lsn"
            engine.checkpoint_lsn = int(manifest["lsn"])
            key = "schema"
            schema_nodes = []
            for index, (parent_index, node_type, uri, local) in \
                    enumerate(manifest["schema"]):
                key = f"schema[{index}]"
                if parent_index is None:
                    if index != 0 or node_type != "document":
                        raise ValueError("malformed schema tree")
                    schema_nodes.append(engine.schema.root)
                    continue
                if not 0 <= parent_index < index:
                    raise ValueError(
                        f"parent index {parent_index} out of range")
                name = QName(uri, local) if local is not None else None
                schema_nodes.append(engine.schema.get_or_add_child(
                    schema_nodes[parent_index], name, node_type))
            key = "chains"
            chains = [[int(block_id) for block_id in chain]
                      for chain in manifest["chains"]]
            key = "indexes"
            definitions = [decode_definition(*entry)
                           for entry in manifest["indexes"]]
            stats = manifest.get("stats")
        except (KeyError, IndexError, TypeError, ValueError,
                ReproError) as error:
            raise self._corrupt(
                f"damaged snapshot manifest at {key!r}: {error!r}",
                version, f"manifest {key}") from error
        gens = self._gens(manifest, version)

        def payloads() -> Iterator[tuple]:
            for schema_node, chain in zip(schema_nodes, chains):
                for block_id in chain:
                    gen = gens.get(block_id)
                    location = f"block {block_id} gen {gen}"
                    if gen is None:
                        raise self._corrupt(
                            f"snapshot manifest references block "
                            f"{block_id} without a generation", version)
                    row = self._conn.execute(
                        "SELECT payload FROM block_rows "
                        "WHERE block_id = ? AND gen = ?",
                        (block_id, gen)).fetchone()
                    if row is None:
                        raise self._corrupt(
                            f"missing block row ({location})", version)
                    yield schema_node, block_id, Reader(
                        row[0], backend=self.name,
                        place=lambda pos, loc=location:
                            f"{loc} byte {pos}",
                        what="block payload"), len(row[0])

        finish_load(engine, load_blocks(engine, payloads()),
                    definitions, stats,
                    lambda message: self._corrupt(message, version))
        return engine

    def _corrupt(self, message: str, version: str,
                 where: str = "") -> CorruptionError:
        return CorruptionError(
            f"{message} (snapshot {version}, {self.describe()})",
            backend=self.name,
            location=f"snapshot {version} {where}".rstrip())

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
        for (version,) in self._conn.execute(
                "SELECT version FROM snapshots").fetchall():
            referenced.update(
                self._gens(self._manifest(version), version).items())
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
