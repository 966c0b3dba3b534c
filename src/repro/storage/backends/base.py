"""The pluggable durability seam: :class:`StorageBackend`.

The §9 engine state (descriptive schema + per-schema-node block lists
+ numbering labels) used to be durable in exactly one shape — an
image file plus a WAL file.  This package carves that coupling out: a
backend owns *where* block payloads (one image, or rows), WAL frames
and snapshot versions live, while the codec
(:mod:`repro.storage.persist`: the block payloads and the one head —
schema, index definitions, statistics digest — an image inlines the
payloads behind and a SQLite manifest references rows behind), the
record of what changed since a checkpoint (the engine's payload memo),
the write-ahead rule, torn-tail detection and replay semantics
(:mod:`repro.storage.wal`, :mod:`repro.storage.recovery`) are written
once against this protocol.

Snapshot versioning (ADR-004 shape): every checkpoint records a
version keyed by a **deterministic fingerprint** of the descriptive
schema plus the checkpoint LSN — no timestamps, no randomness — so
the same engine state checkpointed twice (or on two machines) yields
the same version id.  ``list_snapshots()`` enumerates retained
versions, ``restore(version)`` reconstructs the engine as of that
checkpoint, and eviction bounds retention.
"""

from __future__ import annotations

import hashlib
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.errors import StorageError
from repro.storage.wal import WalStore, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import StorageEngine

#: Snapshot versions retained by default before eviction kicks in.
DEFAULT_MAX_SNAPSHOTS = 16


def schema_fingerprint(engine: "StorageEngine") -> str:
    """Deterministic fingerprint of the engine's descriptive shape.

    Canonical serialization of numbering base, block capacity, the
    descriptive-schema paths (pre-order, with node types) and the
    declared index definitions, hashed with SHA-256.  Two engines with
    the same descriptive shape fingerprint identically, whatever their
    descriptor contents — the fingerprint detects *schema* drift
    between snapshots, the LSN distinguishes *data* states.
    """
    digest = hashlib.sha256()
    digest.update(f"base={engine.numbering.base};"
                  f"capacity={engine.block_capacity}".encode("utf-8"))
    for path, node_type in engine.schema.paths():
        digest.update(f"|{path}#{node_type}".encode("utf-8"))
    for definition in engine.indexes.definitions():
        digest.update(f"|index:{definition.path}:{definition.kind}:"
                      f"{definition.value_type}".encode("utf-8"))
    return digest.hexdigest()


def snapshot_version(lsn: int, fingerprint: str) -> str:
    """The version id of a checkpoint: zero-padded LSN + the first 12
    fingerprint hex digits.  Same schema + same LSN → same id, across
    runs and machines (there is deliberately no timestamp in here)."""
    return f"{lsn:010d}-{fingerprint[:12]}"


def parse_version(version: str) -> tuple[int, str]:
    """Split a version id back into ``(lsn, fingerprint_prefix)``."""
    lsn_text, _, fingerprint = version.partition("-")
    try:
        return int(lsn_text), fingerprint
    except ValueError as error:
        raise StorageError(
            f"malformed snapshot version {version!r}") from error


@dataclass(frozen=True)
class SnapshotInfo:
    """One retained checkpoint version."""

    version: str          # deterministic id: LSN + fingerprint prefix
    lsn: int              # the WAL horizon the snapshot covers
    fingerprint: str      # full schema fingerprint (hex)
    seq: int              # retention order (monotone per backend)
    bytes: int = 0        # persisted payload size (best effort)
    mode: str = "full"    # "full" | "incremental" (changed blocks only)

    def as_dict(self) -> dict:
        return asdict(self)


class StorageBackend(ABC):
    """Where one engine's durable state lives.

    Concrete backends: :class:`~repro.storage.backends.file.FileBackend`
    (atomic image file + WAL file — the historical layout),
    :class:`~repro.storage.backends.sqlite.SqliteBackend` (block
    payloads, snapshot manifests and WAL frames as rows, with
    incremental checkpoints that write changed blocks only) and
    :class:`~repro.storage.backends.memory.MemoryBackend` (hermetic
    tests).

    The contract every implementation keeps:

    * ``checkpoint`` is **atomic** — a crash at any of the named fault
      points (``persist.write``, ``persist.write.torn``,
      ``persist.rename``) leaves the previous state intact;
    * every successful checkpoint records a :class:`SnapshotInfo`
      under its deterministic version id and resets the WAL past the
      horizon;
    * ``load_engine``/``restore`` reconstruct an engine whose labels,
      block layout and index definitions round-trip exactly
      (``relabels == 0`` through recovery).
    """

    #: Label carried by corruption errors and recovery results.
    name: str = "?"

    def __init__(self,
                 max_snapshots: Optional[int] = DEFAULT_MAX_SNAPSHOTS
                 ) -> None:
        self.max_snapshots = max_snapshots

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self, engine: "StorageEngine",
                   wal: Optional[WriteAheadLog] = None) -> SnapshotInfo:
        """Atomically persist *engine*; returns the recorded snapshot.

        The WAL horizon is *wal*'s last LSN (0 without a log); the log
        is reset past it afterwards.  A crash between the snapshot
        landing and the log reset is harmless — replay skips records
        at or below the horizon.
        """
        if engine.document is None:
            raise StorageError("cannot checkpoint an empty engine")
        started = time.perf_counter_ns()
        horizon = wal.last_lsn if wal is not None else 0
        info = self._write_snapshot(engine, horizon)
        if wal is not None:
            wal.reset(checkpoint_lsn=horizon)
        if self.max_snapshots is not None:
            self.evict_snapshots(keep=self.max_snapshots)
        registry = obs.REGISTRY
        registry.counter("recovery.checkpoints").inc()
        registry.counter("recovery.checkpoint.bytes").inc(info.bytes)
        registry.counter(f"checkpoint.{info.mode}").inc()
        registry.histogram(f"checkpoint.{self.name}.ns").observe(
            time.perf_counter_ns() - started)
        return info

    @abstractmethod
    def _write_snapshot(self, engine: "StorageEngine",
                        horizon: int) -> SnapshotInfo:
        """Backend-specific atomic persist + version recording."""

    # -- loading ---------------------------------------------------------

    @abstractmethod
    def load_engine(self) -> "StorageEngine":
        """Reconstruct the engine from the current (latest) state."""

    @abstractmethod
    def restore(self, version: str) -> "StorageEngine":
        """Reconstruct the engine as of snapshot *version*."""

    # -- snapshot management ---------------------------------------------

    @abstractmethod
    def list_snapshots(self) -> list[SnapshotInfo]:
        """Retained versions, oldest first."""

    @abstractmethod
    def evict_snapshots(self, keep: int) -> list[str]:
        """Drop all but the *keep* most recent versions; returns the
        evicted version ids.  The current state itself never goes."""

    # -- the log medium --------------------------------------------------

    @abstractmethod
    def wal_store(self) -> Optional[WalStore]:
        """The medium this backend keeps its WAL on (None when the
        backend was opened without one)."""

    def open_wal(self, sync: bool = True) -> Optional[WriteAheadLog]:
        """A :class:`WriteAheadLog` over :meth:`wal_store` (None when
        the backend has no log medium)."""
        store = self.wal_store()
        if store is None:
            return None
        return WriteAheadLog(store, sync=sync)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    @abstractmethod
    def describe(self) -> str:
        """Human-readable address of the durable state."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()!r})"
