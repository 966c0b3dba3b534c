"""An in-process backend for hermetic tests.

Durable state lives in this object: the current image bytes, the
retained snapshot versions, and one :class:`MemoryWalStore`.  The
fault-point sequence mirrors the file backend — ``persist.write``
fires before anything changes and ``persist.write.torn`` crashes
*without* replacing the held image (the in-memory analogue of "the
old image survives a torn write"), so the crash matrix parametrizes
over this backend unchanged.
"""

from __future__ import annotations

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
from repro.storage.faults import CrashError
from repro.storage.persist import dumps_engine, load_engine
from repro.storage.wal import MemoryWalStore, WalStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import StorageEngine


class MemoryBackend(StorageBackend):
    """Image, snapshots and WAL held in process memory."""

    name = "memory"

    def __init__(self,
                 max_snapshots: Optional[int] = DEFAULT_MAX_SNAPSHOTS
                 ) -> None:
        super().__init__(max_snapshots=max_snapshots)
        self._current: Optional[bytes] = None
        self._snapshots: dict[str, tuple[SnapshotInfo, bytes]] = {}
        self._seq = 0
        self._wal = MemoryWalStore()

    # -- checkpointing ---------------------------------------------------

    def _write_snapshot(self, engine: "StorageEngine",
                        horizon: int) -> SnapshotInfo:
        data = dumps_engine(engine, checkpoint_lsn=horizon)
        faults.fire("persist.write")
        if faults.wants("persist.write.torn"):
            # The held image stays intact — torn bytes never publish.
            raise CrashError("persist.write.torn")
        faults.fire("persist.rename")
        self._current = data
        fingerprint = schema_fingerprint(engine)
        version = snapshot_version(horizon, fingerprint)
        previous = self._snapshots.get(version)
        if previous is None:
            self._seq += 1
        seq = self._seq if previous is None else previous[0].seq
        info = SnapshotInfo(version=version, lsn=horizon,
                            fingerprint=fingerprint, seq=seq,
                            bytes=len(data))
        self._snapshots[version] = (info, data)
        return info

    # -- loading ---------------------------------------------------------

    def load_engine(self) -> "StorageEngine":
        if self._current is None:
            raise StorageError(
                f"no checkpoint image at {self.describe()}")
        return load_engine(self._current, backend=self.name)

    def restore(self, version: str) -> "StorageEngine":
        entry = self._snapshots.get(version)
        if entry is None:
            raise StorageError(
                f"unknown snapshot version {version!r} "
                f"(backend {self.name})")
        return load_engine(
            entry[1], backend=self.name,
            place=lambda pos: f"snapshot {version} byte {pos}")

    # -- snapshot management ---------------------------------------------

    def list_snapshots(self) -> list[SnapshotInfo]:
        return sorted((info for info, _ in self._snapshots.values()),
                      key=lambda info: info.seq)

    def evict_snapshots(self, keep: int) -> list[str]:
        snapshots = self.list_snapshots()
        evicted = []
        for info in snapshots[:max(0, len(snapshots) - keep)]:
            del self._snapshots[info.version]
            evicted.append(info.version)
        return evicted

    # -- the log medium --------------------------------------------------

    def wal_store(self) -> Optional[WalStore]:
        return self._wal

    def describe(self) -> str:
        return "<memory backend>"
