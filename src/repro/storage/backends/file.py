"""The historical durability layout, behind the backend protocol.

One atomic image file (:mod:`repro.storage.persist`) plus one WAL
file — exactly the behavior :mod:`repro.storage.recovery` shipped
with, extracted unchanged so every pre-protocol test passes through
the seam:

* checkpoint = temp file in the same directory, flush + fsync,
  ``os.replace``, directory fsync — a crash at any fault point leaves
  either the old image or the new one, never a torn hybrid;
* the WAL is a sibling file driven through
  :class:`~repro.storage.wal.FileWalStore`.

Every checkpoint *writes* the whole image but encodes only the blocks
a write touched (:func:`repro.storage.persist.block_payload`).
Snapshot versions are whole-image copies under
``<image>.snapshots/<seq>_<lsn>-<fingerprint>.img`` (the whole schema
fingerprint; a copy named ``<seq>_<version>.img`` still lists, under
the fingerprint prefix its name has), recorded *after* the atomic
rename: a crash while recording one never damages the recovery image.
``seq`` numbers the copies in write order (1, 2, 3, … as the other
media number theirs), so retention keeps the newest checkpoints even
when several share an LSN — a version id alone orders them by
fingerprint, not by time.  Re-recording a version moves it to the
newest ``seq``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.errors import StorageError
from repro.storage import faults
from repro.storage.backends.base import (
    DEFAULT_MAX_SNAPSHOTS,
    SnapshotInfo,
    StorageBackend,
    parse_version,
    schema_fingerprint,
    snapshot_version,
)
from repro.storage.faults import CrashError
from repro.storage.persist import dumps_engine, load_engine
from repro.storage.wal import FileWalStore, WalStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import StorageEngine


def _fsync_directory(directory: Path) -> None:
    """Make a rename durable (best-effort on exotic filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def write_image_atomically(path: Path, data: bytes) -> None:
    """The classic checkpoint write: temp + fsync + rename, with the
    ``persist.write`` / ``persist.write.torn`` / ``persist.rename``
    fault points exactly where they always were."""
    tmp = path.with_name(path.name + ".tmp")
    faults.fire("persist.write")
    with open(tmp, "wb") as handle:
        if faults.wants("persist.write.torn"):
            handle.write(data[:max(1, len(data) // 2)])
            handle.flush()
            raise CrashError("persist.write.torn")
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    faults.fire("persist.rename")
    os.replace(tmp, path)
    _fsync_directory(path.parent)


class FileBackend(StorageBackend):
    """Atomic image file + WAL file (the extracted historical shape)."""

    name = "file"

    def __init__(self, image_path: str | os.PathLike,
                 wal_path: Optional[str | os.PathLike] = None,
                 max_snapshots: Optional[int] = DEFAULT_MAX_SNAPSHOTS
                 ) -> None:
        super().__init__(max_snapshots=max_snapshots)
        self.image_path = Path(image_path)
        self.wal_path = Path(wal_path) if wal_path is not None else None
        self._wal_store: Optional[FileWalStore] = None

    @property
    def snapshot_dir(self) -> Path:
        return self.image_path.with_name(self.image_path.name
                                         + ".snapshots")

    # -- checkpointing ---------------------------------------------------

    def _write_snapshot(self, engine: "StorageEngine",
                        horizon: int) -> SnapshotInfo:
        data = dumps_engine(engine, checkpoint_lsn=horizon)
        write_image_atomically(self.image_path, data)
        fingerprint = schema_fingerprint(engine)
        version = snapshot_version(horizon, fingerprint)
        # Version recording happens strictly after the atomic rename:
        # a crash from here on loses at worst the *copy*, never the
        # recovery image.
        self.snapshot_dir.mkdir(exist_ok=True)
        snapshots = self.list_snapshots()
        seq = snapshots[-1].seq + 1 if snapshots else 1
        for info in snapshots:
            if info.version == version:
                self._copy_path(info).unlink(missing_ok=True)
        info = SnapshotInfo(version=version, lsn=horizon,
                            fingerprint=fingerprint, seq=seq,
                            bytes=len(data))
        target = self._copy_path(info)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, target)
        return info

    # -- loading ---------------------------------------------------------

    def load_engine(self) -> "StorageEngine":
        if not self.image_path.exists():
            raise StorageError(
                f"no checkpoint image at {self.image_path}")
        return load_engine(self.image_path.read_bytes(),
                           backend=self.name)

    def restore(self, version: str) -> "StorageEngine":
        for info in self.list_snapshots():
            if info.version == version:
                return load_engine(
                    self._copy_path(info).read_bytes(), backend=self.name,
                    place=lambda pos: f"snapshot {version} byte {pos}")
        raise StorageError(
            f"unknown snapshot version {version!r} "
            f"(backend {self.name}, {self.describe()})")

    # -- snapshot management ---------------------------------------------

    def _copy_path(self, info: SnapshotInfo) -> Path:
        return self.snapshot_dir / (
            f"{info.seq:08d}_{info.lsn:010d}-{info.fingerprint}.img")

    def list_snapshots(self) -> list[SnapshotInfo]:
        if not self.snapshot_dir.is_dir():
            return []
        infos = []
        for entry in self.snapshot_dir.glob("*_*.img"):
            seq, _, name = entry.stem.partition("_")
            if not seq.isdecimal():
                raise StorageError(f"malformed snapshot copy {entry}")
            # A copy is named by its LSN and whole fingerprint; one
            # named by its version (the 12-digit prefix) lists as such.
            lsn, fingerprint = parse_version(name)
            infos.append(SnapshotInfo(
                version=snapshot_version(lsn, fingerprint), lsn=lsn,
                fingerprint=fingerprint, seq=int(seq),
                bytes=entry.stat().st_size))
        return sorted(infos, key=lambda info: info.seq)

    def evict_snapshots(self, keep: int) -> list[str]:
        snapshots = self.list_snapshots()
        evicted = []
        for info in snapshots[:max(0, len(snapshots) - keep)]:
            self._copy_path(info).unlink(missing_ok=True)
            evicted.append(info.version)
        return evicted

    # -- the log medium --------------------------------------------------

    def wal_store(self) -> Optional[WalStore]:
        if self.wal_path is None:
            return None
        if self._wal_store is None:
            self._wal_store = FileWalStore(self.wal_path)
        return self._wal_store

    def close(self) -> None:
        if self._wal_store is not None:
            self._wal_store.close()
            self._wal_store = None

    def describe(self) -> str:
        return str(self.image_path)
