"""MVCC-lite reader snapshots over a storage backend.

A reader must see a frozen, committed state while the writer keeps
appending — without either blocking the other.  The machinery the
durability layer already provides is exactly enough:

* the backend's checkpoint image is immutable once published (atomic
  rename / COMMIT-barrier publish), and
* the WAL yields the durable record sequence — the writer publishes
  each record on :attr:`~repro.storage.wal.WriteAheadLog.scan` only
  after its durability barrier, and a scan of the store
  (:func:`repro.storage.wal.read_wal_store`) discards torn tails — and
  a record counts only once its transaction's COMMIT landed.

So a **snapshot key** is the pair ``(checkpoint_lsn, horizon)``:
*checkpoint_lsn* is what the log's CHECKPOINT marker says the image
covers, *horizon* the last LSN belonging to a committed transaction
(the marker's own LSN in a log without one yet).
A snapshot at a key holds the image plus exactly that committed
prefix: uncommitted and torn suffixes are unobservable by
construction, every numbering label is re-derived on replay and
compared with the logged one (relabels == 0, Proposition 1), and the
§9 invariants are re-checked.

**The log is followed, not re-read.**  The manager of a server
follows the writer's published records in memory (:class:`_LogView`):
under its lock it copies the records published since the last key and
folds them, so the key — and on a miss the records to apply — come
from one copy nothing else appends to.  A record the writer publishes
meanwhile reaches neither a key nor an advance that did not fold it.
A pin *hit* costs a length compare plus a dictionary lookup; no store
is read and no frame decoded, however long the log has grown.  A
standalone manager (no log to follow, no concurrent writer) scans
the backend's store afresh for every key.

**A miss advances a spare.**  A committed transaction is a local
change (§9.2: an insertion touches one block; Proposition 1: nothing
is ever relabelled), so a new horizon is not rebuilt from the image.
The manager takes the newest cached snapshot nobody has pinned whose
horizon the current log still reaches back to, applies the committed
records beyond it through :func:`repro.storage.recovery.replay` — the
same loop ``recover()`` runs, with the same per-record label
comparison — re-checks the §9 invariants and the index entries of
what those records touched, re-keys it and hands it out.  Its engine,
nid index, secondary indexes, statistics and query engine (plan cache
included) are kept and maintained incrementally.  An unpinned version
is a spare, not garbage: a long-lived reader costs one extra
``recover()``, after which every released engine is the next base.
The advance runs under the manager lock, so two readers arriving at
one new horizon build it once.  Its cost is one pass over the log
records the view holds, the replayed records (each placed by
packed label key: a compare per block of its schema node and a
bisection inside the target block), and the scoped check: the changed
blocks × their capacity (a block whose chain did not change keeps its
verdict and is not walked), one boundary compare per block of each
touched schema node, and the touched parents' child lists.

A snapshot engine is therefore **never written while pinned** (it has
no transaction manager and no writer ever sees it); between pins it
may move forward.  Node handles a session obtained stay valid while
that session is open, not longer.

**``recover()`` is the fallback**, and stays the oracle: the first
pin, a miss with no eligible base (every cached snapshot pinned, or
older than the log's checkpoint), and a base whose advance failed
(it is dropped; recovery decides whether the log or the spare was at
fault).  Only there are image and log read from the backend, in two
reads, so the pin holds the *write latch* the owning server commits
and checkpoints under for one ``recover()``: no commit or checkpoint
lands between the two reads, and the snapshot is keyed from the log
``recover()`` itself read, so key and contents agree even over a
COMMIT the store holds and the writer has not published yet.
Nothing is checked afterwards or retried.  A standalone manager has
no latch and assumes no concurrent writer.

The writer never takes part on the fast path: it appends to the WAL
and mutates the live engine while readers pin, query and release.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.errors import StorageError
from repro.server.session import SessionError
from repro.storage.recovery import RecoveryError, recover, replay
from repro.storage.wal import (
    CHECKPOINT,
    COMMIT,
    DDL_KINDS,
    OP_KINDS,
    WalScan,
    read_wal_store,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.engine import StorageQueryEngine
    from repro.storage.backends.base import StorageBackend
    from repro.storage.engine import StorageEngine
    from repro.storage.wal import WriteAheadLog

#: Distinct snapshot versions kept around by default (the newest is
#: never evicted while unpinned; pinned versions are never evicted).
DEFAULT_MAX_CACHED = 4


class Snapshot:
    """One committed-only view of the database, frozen while pinned."""

    __slots__ = ("key", "engine", "pins", "relabels", "nid_index",
                 "_queries")

    def __init__(self, key: tuple[int, int],
                 engine: "StorageEngine", relabels: int) -> None:
        #: ``(checkpoint_lsn, committed_wal_horizon)`` — the version id.
        self.key = key
        #: The engine.  It has no transaction manager attached and no
        #: writer ever sees it; only the manager moves it forward, and
        #: only while ``pins == 0``.
        self.engine = engine
        self.pins = 0
        #: Relabels while building and advancing it — always 0
        #: (Proposition 1); recorded so sessions can assert it.
        self.relabels = relabels
        #: label -> descriptor, filled by the first advance
        #: and kept current by every later one (see ``replay``).
        self.nid_index: dict = {}
        self._queries: "Optional[StorageQueryEngine]" = None

    @property
    def checkpoint_lsn(self) -> int:
        return self.key[0]

    @property
    def horizon(self) -> int:
        return self.key[1]

    @property
    def version(self) -> str:
        """Human/JSON shape of the key."""
        return f"lsn{self.key[0]}+wal{self.key[1]}"

    def queries(self) -> "StorageQueryEngine":
        """A (lazily built, shared) query engine over the snapshot —
        readers at the same horizon share its plan cache too, and it
        follows the engine through every advance."""
        if self._queries is None:
            from repro.query.engine import StorageQueryEngine
            self._queries = StorageQueryEngine(self.engine)
        return self._queries

    def __repr__(self) -> str:
        return (f"Snapshot({self.version}, pins={self.pins}, "
                f"{self.engine.node_count()} nodes)")


class _LogView:
    """The manager's copy of the log, and what it says about pins.

    :meth:`follow` copies the records a published scan holds beyond
    the copy and folds each into the three facts a pin needs: the
    CHECKPOINT marker, the committed horizon, and the *floor* below
    which interleaved transactions make a cached snapshot's horizon
    an unsafe place to resume replay from (0 in a serial log).  A
    different scan object — the writer's log was reset, or a fresh
    read of the store — starts the view over.
    """

    __slots__ = ("source", "scan", "marker", "horizon", "floor",
                 "committed", "unresolved")

    def __init__(self) -> None:
        self._start_over(None)

    def _start_over(self, source: Optional[WalScan]) -> None:
        #: The scan being followed; ``scan`` is the view's own copy of
        #: its records, so a record appended concurrently reaches
        #: neither a key nor an advance before it is folded.
        self.source = source
        self.scan = WalScan()
        #: What the CHECKPOINT marker says the image covers (None: a
        #: log that was never reset carries no marker).
        self.marker: Optional[int] = None
        #: Greatest LSN of a record whose transaction committed (or
        #: of the marker, before the first one).
        self.horizon = 0
        self.floor = 0
        self.committed: set[int] = set()
        #: Transactions with logged work and no COMMIT yet -> the LSN
        #: of their first such record.
        self.unresolved: dict[int, int] = {}

    def follow(self, published: WalScan) -> None:
        if published is not self.source:
            self._start_over(published)
        records, mine = published.records, self.scan.records
        if len(records) == len(mine):
            return
        for record in records[len(mine):]:
            mine.append(record)
            if record.kind == CHECKPOINT:
                # Everything at or below the marker is in the image,
                # not in this log.  The marker itself carries no work,
                # so the image is already *at* the marker's LSN: a
                # snapshot pinned between two checkpoints with no
                # commit in between still reaches the second log.
                self.marker = record.checkpoint_lsn
                self.horizon = record.lsn
            elif record.kind == COMMIT:
                self.committed.add(record.txn)
                first = self.unresolved.pop(record.txn, record.lsn)
                if first < self.horizon:
                    # Another commit landed between this
                    # transaction's first record and its COMMIT: a
                    # snapshot at that horizon lacks work logged
                    # *below* it, which replaying "beyond the
                    # horizon" would never apply.
                    self.floor = record.lsn
            if record.txn in self.committed:
                self.horizon = record.lsn
            elif record.kind in OP_KINDS or record.kind in DDL_KINDS:
                self.unresolved.setdefault(record.txn, record.lsn)

    def key(self, image_lsn: Callable[[], int]) -> tuple[int, int]:
        """``(checkpoint_lsn, horizon)``; *image_lsn* — the published
        image's LSN — is asked only of a log without a marker."""
        checkpoint_lsn = (self.marker if self.marker is not None
                          else image_lsn())
        return (checkpoint_lsn, max(checkpoint_lsn, self.horizon))


class SnapshotManager:
    """Pin-counted cache of snapshots over one backend."""

    def __init__(self, backend: "StorageBackend",
                 max_cached: int = DEFAULT_MAX_CACHED,
                 write_latch: Optional[threading.Lock] = None,
                 wal: "Optional[WriteAheadLog]" = None) -> None:
        self.backend = backend
        self.max_cached = max_cached
        #: Lock the owning server holds across every commit and
        #: checkpoint; the ``recover()`` fallback holds it so image
        #: and log are read with no commit or checkpoint in between.
        #: Taken before the manager lock, never while holding it.
        #: ``None``: standalone, no concurrent writer, nothing to take.
        self._write_latch = (nullcontext() if write_latch is None
                             else write_latch)
        #: The writer's log, followed in memory (its ``scan``); None
        #: (standalone) reads the backend's store afresh for every
        #: key.
        self._wal = wal
        #: Guards the cache and the log view, and is held across an
        #: advance.  Re-entrant: ``pin`` derives its key through the
        #: public ``current_key`` while holding it.
        self._lock = threading.RLock()
        self._cache: dict[tuple[int, int], Snapshot] = {}
        #: Keys, least recently built or advanced first, for eviction.
        self._order: list[tuple[int, int]] = []
        self._log = _LogView()
        #: Pins across the cached snapshots (a pinned one is never
        #: evicted or advanced, so no pin leaves the cache uncounted).
        self._pins = 0
        self._pinned_gauge = obs.REGISTRY.gauge("server.snapshot.pinned")
        self._cached_gauge = obs.REGISTRY.gauge("server.snapshot.cached")

    # -- the version key --------------------------------------------------

    def current_key(self) -> tuple[int, int]:
        """The key a snapshot pinned *now* would get.

        ``checkpoint_lsn`` is what the log's CHECKPOINT marker says
        the image covers (the published image's LSN for a log that
        was never reset); ``horizon`` is the greatest LSN of any
        committed record in the durable WAL — the marker's own LSN
        while the log holds no committed work yet — together: "image
        plus committed log prefix".  Following the writer's log, only
        the records published since the previous call are folded.
        """
        with self._lock:
            if self._wal is not None:
                published = self._wal.scan
            else:
                store = self.backend.wal_store()
                if store is None:
                    image_lsn = self._image_lsn()
                    return (image_lsn, image_lsn)
                published = read_wal_store(store)
            log = self._log
            log.follow(published)
            return log.key(self._image_lsn)

    def _image_lsn(self) -> int:
        # The snapshot list is cheaper than loading the engine, and its
        # newest entry is the published image's horizon by contract.
        snapshots = self.backend.list_snapshots()
        return snapshots[-1].lsn if snapshots else 0

    # -- pin / release ----------------------------------------------------

    def pin(self) -> Snapshot:
        """A snapshot of the current committed state, frozen until
        released.

        Under the lock, from the view's copy of the log: a cache hit
        is O(1); a miss advances the newest unpinned cached snapshot
        the log still reaches (:meth:`_advance`, O(delta)).  Key and
        contents come from the same records there, so nothing can
        move between them and nothing is re-verified.

        Only when no cached snapshot can be advanced does the pin fall
        back to :func:`~repro.storage.recovery.recover`, outside the
        manager lock (readers at cached horizons are not blocked) and
        holding the write latch, so commits and checkpoints wait for
        that one ``recover()``.  The snapshot is keyed from the log
        recover() read, and a cached one at that key is reused.
        """
        with self._lock:
            key = self.current_key()
            snapshot = self._cache.get(key)
            if snapshot is not None:
                obs.REGISTRY.counter("server.snapshot.cache_hits").inc()
            else:
                snapshot = self._advance(key)
            if snapshot is not None:
                return self._pinned(snapshot)
        with self._write_latch:
            # recover() asserts relabels == 0 and the §9 invariants,
            # and by construction replays only the committed prefix —
            # the two halves of the reader-isolation guarantee.
            result = recover(self.backend)
            obs.REGISTRY.counter("server.snapshot.materializations").inc()
            log = _LogView()
            if result.scan is not None:
                log.follow(result.scan)
            key = log.key(lambda: result.checkpoint_lsn)
            with self._lock:
                snapshot = self._cache.get(key)
                if snapshot is None:
                    snapshot = Snapshot(key, result.engine,
                                        result.relabels)
                    self._cache[key] = snapshot
                    self._order.append(key)
                    self._evict_stale()
                return self._pinned(snapshot)

    def _pinned(self, snapshot: Snapshot) -> Snapshot:
        """Under the lock: count one more pin on *snapshot*."""
        snapshot.pins += 1
        self._pins += 1
        self._record_pins()
        return snapshot

    def release(self, snapshot: Snapshot) -> None:
        """Drop one pin; an unpinned version may be advanced to a
        newer horizon, and past the cache bound is evictable."""
        with self._lock:
            if snapshot.pins <= 0:
                raise SessionError(
                    f"snapshot {snapshot.version} is not pinned")
            snapshot.pins -= 1
            self._pins -= 1
            self._evict_stale()
            self._record_pins()

    def pinned(self) -> int:
        """Total pins across cached snapshots."""
        return self._pins

    def cached(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- internals --------------------------------------------------------

    def _advance(self, key: tuple[int, int]) -> Optional[Snapshot]:
        """Under the lock, right after the fold *key* came from: move
        the newest unpinned cached snapshot the log still reaches
        forward to *key*.  None when there is no such snapshot, or
        when it could not be advanced (it is dropped then)."""
        log = self._log
        for old_key in reversed(self._order):
            base = self._cache[old_key]
            # Everything the base has not applied must be in the log
            # beyond its horizon — so it covers the checkpoint, and
            # no transaction straddles it — and nothing it has
            # applied may lie beyond the key.
            if base.pins == 0 and \
                    max(key[0], log.floor) <= base.horizon <= key[1]:
                break
        else:
            return None
        # Out of the cache first: whatever interrupts the replay, a
        # half-advanced engine is never handed out.
        del self._cache[old_key]
        self._order.remove(old_key)
        engine = base.engine
        try:
            done = replay(engine, base.nid_index, log.scan,
                          base.horizon)
            if engine.relabel_count:  # pragma: no cover - Prop. 1
                raise RecoveryError(
                    f"advance relabeled {engine.relabel_count} nodes")
            engine.check_invariants(done.touched)
            if engine.indexes.active:
                engine.indexes.verify_consistency(done.touched)
        except StorageError:
            # recover() decides whether the log or this spare was at
            # fault — and raises if it was the log.
            return None
        base.key = key
        self._cache[key] = base
        self._order.append(key)
        obs.REGISTRY.counter("server.snapshot.advances").inc()
        obs.REGISTRY.histogram(
            "server.snapshot.advance.records").observe(done.replayed)
        return base

    def _record_pins(self) -> None:
        self._pinned_gauge.set(self._pins)
        self._cached_gauge.set(len(self._cache))

    def _evict_stale(self) -> None:
        """Under the lock: drop old unpinned versions past the bound
        (the newest version survives even unpinned — it is the next
        reader's cache hit, or the base of its advance)."""
        while len(self._order) > self.max_cached:
            for key in list(self._order[:-1]):
                snapshot = self._cache[key]
                if snapshot.pins == 0:
                    del self._cache[key]
                    self._order.remove(key)
                    break
            else:
                return  # everything old is pinned; nothing to evict
