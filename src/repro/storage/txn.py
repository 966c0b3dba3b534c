"""Explicit transactions over the storage engine.

The manager attaches to a :class:`StorageEngine` and turns its
mutations into logged, atomic units.  It owns the protocol; what a
mutation logs and how it is inverted is the engine's, said where the
mutation is:

* under an open transaction the engine appends each mutation's logical
  WAL record **before** the in-memory structures change (the
  write-ahead rule) and pushes the inverse operation **after** they
  have;
* a transaction groups records between BEGIN and COMMIT — recovery
  replays exactly the committed groups;
* rollback runs the pushed inverses newest first (inserted descriptors
  are unlinked, replaced attribute values are restored, deleted
  subtrees go back in label-exactly) and writes an ABORT marker;
* in *strict* mode a commit first re-verifies the §9 block and label
  invariants (``check_invariants``) and rolls back instead of
  committing a corrupt state.

Mutations outside an explicit transaction autocommit: the engine wraps
each one in a single-operation BEGIN/COMMIT, so an attached engine is
always durable.

A simulated :class:`~repro.storage.faults.CrashError` is *not* rolled
back — the process model is dead, its memory is gone, and recovery
from the files is the only way back.  That is exactly what the
crash-matrix tests assert.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro import obs
from repro.errors import StorageError, UpdateError
from repro.storage.faults import CrashError
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.engine import StorageEngine


class Transaction:
    """One open unit of work: an id, a state and an undo list — per
    applied mutation ``(inverse, *arguments)``, pushed by the engine
    once the mutation is in memory and run newest first by rollback."""

    __slots__ = ("txn_id", "state", "undo")

    def __init__(self, txn_id: int) -> None:
        self.txn_id = txn_id
        self.state = "open"
        self.undo: list[tuple] = []

    def __repr__(self) -> str:
        return (f"Transaction(#{self.txn_id}, {self.state}, "
                f"{len(self.undo)} undo entries)")


class TransactionManager:
    """Write-ahead logging and atomicity for one engine."""

    def __init__(self, engine: "StorageEngine", wal: WriteAheadLog,
                 strict: bool = False) -> None:
        if engine.txn_manager is not None:
            raise StorageError("engine already has a transaction manager")
        self.engine = engine
        self.wal = wal
        self.strict = strict
        self.active: Optional[Transaction] = None
        # Continue the log's id sequence: recovery and the snapshot
        # key decide "committed" by id, over whatever the log holds.
        self._next_txn = wal.last_txn + 1
        self._undoing = False
        engine.txn_manager = self

    def detach(self) -> None:
        """Release the engine (mutations stop being logged)."""
        self.engine.txn_manager = None

    # -- state tests used by the engine -----------------------------------

    @property
    def logging(self) -> bool:
        """True when mutations must produce WAL records + undo entries
        (not while a rollback is running the inverses)."""
        return self.active is not None and not self._undoing

    def autocommit_needed(self) -> bool:
        return self.active is None and not self._undoing

    # -- the transaction protocol ---------------------------------------

    def begin(self) -> Transaction:
        if self.active is not None:
            raise UpdateError(
                "a transaction is already open (no nesting)")
        txn = Transaction(self._next_txn)
        self._next_txn += 1
        self.wal.append_begin(txn.txn_id)
        self.active = txn
        return txn

    def _require_open(self) -> Transaction:
        if self.active is None:
            raise UpdateError("no open transaction")
        return self.active

    def commit(self) -> None:
        """Seal the open transaction (write-ahead COMMIT record).

        Strict mode re-verifies the engine invariants first and turns
        a violation into a rollback + re-raise: a corrupt state is
        never durably committed.
        """
        txn = self._require_open()
        started = time.perf_counter_ns()
        if self.strict:
            try:
                self.engine.check_invariants()
            except StorageError:
                self.rollback()
                raise
        self.wal.append_commit(txn.txn_id)
        txn.state = "committed"
        self.active = None
        obs.REGISTRY.counter("txn.commits").inc()
        obs.REGISTRY.histogram("txn.commit.ns").observe(
            time.perf_counter_ns() - started)

    def rollback(self) -> None:
        """Undo the open transaction's in-memory effects, mark ABORT."""
        txn = self._require_open()
        started = time.perf_counter_ns()
        self._undoing = True
        try:
            for inverse, *arguments in reversed(txn.undo):
                inverse(*arguments)
        finally:
            self._undoing = False
        self.wal.append_abort(txn.txn_id)
        txn.state = "aborted"
        self.active = None
        obs.REGISTRY.counter("txn.rollbacks").inc()
        obs.REGISTRY.histogram("txn.rollback.ns").observe(
            time.perf_counter_ns() - started)

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """``with manager.transaction(): ...`` — commit on success,
        rollback on error, hands-off on a simulated crash."""
        txn = self.begin()
        try:
            yield txn
        except CrashError:
            # The process model died: memory is forfeit, nothing more
            # may be written.  Recovery discards the unfinished group.
            raise
        except BaseException:
            if self.active is txn:
                self.rollback()
            raise
        if self.active is txn:
            self.commit()

    def __repr__(self) -> str:
        state = repr(self.active) if self.active else "idle"
        return f"TransactionManager({state}, strict={self.strict})"
