"""Explicit transactions over the storage engine.

The manager attaches to a :class:`StorageEngine` and turns its three
mutations into logged, atomic units:

* every mutation appends a logical WAL record **before** the in-memory
  structures change (the write-ahead rule);
* a transaction groups records between BEGIN and COMMIT — recovery
  replays exactly the committed groups;
* rollback undoes the in-memory effects via inverse operations
  (inserted descriptors are unlinked, replaced attribute values are
  restored, deleted subtrees are rebuilt label-exactly) and writes an
  ABORT marker;
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
from repro.xmlio.qname import QName

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.descriptor import NodeDescriptor
    from repro.storage.engine import StorageEngine
    from repro.storage.labels import NidLabel


class Transaction:
    """One open unit of work: an id, a state and an undo list."""

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

    # -- state tests used by the engine hooks ---------------------------

    @property
    def logging(self) -> bool:
        """True when mutations must produce WAL records + undo entries."""
        return self.active is not None and not self._undoing

    def autocommit_needed(self) -> bool:
        return self.active is None and not self._undoing

    def claim_txn_id(self) -> int:
        """Reserve a fresh transaction id without opening a
        transaction (used by the bulk-load LOAD marker)."""
        txn_id = self._next_txn
        self._next_txn += 1
        return txn_id

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
            for entry in reversed(txn.undo):
                self._undo_entry(entry)
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

    # -- engine hooks (write-ahead logging + undo capture) --------------

    def log_insert(self, parent: "NodeDescriptor", index: int,
                   name: Optional[QName], text: Optional[str],
                   nid: "NidLabel") -> None:
        txn = self._require_open()
        if name is not None:
            self.wal.append_insert_element(txn.txn_id, parent.nid, index,
                                           name, nid)
        else:
            self.wal.append_insert_text(txn.txn_id, parent.nid, index,
                                        text or "", nid)

    def applied_insert(self, descriptor: "NodeDescriptor") -> None:
        self._require_open().undo.append(("insert", descriptor))

    def log_set_attribute(self, parent: "NodeDescriptor", name: QName,
                          value: str, nid: "NidLabel",
                          replace: bool) -> None:
        txn = self._require_open()
        self.wal.append_set_attribute(txn.txn_id, parent.nid, name,
                                      value, nid, replace)

    def applied_set_attribute(self, descriptor: "NodeDescriptor",
                              old_value: Optional[str],
                              created: bool) -> None:
        txn = self._require_open()
        if created:
            txn.undo.append(("insert", descriptor))
        else:
            txn.undo.append(("value", descriptor, old_value))

    def log_create_index(self, definition) -> None:
        txn = self._require_open()
        self.wal.append_create_index(txn.txn_id, definition.path,
                                     definition.kind,
                                     definition.value_type)

    def applied_create_index(self, definition) -> None:
        self._require_open().undo.append(("create_index", definition))

    def log_drop_index(self, definition) -> None:
        txn = self._require_open()
        self.wal.append_drop_index(txn.txn_id, definition.path,
                                   definition.kind)

    def applied_drop_index(self, definition) -> None:
        self._require_open().undo.append(("drop_index", definition))

    def log_delete(self, descriptor: "NodeDescriptor") -> None:
        """WAL record plus a label-exact snapshot for the inverse op.

        The snapshot is taken *before* the subtree is dismantled; each
        entry carries the schema node, the nid, the value and a parent
        key (a live descriptor for the subtree root, an earlier
        entry's nid symbols below it), in document order so parents
        restore before their children.
        """
        txn = self._require_open()
        self.wal.append_delete(txn.txn_id, descriptor.nid)
        entries: list[tuple] = []
        for node in self.engine.iter_document_order(descriptor):
            if node is descriptor:
                parent_key: object = node.parent
            else:
                parent_key = node.parent.nid.symbols()  # type: ignore
            entries.append((node.schema_node, node.nid, node.value,
                            parent_key))
        txn.undo.append(("delete", entries))

    # -- inverse operations ---------------------------------------------

    def _undo_entry(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "insert":
            self.engine._undo_insert(entry[1])
        elif kind == "value":
            self.engine._undo_set_value(entry[1], entry[2])
        elif kind == "delete":
            self.engine._restore_subtree(entry[1])
        elif kind == "create_index":
            self.engine.indexes.uninstall(entry[1])
        elif kind == "drop_index":
            self.engine.indexes.install(entry[1])
        else:  # pragma: no cover - defensive
            raise StorageError(f"unknown undo entry {kind!r}")

    def __repr__(self) -> str:
        state = repr(self.active) if self.active else "idle"
        return f"TransactionManager({state}, strict={self.strict})"
