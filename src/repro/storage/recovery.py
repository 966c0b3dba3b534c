"""Atomic checkpoints and crash recovery for the storage engine.

The recovery contract (the Sedna pairing of the §9 layout with
logging):

* ``backend.checkpoint(engine, wal=wal)`` (every
  :class:`StorageBackend`) persists the image *atomically* — for a
  file, temp file in the same directory, flush + fsync, then
  ``os.replace`` — so a crash at any point leaves either the old image
  or the new one, never a torn hybrid.  The image records the WAL
  horizon (the last LSN it covers) and the log is reset past it
  afterwards; a crash in between is harmless because replay skips
  records at or below the horizon.
* :func:`recover` loads the last checkpoint image, scans the WAL up
  to the first torn or corrupt record, discards every record of a
  transaction without a COMMIT, and replays the committed suffix in
  LSN order.  Replay re-derives each numbering label and asserts it
  equals the logged one — labels survive recovery without relabeling
  (Proposition 1 extended across the crash), which the result exposes
  as ``relabels == 0``.
* After replay the §9 invariants are re-checked (block chains, label
  ordering, parent pointers); with a schema, §6.2 conformance is
  verified through the typed :class:`StorageNodeStore`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.errors import CorruptionError, StorageError
from repro.storage.backends.base import (
    StorageBackend,
    schema_fingerprint,
    snapshot_version,
)
from repro.storage.engine import StorageEngine
from repro.storage.indexes import VALUE, decode_definition
from repro.storage.wal import (
    COMMIT,
    CREATE_INDEX,
    DDL_KINDS,
    DELETE,
    INSERT_ELEMENT,
    INSERT_TEXT,
    LOAD,
    OP_KINDS,
    WalRecord,
    WalScan,
    WriteAheadLog,
    read_wal_store,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.schema.ast import DocumentSchema


class RecoveryError(StorageError):
    """Recovery could not reconstruct a consistent engine."""


@dataclass
class RecoveryResult:
    """What :func:`recover` reconstructed and what it threw away."""

    engine: StorageEngine
    image_path: str
    wal_path: Optional[str]
    checkpoint_lsn: int
    replayed: int = 0
    skipped: int = 0       # records at or below the checkpoint horizon
    discarded: int = 0     # records of transactions without a COMMIT
    torn_bytes: int = 0
    committed_txns: list[int] = field(default_factory=list)
    discarded_txns: list[int] = field(default_factory=list)
    relabels: int = 0      # asserted 0: Proposition 1 across the crash
    conformance_violations: int = 0
    index_definitions: int = 0  # live index declarations after replay
    indexes_verified: int = 0   # indexes bisimulation-checked vs rebuild
    backend: str = "file"       # which StorageBackend held the state
    snapshot_version: Optional[str] = None  # version id of the image
    #: The log as this recovery read it (None without a WAL medium).
    scan: Optional[WalScan] = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "image": self.image_path,
            "wal": self.wal_path,
            "backend": self.backend,
            "snapshot_version": self.snapshot_version,
            "checkpoint_lsn": self.checkpoint_lsn,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "discarded": self.discarded,
            "torn_bytes": self.torn_bytes,
            "committed_txns": self.committed_txns,
            "discarded_txns": self.discarded_txns,
            "relabels": self.relabels,
            "nodes": self.engine.node_count(),
            "blocks": self.engine.block_count(),
            "index_definitions": self.index_definitions,
            "indexes_verified": self.indexes_verified,
        }


# ----------------------------------------------------------------------
# Bulk load.


def bulk_load(engine: StorageEngine, document, backend: StorageBackend,
              wal: WriteAheadLog,
              preserve_whitespace: bool = False) -> dict:
    """Load *document* into an empty engine with per-op logging off.

    ``load_document`` builds the §9 block lists directly, so the load
    itself costs no WAL traffic.  Durability comes from one logical
    marker — BEGIN / LOAD(node count) / COMMIT — followed immediately
    by a checkpoint on *backend*, which places the marker at or below the
    new horizon.  A committed LOAD found *past* the horizon at
    recovery is unrecoverable by construction (its nodes have no
    per-op records) and :func:`recover` refuses it, so the crash
    window between COMMIT and checkpoint behaves like a crash before
    the load started: the operator re-runs the load.

    Declared secondary indexes are populated once, after the load, in
    a single build pass per index instead of per-node maintenance.
    Returns a stats dict (node count, txn id, horizon, WAL records).
    """
    if engine.document is not None:
        raise StorageError("bulk_load requires an empty engine")
    was_active = engine.indexes.active
    engine.indexes.active = False  # defer maintenance to one rebuild
    try:
        engine.load_document(document,
                             preserve_whitespace=preserve_whitespace)
    finally:
        engine.indexes.active = was_active
    manager = engine.txn_manager
    txn_id = manager.claim_txn_id() if manager is not None else 1
    count = engine.node_count()
    wal.append_begin(txn_id)
    wal.append_load(txn_id, count)
    wal.append_commit(txn_id)
    horizon = backend.checkpoint(engine, wal=wal).lsn
    engine.indexes.rebuild_all()
    obs.REGISTRY.counter("recovery.bulk_loads").inc()
    obs.REGISTRY.counter("recovery.bulk_load.nodes").inc(count)
    return {"nodes": count, "txn": txn_id, "checkpoint_lsn": horizon,
            "wal_records": 3}


# ----------------------------------------------------------------------
# Recovery.


def recover(backend: StorageBackend, *,
            schema: "Optional[DocumentSchema]" = None,
            strict: bool = False) -> RecoveryResult:
    """Reconstruct an engine from *backend*'s checkpoint snapshot and
    its own WAL medium.

    With *schema*, §6.2 conformance of the recovered document is
    verified through the typed storage NodeStore and violations raise
    :class:`RecoveryError`.  *strict* additionally asserts global
    document-order monotonicity of every numbering label.
    """
    with obs.TRACER.span("recovery.recover"):
        return _recover(backend, schema, strict)


def _recover(backend, schema, strict) -> RecoveryResult:
    recover_started = time.perf_counter_ns()
    try:
        engine = backend.load_engine()
    except CorruptionError:
        raise  # damaged state keeps its located error
    except StorageError as error:
        raise RecoveryError(str(error)) from error
    store = backend.wal_store()
    scan = read_wal_store(store) if store is not None else None
    # Materialize the Proposition 1 counters at zero: recovery
    # must never relabel, and the explicit 0 is the claim.
    obs.REGISTRY.counter("numbering.relabels.sedna")
    obs.REGISTRY.counter("storage.relabels")
    result = RecoveryResult(
        engine=engine, image_path=backend.describe(),
        wal_path=store.describe() if store is not None else None,
        checkpoint_lsn=engine.checkpoint_lsn, backend=backend.name,
        # The version of the image this recovery started from —
        # computed before replay, which may change the schema shape.
        snapshot_version=snapshot_version(engine.checkpoint_lsn,
                                          schema_fingerprint(engine)),
        scan=scan)

    if scan is not None:
        result.torn_bytes = scan.torn_bytes
        done = replay(engine, {}, scan, engine.checkpoint_lsn)
        result.replayed = done.replayed
        result.skipped = done.skipped
        result.discarded = done.discarded
        result.committed_txns = done.committed_txns
        result.discarded_txns = done.discarded_txns

    result.relabels = engine.relabel_count
    if result.relabels:  # pragma: no cover - Proposition 1 holds
        raise RecoveryError(
            f"recovery relabeled {result.relabels} nodes")
    if result.replayed:
        # With nothing replayed the engine is exactly what the image
        # loader built, and the loader ran this very check on it.
        try:
            engine.check_invariants()
        except StorageError as error:
            raise RecoveryError(
                f"recovered engine is corrupt: {error}") from error
    result.index_definitions = len(engine.indexes)
    if engine.indexes.active:
        # Reconciliation: the indexes carried through image load +
        # incremental replay maintenance must bisimulate a rebuild
        # from the recovered block lists.
        try:
            result.indexes_verified = \
                engine.indexes.verify_consistency()
        except StorageError as error:
            raise RecoveryError(
                f"recovered index state is inconsistent: {error}") \
                from error
    if strict:
        _verify_label_order(engine)
        # Replay maintained the statistics through the same mutation
        # hooks as live traffic; in strict mode the digest must match
        # a from-scratch recount of the recovered block lists.
        try:
            engine.stats.verify_consistency(engine)
        except StorageError as error:
            raise RecoveryError(
                f"recovered statistics are inconsistent: {error}") \
                from error
    if schema is not None:
        result.conformance_violations = _verify_conformance(engine,
                                                            schema)
    obs.REGISTRY.counter("recovery.replayed").inc(result.replayed)
    obs.REGISTRY.counter("recovery.discarded").inc(result.discarded)
    if result.torn_bytes:
        obs.REGISTRY.counter("recovery.torn_tails").inc()
    obs.REGISTRY.histogram("recovery.replay.ns").observe(
        time.perf_counter_ns() - recover_started)
    return result


@dataclass
class Replay:
    """What one :func:`replay` pass applied, passed over and touched."""

    replayed: int = 0
    skipped: int = 0       # records at or below *after_lsn*
    discarded: int = 0     # records of transactions without a COMMIT
    committed_txns: list[int] = field(default_factory=list)
    discarded_txns: list[int] = field(default_factory=list)
    #: Every descriptor a replayed record inserted, overwrote or
    #: deleted (a deleted subtree in full) — the scope of the §9 and
    #: index checks for a caller that need not re-check everything.
    touched: list = field(default_factory=list)


def replay(engine: StorageEngine, nid_index: dict, scan: WalScan,
           after_lsn: int) -> Replay:
    """Redo onto *engine*, in LSN order, every record of *scan* beyond
    *after_lsn* whose transaction committed — the one replay loop:
    :func:`recover` runs it on a freshly loaded image (*after_lsn* its
    checkpoint LSN), a reader snapshot on the engine it already holds
    (*after_lsn* the horizon it is at).

    *nid_index* maps a label to the descriptor that carries it.  The
    caller owns it; an empty one is filled from *engine* when the
    first record has to be applied (O(document), so a pass that
    applies nothing does not pay it), and every applied record keeps
    it current, so the next pass over the same engine reuses it.
    """
    done = Replay()
    committed = scan.committed_txns()
    for record in scan.records:
        kind = record.kind
        if kind == COMMIT and record.txn not in done.committed_txns:
            done.committed_txns.append(record.txn)
        if not (kind in OP_KINDS or kind in DDL_KINDS or kind == LOAD):
            continue  # framing: BEGIN / COMMIT / ABORT / CHECKPOINT
        if record.lsn <= after_lsn:
            # For a LOAD the normal case: the bulk-load protocol
            # checkpoints right after the marker.
            done.skipped += 1
            continue
        if record.txn not in committed:
            done.discarded += 1
            if record.txn not in done.discarded_txns:
                done.discarded_txns.append(record.txn)
            continue
        if kind == LOAD:
            raise RecoveryError(
                f"WAL record {record.lsn}: a committed bulk "
                f"LOAD of {record.node_count} nodes was never "
                "checkpointed — its nodes have no per-op "
                "records and cannot be replayed; re-run the "
                "load")
        if kind in DDL_KINDS:
            _apply_ddl(engine, record)
        else:
            if not nid_index:
                nid_index.update((d.nid, d) for d
                                 in engine.iter_document_order())
            _apply(engine, nid_index, record, done.touched)
        done.replayed += 1
    return done


def _apply(engine: StorageEngine, index: dict, record: WalRecord,
           touched: list) -> None:
    """Redo one committed logical record.

    The engine re-derives the numbering label from the same state the
    original mutation saw; a mismatch with the logged label would mean
    replay relabeled — a Proposition 1 violation — and raises.
    """
    if record.kind == DELETE:
        descriptor = index.get(record.nid)
        if descriptor is None:
            raise RecoveryError(
                f"WAL record {record.lsn}: delete target "
                f"{record.nid!r} not present at replay")
        doomed = list(engine.iter_document_order(descriptor))
        engine.delete_subtree(descriptor)
        for gone in doomed:
            index.pop(gone.nid, None)
        touched.extend(doomed)
        return
    parent = index.get(record.parent_nid)
    if parent is None:
        raise RecoveryError(
            f"WAL record {record.lsn}: parent {record.parent_nid!r} "
            "not present at replay")
    if record.kind == INSERT_ELEMENT:
        descriptor = engine.insert_child(parent, record.index,
                                         name=record.name)
    elif record.kind == INSERT_TEXT:
        descriptor = engine.insert_child(parent, record.index,
                                         text=record.text)
    else:  # SET_ATTRIBUTE
        descriptor = engine.set_attribute(parent, record.name,
                                          record.text or "",
                                          replace=record.replace)
    if descriptor.nid != record.nid:
        raise RecoveryError(
            f"WAL record {record.lsn}: replay produced label "
            f"{descriptor.nid!r}, log says {record.nid!r}")
    index[descriptor.nid] = descriptor
    touched.append(descriptor)


def _apply_ddl(engine: StorageEngine, record: WalRecord) -> None:
    """Redo one committed index DDL record.

    The recovered engine has no transaction manager attached, so the
    re-execution installs or drops the index without re-logging; the
    contents are rebuilt from the replayed block lists.
    """
    try:
        definition = decode_definition(record.index_path or "",
                                       record.index_kind or VALUE,
                                       record.value_type or "string")
        if record.kind == CREATE_INDEX:
            engine.create_index(definition.path, definition.value_type)
        else:
            engine.drop_index(definition.path)
    except StorageError as error:
        raise RecoveryError(
            f"WAL record {record.lsn}: index DDL replay failed: "
            f"{error}") from error


def _verify_label_order(engine: StorageEngine) -> None:
    """Strict mode: every label strictly grows along document order."""
    previous = None
    for descriptor in engine.iter_document_order():
        if previous is not None and previous.nid >= descriptor.nid:
            raise RecoveryError(
                f"document order broken between {previous!r} and "
                f"{descriptor!r}")
        previous = descriptor


def _verify_conformance(engine: StorageEngine,
                        schema: "DocumentSchema") -> int:
    """§6.2 conformance of the recovered document (typed store)."""
    # Imported lazily: the algebra layer sits above storage.
    from repro.algebra import ConformanceChecker
    from repro.storage.store import StorageNodeStore
    store = StorageNodeStore.typed(engine, schema)
    violations = ConformanceChecker(schema).check_store(store)
    if violations:
        raise RecoveryError(
            f"recovered document violates {len(violations)} §6.2 "
            f"requirement(s): {violations[0]}")
    return 0
