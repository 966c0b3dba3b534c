"""Crash-matrix tests: fault injection, atomic checkpoints, recovery.

One workload, crashed at every named fault point (and under seeded
probabilistic plans), must always recover to a §9-invariant-clean,
§6.2-conformant engine holding exactly the committed transactions —
with zero relabels (Proposition 1 across the crash).  The matrix runs
against every shipped :class:`StorageBackend` — the crash/recovery
contract is backend-independent.
"""

import shutil

import pytest

from repro import obs
from repro.schema import parse_schema
from repro.storage import (
    CRASH_POINTS,
    SESSION_CRASH_POINTS,
    CrashError,
    FileBackend,
    FileWalStore,
    FaultPlan,
    MemoryBackend,
    SqliteBackend,
    StorageEngine,
    TransactionManager,
    WriteAheadLog,
    recover,
)
from repro.storage import faults
from repro.storage.recovery import RecoveryError
from repro.workloads.bookstore import (
    BOOKS_NAMESPACE,
    make_bookstore_document,
)
from repro.workloads.fixtures import EXAMPLE_7_SCHEMA
from repro.xmlio.parser import parse_document
from repro.xmlio.qname import QName


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


@pytest.fixture(scope="module")
def schema():
    return parse_schema(EXAMPLE_7_SCHEMA)


def make_backend(name, tmp_path):
    if name == "file":
        return FileBackend(tmp_path / "store.img",
                           wal_path=tmp_path / "store.wal")
    if name == "sqlite":
        return SqliteBackend(tmp_path / "store.db")
    return MemoryBackend()


@pytest.fixture(params=["file", "sqlite", "memory"])
def backend(request, tmp_path):
    return make_backend(request.param, tmp_path)


def _fresh_engine():
    engine = StorageEngine(block_capacity=4)
    engine.load_document(make_bookstore_document(books=6, seed=1))
    # An unlogged (pre-manager) value index: every scenario then
    # exercises incremental maintenance, and recovery re-installs the
    # definition from the image and reconciles the contents.
    engine.create_index("BookStore/Book/Date", value_type="integer")
    return engine


def _titles(engine):
    store = engine.children(engine.document)[0]
    return [engine.string_value(engine.children(book)[0])
            for book in engine.children(store)]


def _add_book(engine, manager, index, tag):
    """One committed transaction inserting a complete Book."""
    store = engine.children(engine.document)[0]
    with manager.transaction():
        book = engine.insert_child(store, index,
                                   name=QName(BOOKS_NAMESPACE, "Book"))
        fields = (("Title", f"T{tag}"), ("Author", f"A{tag}"),
                  ("Date", "1999"), ("ISBN", f"i-{tag}"),
                  ("Publisher", "P"))
        for i, (name, text) in enumerate(fields):
            leaf = engine.insert_child(
                book, i, name=QName(BOOKS_NAMESPACE, name))
            engine.insert_child(leaf, 0, text=text)


def _run_scenario(backend, plan=None):
    """The workload under test; returns what survived before a crash.

    Steps (each an explicit transaction over a 6-book store carrying
    a Date value index):
    A: insert a full Book mid-order (forces block splits at capacity
       4), B: delete the first Book, then a second checkpoint, C:
       append a Book and CREATE a second (logged) index — its build
       pass is where ``index.rebuild`` fires, D: begin inserting a
       Book and never commit.
    The fault *plan* is installed only after the initial checkpoint.
    The returned ``expected`` title list reflects exactly the
    transactions whose COMMIT made it to the log.
    """
    engine = _fresh_engine()
    initial = _titles(engine)
    wal = backend.open_wal()
    manager = TransactionManager(engine, wal)
    backend.checkpoint(engine, wal=wal)

    expected = list(initial)
    crashed_at = None
    if plan is not None:
        faults.install(plan)
    try:
        _add_book(engine, manager, 2, "A")
        expected.insert(2, "TA")
        store = engine.children(engine.document)[0]
        with manager.transaction():
            engine.delete_subtree(engine.children(store)[0])
        expected.pop(0)
        backend.checkpoint(engine, wal=wal)
        _add_book(engine, manager, len(expected), "C")
        expected.append("TC")
        engine.create_index("BookStore/Book/ISBN")
        manager.begin()
        store = engine.children(engine.document)[0]
        book = engine.insert_child(store, 0,
                                   name=QName(BOOKS_NAMESPACE, "Book"))
        title = engine.insert_child(book, 0,
                                    name=QName(BOOKS_NAMESPACE, "Title"))
        engine.insert_child(title, 0, text="TD")
        # ...and the process dies before txn D ever commits.
    except CrashError as crash:
        crashed_at = crash.point
    finally:
        faults.clear()
    return expected, crashed_at


def _assert_recovered(backend, expected, schema):
    result = recover(backend, schema=schema, strict=True)
    assert result.backend == backend.name
    assert result.snapshot_version is not None
    engine = result.engine
    engine.check_invariants()
    assert result.relabels == 0
    assert _titles(engine) == expected
    assert "TD" not in _titles(engine)  # uncommitted txn D never lands
    # The Date index definition rides in the checkpoint image; its
    # incrementally maintained contents were reconciled against a
    # from-scratch rebuild inside recover().
    assert result.index_definitions >= 1
    assert result.indexes_verified == result.index_definitions
    assert engine.indexes.verify_consistency() >= 1
    return result


class TestCrashMatrix:
    # The storage workload never opens sessions, so the session-layer
    # points cannot fire here; tests/test_server_faults.py runs the
    # session crash matrix over exactly SESSION_CRASH_POINTS.
    @pytest.mark.parametrize(
        "point", sorted(CRASH_POINTS - SESSION_CRASH_POINTS))
    def test_crash_at_every_point_recovers(self, backend, schema,
                                           point):
        plan = FaultPlan()
        plan.crash_at(point)
        expected, crashed_at = _run_scenario(backend, plan)
        assert crashed_at == point, \
            f"scenario never reached fault point {point}"
        _assert_recovered(backend, expected, schema)

    @pytest.mark.parametrize("point,hit", [
        ("wal.append", 5), ("wal.append", 12), ("wal.fsync", 9),
        ("wal.commit", 2), ("block.split", 2), ("descriptor.unlink", 8),
        ("index.update", 7), ("index.update", 20),
    ])
    def test_crash_at_deeper_hits(self, backend, schema, point, hit):
        plan = FaultPlan()
        plan.crash_at(point, hit=hit)
        expected, crashed_at = _run_scenario(backend, plan)
        assert crashed_at == point
        _assert_recovered(backend, expected, schema)

    @pytest.mark.parametrize("seed", range(10))
    def test_probabilistic_crash_sweep(self, backend, schema, seed):
        plan = FaultPlan.probabilistic(seed=seed, rate=0.05)
        expected, _crashed_at = _run_scenario(backend, plan)
        # Whether or not (and wherever) the plan struck, recovery must
        # reproduce exactly the committed prefix.
        _assert_recovered(backend, expected, schema)

    def test_clean_run_recovers_committed_state(self, backend, schema):
        expected, crashed_at = _run_scenario(backend)
        assert crashed_at is None
        result = _assert_recovered(backend, expected, schema)
        assert result.discarded_txns  # txn D was begun, never committed
        # The committed CREATE INDEX (ISBN) sits past the second
        # checkpoint's horizon, so recovery replayed the DDL record.
        assert result.index_definitions == 2

    def test_proposition_1_counters_stay_zero(self, backend, schema):
        obs.reset()
        obs.enable()
        try:
            plan = FaultPlan()
            plan.crash_at("descriptor.unlink")
            expected, _ = _run_scenario(backend, plan)
            _assert_recovered(backend, expected, schema)
            snapshot = obs.snapshot()
            assert snapshot["numbering.relabels.sedna"] == 0
            assert snapshot["storage.relabels"] == 0
            assert snapshot["recovery.replayed"] > 0
        finally:
            obs.disable()
            obs.reset()


class TestIndexFaultPoints:
    """Crashes inside secondary-index maintenance or build passes.

    Index contents are derived state, so the recovery obligation is
    bisimulation: whatever the incremental hooks were doing when the
    process died, the recovered indexes must be indistinguishable from
    a from-scratch rebuild over the recovered block lists."""

    @pytest.mark.parametrize("point", ["index.update", "index.rebuild"])
    def test_recovered_indexes_bisimulate_rebuild(self, backend,
                                                  schema, point):
        plan = FaultPlan()
        plan.crash_at(point)
        expected, crashed_at = _run_scenario(backend, plan)
        assert crashed_at == point
        result = _assert_recovered(backend, expected, schema)
        indexes = result.engine.indexes
        assert indexes.verify_consistency() == len(indexes.definitions())
        assert result.relabels == 0

    def test_crash_in_logged_build_discards_the_ddl(self, backend,
                                                    schema):
        """``index.rebuild`` fires inside the logged CREATE INDEX on
        ISBN — its COMMIT never lands, so recovery discards the DDL
        and only the image-carried Date index survives."""
        plan = FaultPlan()
        plan.crash_at("index.rebuild")
        expected, crashed_at = _run_scenario(backend, plan)
        assert crashed_at == "index.rebuild"
        result = _assert_recovered(backend, expected, schema)
        assert result.index_definitions == 1
        assert [d.path for d in result.engine.indexes.definitions()] \
            == ["BookStore/Book/Date"]

    def test_crash_in_maintenance_discards_the_txn(self, backend,
                                                   schema):
        """``index.update`` first fires inside txn A's first insert;
        the whole transaction is discarded and the recovered Date
        index reflects only the checkpointed six books."""
        plan = FaultPlan()
        plan.crash_at("index.update")
        expected, crashed_at = _run_scenario(backend, plan)
        assert crashed_at == "index.update"
        assert "TA" not in expected
        result = _assert_recovered(backend, expected, schema)
        date_index = result.engine.indexes.get("BookStore/Book/Date")
        assert date_index.stats()["entries"] == len(expected)


class TestCheckpointAtomicity:
    def test_torn_write_leaves_old_snapshot_intact(self, backend):
        """Backend-independent torn-write atomicity: after a crash
        mid-snapshot, the backend still serves the previous state."""
        engine = _fresh_engine()
        backend.checkpoint(engine)
        before = _titles(backend.load_engine())
        store = engine.children(engine.document)[0]
        engine.delete_subtree(engine.children(store)[0])
        plan = FaultPlan()
        plan.crash_at("persist.write.torn")
        faults.install(plan)
        with pytest.raises(CrashError):
            backend.checkpoint(engine)
        faults.clear()
        survivor = backend.load_engine()
        survivor.check_invariants()
        assert _titles(survivor) == before

    def test_torn_image_write_leaves_old_image_intact(self, tmp_path):
        image = tmp_path / "store.img"
        backend = FileBackend(image)
        engine = _fresh_engine()
        backend.checkpoint(engine)
        good = image.read_bytes()
        plan = FaultPlan()
        plan.crash_at("persist.write.torn")
        faults.install(plan)
        with pytest.raises(CrashError):
            backend.checkpoint(engine)
        faults.clear()
        assert image.read_bytes() == good  # os.replace never happened
        recover(backend).engine.check_invariants()

    def test_crash_before_rename_leaves_old_image(self, tmp_path):
        image = tmp_path / "store.img"
        backend = FileBackend(image)
        engine = _fresh_engine()
        backend.checkpoint(engine)
        good = image.read_bytes()
        plan = FaultPlan()
        plan.crash_at("persist.rename")
        faults.install(plan)
        with pytest.raises(CrashError):
            backend.checkpoint(engine)
        faults.clear()
        assert image.read_bytes() == good

    def test_replay_is_idempotent_past_the_horizon(self, tmp_path,
                                                   schema):
        """A crash between image rename and WAL reset must not
        double-apply: records at or below the horizon are skipped."""
        image = tmp_path / "store.img"
        wal_path = tmp_path / "store.wal"
        backend = FileBackend(image)
        engine = _fresh_engine()
        wal = WriteAheadLog(FileWalStore(wal_path))
        manager = TransactionManager(engine, wal)
        backend.checkpoint(engine, wal=wal)
        _add_book(engine, manager, 2, "A")
        expected = _titles(engine)
        stale_wal = tmp_path / "stale.wal"
        shutil.copy(wal_path, stale_wal)
        backend.checkpoint(engine, wal=wal)  # image now covers txn A
        # Simulate the crash window: new image, *old* un-reset log.
        result = recover(FileBackend(image, wal_path=stale_wal),
                         schema=schema, strict=True)
        assert result.replayed == 0
        assert result.skipped > 0
        assert _titles(result.engine) == expected

    def test_recover_missing_image_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(FileBackend(tmp_path / "absent.img"))

    def test_recover_empty_backend_raises(self, backend):
        with pytest.raises(RecoveryError):
            recover(backend)

    def test_strict_recovery_accepts_an_attribute_labelled_after_its_elder(
            self, backend):
        """The second ``b`` gains ``@x`` — an older schema node than its
        ``@y`` — behind it in label order.  The storage walk follows
        the labels, so strict recovery's order check accepts the
        committed state (it used to follow the schema's child order
        and refuse it)."""
        engine = StorageEngine()
        engine.load_document(parse_document(
            '<r><b x="1" y="2"/><b y="3"/></r>'))
        wal = backend.open_wal()
        TransactionManager(engine, wal)
        backend.checkpoint(engine, wal=wal)
        second = engine.children(engine.children(engine.document)[0])[1]
        engine.set_attribute(second, QName("", "x"), "9")
        result = recover(backend, strict=True)
        assert result.replayed == 1
        recovered = result.engine.children(
            result.engine.children(result.engine.document)[0])[1]
        for walked in (engine.attributes(second),
                       result.engine.attributes(recovered)):
            assert [a.value for a in walked] == ["3", "9"]
