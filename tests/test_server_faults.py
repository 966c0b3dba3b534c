"""The session crash matrix: kill the server at every session-layer
fault point, recover from the backend's files alone, and require the
committed prefix with zero relabels.

Three windows (see ``SESSION_CRASH_POINTS``):

* ``session.lease.granted`` — the lease is granted but the session has
  written nothing: recovery sees exactly the prior committed state,
  and the leaked lease dead-letters for the next claimant;
* ``session.txn.mid`` — the holder dies with logged-but-uncommitted
  operations: recovery discards the suffix (readers could never have
  observed it — their horizon stops at the last COMMIT);
* ``session.reader.checkpoint`` — the server dies right after a
  checkpoint while readers still pin the pre-checkpoint snapshot: the
  pinned view keeps serving, and recovery replays the new image.

Plus the reproducibility half of the satellite: a probabilistic sweep
over concurrent writer threads, each armed with ``plan.split(name)``
installed thread-locally, replays the identical per-thread crash
schedule on a second run.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.server import DatabaseServer
from repro.storage import (
    SESSION_CRASH_POINTS,
    CrashError,
    FileBackend,
    FaultPlan,
    MemoryBackend,
    SqliteBackend,
    faults,
    recover,
)
from repro.workloads.bookstore import (
    BOOKS_NAMESPACE,
    make_bookstore_document,
)
from repro.xmlio.qname import QName

TITLES = "/BookStore/Book/Title"


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()
    faults.clear_local()


def make_backend(name, tmp_path):
    if name == "file":
        return FileBackend(tmp_path / "store.img",
                           wal_path=tmp_path / "store.wal")
    if name == "sqlite":
        return SqliteBackend(tmp_path / "store.db")
    return MemoryBackend()


def add_book(tag):
    def mutate(engine, session):
        store = engine.children(engine.document)[0]
        book = engine.insert_child(
            store, 0, name=QName(BOOKS_NAMESPACE, "Book"))
        title = engine.insert_child(
            book, 0, name=QName(BOOKS_NAMESPACE, "Title"))
        engine.insert_child(title, 0, text=tag)
    return mutate


def titles_of(engine):
    store = engine.children(engine.document)[0]
    return sorted(engine.string_value(engine.children(book)[0])
                  for book in engine.children(store))


def assert_recovered(backend, expected_titles):
    """The backend's files alone must reproduce exactly the committed
    prefix — no uncommitted state, no relabels (Proposition 1)."""
    result = recover(backend)
    assert result.relabels == 0
    assert titles_of(result.engine) == sorted(expected_titles)
    return result


@pytest.mark.parametrize("backend_name", ["file", "sqlite", "memory"])
class TestSessionCrashMatrix:
    """Each named point, each backend: kill, recover, verify."""

    def _boot(self, backend, ttl=0.2):
        server = DatabaseServer(backend,
                                make_bookstore_document(books=4, seed=2),
                                lease_ttl=ttl, workers=1)
        with server.open_session("write") as writer:
            writer.execute(add_book("BASE"))
        base = titles_of(server.engine)
        assert "BASE" in base
        return server, base

    def test_crash_between_grant_and_first_wal_record(
            self, backend_name, tmp_path):
        backend = make_backend(backend_name, tmp_path)
        server, committed = self._boot(backend)
        plan = FaultPlan().crash_at("session.lease.granted")
        with faults.injected(plan):
            with pytest.raises(CrashError):
                server.open_session("write")
        assert plan.fired == [("session.lease.granted", 1)]
        # The holder died before logging anything: recovery is exactly
        # the prior committed state.
        assert_recovered(backend, committed)
        # The leaked lease expires into a dead letter; the next
        # claimant is not blocked forever.
        lease = server.leases.acquire("undertaker", timeout=5.0)
        assert lease.owner == "undertaker"
        assert server.leases.expirations == 1
        assert obs.EVENTS.last("lease.dead_letter").fields["note"] \
            == "write session #2"

    def test_lease_holder_dies_mid_transaction(
            self, backend_name, tmp_path):
        backend = make_backend(backend_name, tmp_path)
        server, committed = self._boot(backend)
        session = server.open_session("write")
        plan = FaultPlan().crash_at("session.txn.mid")
        with faults.injected(plan):
            with pytest.raises(CrashError):
                session.execute(add_book("DOOMED"))
        # Logged operations exist but no COMMIT: the suffix is
        # discarded, the doomed insert unobservable.
        result = assert_recovered(backend, committed)
        assert "DOOMED" not in titles_of(result.engine)

    def test_reader_outlives_a_checkpoint(self, backend_name, tmp_path):
        backend = make_backend(backend_name, tmp_path)
        server, committed = self._boot(backend)
        reader = server.open_session("read")
        before = reader.query_values(TITLES)
        with server.open_session("write") as writer:
            writer.execute(add_book("CKPT"))
        plan = FaultPlan().crash_at("session.reader.checkpoint")
        with faults.injected(plan):
            with pytest.raises(CrashError):
                server.checkpoint_now()
        # The pinned snapshot was materialized from the *previous*
        # durable state and keeps serving across the crash.
        assert reader.query_values(TITLES) == before
        assert "CKPT" not in before
        # The checkpoint itself landed before the kill: recovery
        # replays the new image, commit included.
        assert_recovered(backend, committed + ["CKPT"])


class TestProbabilisticSessionSweep:
    """Concurrent writers under seeded per-thread plans: the crash
    schedule is a pure function of (seed, thread key) — a second run
    replays it exactly, whatever the scheduler did."""

    THREADS, ROUNDS, SEED = 3, 5, 29

    def _sweep(self):
        import threading

        server = DatabaseServer(MemoryBackend(),
                                make_bookstore_document(books=3, seed=4),
                                lease_ttl=0.05, acquire_timeout=10.0,
                                workers=1)
        parent = FaultPlan.probabilistic(
            seed=self.SEED, rate=0.4,
            points={"session.lease.granted"})
        outcomes = {}

        def writer(index):
            name = f"writer-{index}"
            schedule = []
            with faults.injected_local(parent.split(name)):
                for round_no in range(self.ROUNDS):
                    try:
                        with server.open_session(
                                "write", owner=name,
                                timeout=10.0) as session:
                            session.execute(
                                add_book(f"{name}r{round_no}"))
                        schedule.append("ok")
                    except CrashError:
                        schedule.append("crash")
            outcomes[name] = schedule

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        committed = {f"writer-{i}r{r}"
                     for i in range(self.THREADS)
                     for r in range(self.ROUNDS)
                     if outcomes[f"writer-{i}"][r] == "ok"}
        # Give the last leaked lease time to lapse, then observe it.
        time.sleep(0.06)
        server.leases.holder()
        dead = server.leases.expirations
        result = recover(server.backend)
        return outcomes, committed, dead, result

    def test_replay_is_identical_and_recovery_clean(self):
        first = self._sweep()
        second = self._sweep()
        outcomes, committed, dead, result = first
        # Reproducible per thread: same seed, same keys, same schedule.
        assert outcomes == second[0]
        # The coin landed both ways somewhere in the sweep.
        flat = [o for schedule in outcomes.values() for o in schedule]
        assert "crash" in flat and "ok" in flat
        # Every crash leaked a lease that was dead-lettered.
        assert dead == flat.count("crash")
        # Recovery holds exactly the committed writes, relabel-free.
        assert result.relabels == 0
        recovered = set(titles_of(result.engine))
        assert committed <= recovered
        doomed = {f"writer-{i}r{r}"
                  for i in range(self.THREADS)
                  for r in range(self.ROUNDS)
                  if outcomes[f"writer-{i}"][r] == "crash"}
        assert not (doomed & recovered)


def test_session_points_are_registered():
    assert SESSION_CRASH_POINTS == {
        "session.lease.granted", "session.txn.mid",
        "session.reader.checkpoint"}


# ---------------------------------------------------------------------------
# The five ``except BaseException`` sites: cleanup, then the same
# exception again — an interrupt or a simulated crash is never eaten.
# ``PendingRequest._run`` is one site on two paths, a worker's and the
# waiter's own thread, so it has two cases.

def _raiser(error):
    def fail(*args, **kwargs):
        raise error
    return fail


def _interrupt_submit(server, error, monkeypatch, tmp_path):
    """``RequestLoop.submit``: the depth slot taken before the enqueue
    is given back when the enqueue itself dies."""
    with monkeypatch.context() as patch:  # stop() enqueues too
        # SimpleQueue.put is read-only; the workers stay parked on the
        # real queue while the stub stands in for it.
        patch.setattr(server.loop, "_queue",
                      SimpleNamespace(put=_raiser(error)))
        with pytest.raises(type(error)) as raised:
            server.loop.submit(lambda: None)
    assert raised.value is error
    assert server.admission.queue_depth == 0


def _delivered_everywhere(pending, error):
    """Every waiter, and every later wait or poll, raises *error*
    itself."""
    for timeout in (10.0, None, 0):
        with pytest.raises(type(error)) as raised:
            pending.wait(timeout)
        assert raised.value is error


def _done_by_a_worker(pending):
    """Poll, never wait: a wait would run the request itself."""
    deadline = time.monotonic() + 10.0
    while not pending.done():
        assert time.monotonic() < deadline, "no worker ran the request"
        time.sleep(0.001)


def _interrupt_worker(server, error, monkeypatch, tmp_path):
    """``RequestLoop._run``: what the thunk raised on a worker is
    delivered to the waiter, the slot released, and the worker lives
    on."""
    inline = server.loop.inline.value
    pending = server.loop.submit(_raiser(error))
    _done_by_a_worker(pending)
    _delivered_everywhere(pending, error)
    assert server.admission.queue_depth == 0
    alive = server.loop.submit(lambda: "alive")
    _done_by_a_worker(alive)
    assert alive.wait(10.0) == "alive"
    assert server.loop.inline.value == inline


def _interrupt_inline(server, error, monkeypatch, tmp_path):
    """``PendingRequest.wait``: what the thunk raised on the thread of
    the waiter that claimed it is delivered to every waiter, the slot
    released, and the loop lives on."""
    gate = threading.Event()
    try:
        # Every worker is held ahead of the request, so only its
        # waiter can claim it.
        held = [server.loop.submit(gate.wait)
                for _ in server.loop._threads]
        inline = server.loop.inline.value
        pending = server.loop.submit(_raiser(error))
        _delivered_everywhere(pending, error)
        assert server.loop.inline.value == inline + 1
        assert server.admission.queue_depth == len(held)
    finally:
        gate.set()
    for request in held:
        request.wait(10.0)
    assert server.admission.queue_depth == 0
    assert server.loop.submit(lambda: "alive").wait(10.0) == "alive"


def _interrupt_open_session(server, error, monkeypatch, tmp_path):
    """``DatabaseServer.open_session``: the admitted session slot is
    released when pinning the snapshot dies."""
    monkeypatch.setattr(server.snapshots, "pin", _raiser(error))
    with pytest.raises(type(error)) as raised:
        server.open_session("read")
    assert raised.value is error
    assert server.admission.active_sessions == 0


def _interrupt_sqlite_checkpoint(server, error, monkeypatch, tmp_path):
    """``SqliteBackend._write_snapshot``: the open SQLite transaction
    is rolled back, so the previous snapshot is still the current one
    and the next checkpoint starts clean."""
    backend = SqliteBackend(tmp_path / "interrupted.db")
    try:
        before = backend.checkpoint(server.engine)
        with monkeypatch.context() as patch:
            patch.setattr(backend, "_meta_set", _raiser(error))
            with pytest.raises(type(error)) as raised:
                backend.checkpoint(server.engine)
        assert raised.value is error
        assert not backend._conn.in_transaction
        assert backend.list_snapshots() == [before]
        assert backend.checkpoint(server.engine).version \
            == before.version
    finally:
        backend.close()


def _interrupt_transaction(server, error, monkeypatch, tmp_path):
    """``TransactionManager.transaction``: an interrupt aborts the
    transaction (undo + ABORT record); a simulated crash is hands-off
    by contract — the process is dead, nothing more may be written."""
    titles = titles_of(server.engine)
    with pytest.raises(type(error)) as raised:
        with server.txns.transaction() as txn:
            add_book("doomed")(server.engine, None)
            logged = server.txns.wal.appends
            raise error
    assert raised.value is error
    if isinstance(error, CrashError):
        assert txn.state == "open" and server.txns.active is txn
        assert server.txns.wal.appends == logged
    else:
        assert txn.state == "aborted" and server.txns.active is None
        assert titles_of(server.engine) == titles


@pytest.mark.parametrize("error", [KeyboardInterrupt("stop"),
                                   CrashError("test.point")],
                         ids=["KeyboardInterrupt", "CrashError"])
@pytest.mark.parametrize("site", [
    _interrupt_submit, _interrupt_worker, _interrupt_inline,
    _interrupt_open_session,
    _interrupt_sqlite_checkpoint, _interrupt_transaction],
    ids=lambda site: site.__name__.removeprefix("_interrupt_"))
def test_base_exception_sites_clean_up_and_reraise(site, error,
                                                   monkeypatch,
                                                   tmp_path):
    server = DatabaseServer(MemoryBackend(),
                            make_bookstore_document(books=2, seed=1))
    try:
        site(server, error, monkeypatch, tmp_path)
    finally:
        server.close()
