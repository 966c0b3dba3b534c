"""The served database: sessions, the writer lease, reader snapshots
and a threaded request loop over one storage backend.

:class:`DatabaseServer` owns the live engine (WAL-attached, the only
mutable copy), a :class:`~repro.server.snapshots.SnapshotManager` for
readers, a :class:`~repro.server.leases.LeaseManager` for the single
writer, and an :class:`~repro.server.admission.AdmissionController`
at the front door.  Sessions open in two modes:

* ``open_session("read")`` pins the current committed snapshot; every
  query of the session runs against that engine, which is frozen
  until the session closes;
* ``open_session("write")`` claims the writer lease (waiting with
  jittered backoff, bounded by *timeout*); every ``execute`` runs one
  heartbeat-renewed, lease-checked transaction on the live engine.

The **request loop** (:class:`RequestLoop`) is the concurrency
surface: admission gates the depth at submit, each submission is
queued and handed back as a :class:`PendingRequest`, and whoever
claims it first runs it — the client that waits for it, on its own
thread, or else one of the worker threads draining the queue.  Clients
may equally call session methods directly (in-process embedding); the
loop adds the bounded queue and the thread pool, not different
semantics.

Crash points (``session.lease.granted``, ``session.txn.mid``,
``session.reader.checkpoint``) are threaded through the write path
and the checkpoint path so the crash matrix can kill a lease holder
between grant and first WAL record, mid-transaction, or mid-checkpoint
with readers pinned — recovery must reproduce the committed prefix
with zero relabels in every case.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.server.admission import (
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_MAX_SESSIONS,
    AdmissionController,
)
from repro.server.leases import DEFAULT_TTL, LeaseManager
from repro.server.session import (
    Session,
    SessionError,
    SessionExpired,
)
from repro.server.snapshots import SnapshotManager
from repro.storage import faults
from repro.storage.engine import StorageEngine
from repro.storage.recovery import recover
from repro.storage.txn import TransactionManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.backends.base import StorageBackend
    from repro.storage.descriptor import NodeDescriptor
    from repro.xmlio.ast import XmlDocument

#: Default writer-lease acquisition budget (seconds).
DEFAULT_ACQUIRE_TIMEOUT = 2.0

#: Default worker threads in the request loop.
DEFAULT_WORKERS = 4


class PendingRequest:
    """A submitted request: its thunk, a one-shot claim and the
    eventual result.

    Whoever takes the claim (a non-blocking lock acquire) first runs
    the thunk through :meth:`_run`: the client inside :meth:`wait`, or
    a worker that dequeues it; a worker skips a claimed request.  A
    waiter that runs its own request saves the two thread wake-ups of
    the hand-off.  The result is handed back through a second lock,
    held from construction until :meth:`_finish`: a waiter that lost
    the claim waits with a timed acquire and releases at once, so any
    later (or concurrent) ``wait`` passes too.
    """

    __slots__ = ("_loop", "_fn", "_claim", "_pending", "_done",
                 "_result", "_error")

    def __init__(self, loop: "RequestLoop",
                 fn: Callable[[], object]) -> None:
        self._loop = loop
        self._fn = fn
        self._claim = threading.Lock()
        self._pending = threading.Lock()
        self._pending.acquire()
        self._done = False
        self._result: object = None
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        """Run the thunk; only the claim's holder calls this."""
        try:
            result, error = self._fn(), None
        except BaseException as exc:  # delivered to every waiter
            result, error = None, exc
        finally:
            self._loop.admission.exit_request()
        self._finish(result, error)

    def _finish(self, result: object,
                error: Optional[BaseException]) -> None:
        self._result = result
        self._error = error
        self._done = True
        self._pending.release()

    def done(self) -> bool:
        return self._done

    def wait(self, timeout: Optional[float] = None):
        """The result; re-raises what the thunk raised.

        ``wait()`` and ``wait(t)`` with ``t > 0`` run an unclaimed
        request on the calling thread: *timeout* bounds only the wait
        for another thread's run, and a running request is bounded by
        its session deadline.  ``wait(t)`` with ``t <= 0`` is a poll
        and never runs the request.
        """
        if (timeout is None or timeout > 0) \
                and self._claim.acquire(False):
            self._loop.inline.inc()
            self._run()
        elif self._pending.acquire(
                timeout=-1 if timeout is None else max(0.0, timeout)):
            self._pending.release()
        else:
            raise SessionExpired(
                f"request still pending after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._result


_STOP = object()

#: Bound (seconds) on each of stop()'s two waits: the worker joins,
#: then the requests their waiters still run.
_STOP_TIMEOUT = 5.0


class RequestLoop:
    """A depth-gated queue of requests, run by their waiters or else
    by worker threads."""

    def __init__(self, admission: AdmissionController,
                 workers: int = DEFAULT_WORKERS) -> None:
        self.admission = admission
        #: Requests run by their waiter (held rather than looked up).
        self.inline = obs.REGISTRY.counter("server.loop.inline")
        #: Unbounded by itself (admission bounds the depth), so the
        #: hand-off needs no ``queue.Queue`` conditions.
        self._queue: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        #: Orders submissions against stop(): nothing is enqueued
        #: behind the _STOP sentinels, so a submitted request is
        #: always claimed — by its waiter or by a live worker — never
        #: parked forever.
        self._stop_lock = threading.Lock()
        self.stopped = False
        self._threads = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"repro-server-{i}")
            for i in range(max(1, workers))]
        for thread in self._threads:
            thread.start()

    def submit(self, fn: Callable[[], object]) -> PendingRequest:
        """Enqueue *fn*; sheds with ``Overloaded`` past the depth cap.

        The depth slot is held from submit until the thunk finishes,
        on whichever thread runs it, so the cap bounds queued *plus*
        executing work.  A stopped loop refuses with
        :class:`SessionError` — its workers have exited, so a request
        nobody waits on would otherwise never run.
        """
        if self.stopped:
            raise SessionError(
                "request loop is stopped; cannot submit")
        self.admission.enter_request()
        try:
            with self._stop_lock:
                if self.stopped:
                    raise SessionError(
                        "request loop is stopped; cannot submit")
                pending = PendingRequest(self, fn)
                self._queue.put(pending)
                return pending
        except BaseException:
            self.admission.exit_request()
            raise

    def _run(self) -> None:
        while True:
            pending = self._queue.get()
            if pending is _STOP:
                return
            if pending._claim.acquire(False):  # type: ignore[union-attr]
                pending._run()  # type: ignore[union-attr]

    def stop(self) -> None:
        """Refuse new submissions, then wait (each wait bounded by
        :data:`_STOP_TIMEOUT`) until every submitted request is done:
        the workers drain the queue and exit, and a request its waiter
        claimed finishes on the waiter's thread."""
        with self._stop_lock:
            if self.stopped:
                return
            self.stopped = True
            # Under the lock: every already-submitted request sits
            # ahead of the sentinels and is claimed before the last
            # worker exits; every later submit() is refused.
            for _ in self._threads:
                self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=_STOP_TIMEOUT)
        # Every request is claimed by now; the depth counts those
        # still running on their waiters' threads.
        self.admission.wait_idle(_STOP_TIMEOUT)


class DatabaseServer:
    """Many concurrent sessions over one WAL-backed storage backend."""

    def __init__(self, backend: "StorageBackend",
                 document: "Optional[XmlDocument]" = None,
                 *,
                 block_capacity: Optional[int] = None,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 lease_ttl: float = DEFAULT_TTL,
                 acquire_timeout: float = DEFAULT_ACQUIRE_TIMEOUT,
                 workers: int = DEFAULT_WORKERS,
                 seed: int = 0,
                 sync_wal: bool = False) -> None:
        self.backend = backend
        if document is not None:
            engine = (StorageEngine(block_capacity=block_capacity)
                      if block_capacity else StorageEngine())
            engine.load_document(document)
        else:
            # Re-opening: the image plus the committed suffix of a log
            # the last server may not have checkpointed.
            engine = recover(backend).engine
        self.engine = engine
        wal = backend.open_wal(sync=sync_wal)
        if wal is None:
            raise SessionError(
                f"backend {backend.name!r} has no WAL medium — a "
                "served database needs a log for isolation and "
                "recovery")
        self.wal = wal
        self.txns = TransactionManager(engine, wal)
        if document is not None:
            # Publish version zero so readers can pin immediately.
            backend.checkpoint(engine, wal=wal)
        #: Serializes live-engine reads (write-session queries) with
        #: the writer's mutations, commits and checkpoints; reader
        #: sessions never touch it on a pin hit or a snapshot advance
        #: — only a pin that falls back to recover() holds it, for
        #: that one recovery (see SnapshotManager.pin).
        self._live_lock = threading.RLock()
        self.snapshots = SnapshotManager(backend,
                                         write_latch=self._live_lock,
                                         wal=wal)
        self.leases = LeaseManager(ttl=lease_ttl, seed=seed)
        self.admission = AdmissionController(
            max_sessions=max_sessions,
            max_queue_depth=max_queue_depth)
        self.acquire_timeout = acquire_timeout
        self.loop = RequestLoop(self.admission, workers=workers)
        self._id_lock = threading.Lock()
        self._next_session = 1
        self._live_queries = None
        # Per-request instruments, held rather than looked up by name
        # on every request (obs.reset() zeroes them in place).
        registry = obs.REGISTRY
        self._requests = registry.counter("server.requests")
        self._session_latency = registry.histogram(
            "server.session.latency.ns")
        self._by_kind = {
            kind: (registry.counter(f"server.requests.{kind}"),
                   registry.histogram(f"server.{kind}.latency.ns"))
            for kind in ("read", "write")}
        self.closed = False

    # -- session lifecycle ------------------------------------------------

    def open_session(self, mode: str = "read", *,
                     owner: Optional[str] = None,
                     deadline: Optional[float] = None,
                     timeout: Optional[float] = None) -> Session:
        """Open a session, or shed with ``Overloaded`` at the cap.

        *deadline* is this session's wall-clock budget in seconds
        (checked at safe points by every request); *timeout* bounds
        the writer-lease wait (defaults to the server's
        ``acquire_timeout``).  Ill-formed arguments are rejected here,
        before any pin or claim happens.
        """
        if self.closed:
            raise SessionError("server is closed")
        if mode not in ("read", "write"):
            raise SessionError(f"unknown session mode {mode!r}")
        if deadline is not None and deadline <= 0:
            raise SessionError(
                f"session deadline must be positive, got {deadline}")
        self.admission.admit_session()
        try:
            with self._id_lock:
                session_id = self._next_session
                self._next_session += 1
            name = owner or f"session-{session_id}"
            cutoff = (time.monotonic() + deadline
                      if deadline is not None else None)
            if mode == "read":
                snapshot = self.snapshots.pin()
                session = Session(session_id, "read", self,
                                  deadline=cutoff, snapshot=snapshot)
            else:
                lease = self.leases.acquire(
                    name,
                    timeout=(timeout if timeout is not None
                             else self.acquire_timeout),
                    note=f"write session #{session_id}")
                # Crash window: the lease is granted but no WAL record
                # of this session exists yet.  Recovery sees only the
                # prior committed state.
                faults.fire("session.lease.granted")
                session = Session(session_id, "write", self,
                                  deadline=cutoff, lease=lease)
            obs.REGISTRY.counter("server.sessions.opened").inc()
            obs.EVENTS.emit(
                "session.open", session=session_id, mode=mode,
                owner=name,
                snapshot=(session.snapshot.version
                          if session.snapshot else None))
            return session
        except BaseException:
            self.admission.release_session()
            raise

    def close_session(self, session: Session) -> None:
        if session.closed:
            return
        session.closed = True
        if session.snapshot is not None:
            self.snapshots.release(session.snapshot)
        if session.lease is not None:
            self.leases.release(session.lease)
        self.admission.release_session()
        obs.REGISTRY.counter("server.sessions.closed").inc()
        obs.EVENTS.emit(
            "session.close", session=session.session_id,
            mode=session.mode, requests=session.requests,
            lifetime_ns=time.monotonic_ns() - session.opened_ns)

    # -- requests ---------------------------------------------------------

    def query(self, session: Session,
              path: str) -> "list[NodeDescriptor]":
        """Evaluate *path* against the session's view.

        Read sessions hit their pinned snapshot (no locks shared with
        the writer); write sessions read the live engine under the
        live lock (read-your-writes)."""
        session.check_open()
        session.check_deadline()
        started = time.perf_counter_ns()
        if session.mode == "read":
            result = session.snapshot.queries().evaluate(path)
        else:
            self.leases.check(session.lease)
            with self._live_lock:
                result = self._live_query_engine().evaluate(path)
        self._account_request(session, "read", started)
        return result

    def query_values(self, session: Session, path: str) -> list[str]:
        """String values of :meth:`query`.

        A read session's snapshot is frozen, so the values are built
        lock-free.  On a write session the query and the extraction
        share one hold of the live lock: another thread's ``execute``
        on the same session cannot change the nodes in between."""
        if session.mode == "read":
            return session.snapshot.engine.string_values(
                self.query(session, path))
        with self._live_lock:
            return self.engine.string_values(self.query(session, path))

    def execute(self, session: Session, mutate: Callable, *,
                timeout: Optional[float] = None):
        """One lease-guarded transaction: ``mutate(engine, session)``.

        The lease is heartbeat-renewed on entry and re-checked before
        commit; *timeout* tightens the session deadline for this
        request only.  Deadline or lease failure inside the
        transaction aborts through the inverse-op rollback — the
        engine state is exactly as before the call.
        """
        session.check_open()
        if session.mode != "write":
            raise SessionError(
                f"session #{session.session_id} is read-only "
                "(opened in read mode)")
        previous_deadline = session.deadline
        if timeout is not None:
            cutoff = time.monotonic() + timeout
            session.deadline = (cutoff if previous_deadline is None
                                else min(previous_deadline, cutoff))
        started = time.perf_counter_ns()
        try:
            session.check_deadline()
            self.leases.renew(session.lease)  # heartbeat
            with self._live_lock:
                with self.txns.transaction():
                    result = mutate(self.engine, session)
                    # Crash window: logged operations exist, COMMIT
                    # does not.  Recovery discards the suffix.
                    faults.fire("session.txn.mid")
                    session.check_deadline()
                    # Expiry during commit: a lapsed holder rolls
                    # back instead of publishing.
                    self.leases.check(session.lease)
        finally:
            session.deadline = previous_deadline
        self._account_request(session, "write", started)
        return result

    def submit(self, fn: Callable[[], object]) -> PendingRequest:
        """Queue *fn* on the threaded request loop (depth-gated).

        Refused with :class:`SessionError` once the server is closed
        — the workers are gone, so the request could never run."""
        if self.closed:
            raise SessionError("server is closed; cannot submit")
        return self.loop.submit(fn)

    # -- maintenance ------------------------------------------------------

    def checkpoint_now(self):
        """Checkpoint the live engine (the writer's horizon advance).

        Readers keep their pins across it — their snapshots hold the
        *previous* durable state and stay valid (and, once released,
        are advanced across the checkpoint like across any commit);
        the named crash point covers the server dying here while
        readers outlive the old checkpoint.
        """
        with self._live_lock:
            info = self.backend.checkpoint(self.engine, wal=self.wal)
        if self.snapshots.pinned():
            faults.fire("session.reader.checkpoint")
        obs.REGISTRY.counter("server.checkpoints").inc()
        return info

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.loop.stop()
        self.wal.close()
        self.txns.detach()

    def __enter__(self) -> "DatabaseServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _live_query_engine(self):
        if self._live_queries is None:
            from repro.query.engine import StorageQueryEngine
            self._live_queries = StorageQueryEngine(self.engine)
        return self._live_queries

    def _account_request(self, session: Session, kind: str,
                         started: int) -> None:
        session.requests += 1
        elapsed = time.perf_counter_ns() - started
        requests, latency = self._by_kind[kind]
        self._requests.inc()
        requests.inc()
        self._session_latency.observe(elapsed)
        latency.observe(elapsed)

    def __repr__(self) -> str:
        return (f"DatabaseServer({self.backend.name}, "
                f"{self.admission.active_sessions} sessions)")

