"""Session handles and the session error hierarchy.

A :class:`Session` is one client's view of a served database
(:class:`~repro.server.server.DatabaseServer`).  Two modes:

* **read** — the session pins an immutable snapshot at open
  (:mod:`repro.server.snapshots`) and every query of its lifetime runs
  against that frozen state: repeatable reads, never blocked by (and
  never blocking) the writer, and by the recovery contract the
  snapshot contains exactly the committed transactions — uncommitted
  state is unobservable.  **Handle lifetime:** the node descriptors
  :meth:`Session.query` returns belong to the pinned snapshot's
  engine and are valid while the session is open.  Closing it drops
  the pin, after which the snapshot manager may advance that engine
  to a newer horizon in place (or evict it): a handle kept past
  ``close()`` may then show later commits, or a node since deleted.
  Take values (``query_values``) out of a session, not handles.
* **write** — the session holds the single-writer intent lease
  (:mod:`repro.server.leases`) and mutates the live engine through the
  WAL-backed transaction manager; every request re-checks the lease so
  an expired holder fails with :class:`LeaseExpired` instead of
  racing a successor.

Every session may carry a **deadline** (a wall-clock budget set at
open).  Requests check it at safe points — including *between logged
operations inside an open transaction* — so an over-budget write
aborts through the ordinary inverse-op rollback and leaves the engine
exactly as before the transaction.

The error classes mirror the library convention: all derive from
:class:`SessionError` (a :class:`~repro.errors.ReproError`), and each
carries a stable ``kind`` for the CLI ``--json`` error objects.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import DatabaseServer
    from repro.server.snapshots import Snapshot
    from repro.server.leases import Lease
    from repro.storage.descriptor import NodeDescriptor


class SessionError(ReproError):
    """Base class of every session-layer failure."""

    kind = "session"


class SessionClosed(SessionError):
    """A request arrived on a session that was already closed."""

    kind = "session-closed"


class SessionExpired(SessionError):
    """The session (or request) deadline passed.

    Raised at a safe point; an open transaction rolls back through the
    inverse-op machinery, so expiry never leaves partial mutations.
    """

    kind = "session-expired"


class LeaseExpired(SessionError):
    """The writer's intent lease lapsed before the work finished.

    The abandoned work is dead-lettered by the lease manager; the
    holder's transaction rolls back (or, if the process died, recovery
    discards its uncommitted WAL suffix).
    """

    kind = "lease-expired"


class LeaseTimeout(SessionError):
    """A waiter exhausted its bounded retry budget without the lease."""

    kind = "lease-timeout"


class Overloaded(SessionError):
    """The server shed this request instead of queuing it unboundedly.

    ``retry_after`` is the server's backoff hint in seconds; the
    ``--json`` error object carries it, so well-behaved clients can
    retry without hammering.
    """

    kind = "overloaded"

    def __init__(self, message: str, retry_after: float) -> None:
        self.retry_after = retry_after
        super().__init__(message)

    def as_dict(self) -> dict:
        return {"retry_after": self.retry_after}


class Session:
    """One open session: an id, a mode, a deadline, and its isolation
    artifact — a pinned snapshot (read) or the writer lease (write)."""

    __slots__ = ("session_id", "mode", "server", "deadline",
                 "snapshot", "lease", "closed", "opened_ns",
                 "requests")

    def __init__(self, session_id: int, mode: str,
                 server: "DatabaseServer",
                 deadline: Optional[float] = None,
                 snapshot: "Optional[Snapshot]" = None,
                 lease: "Optional[Lease]" = None) -> None:
        if mode not in ("read", "write"):
            raise SessionError(f"unknown session mode {mode!r}")
        self.session_id = session_id
        self.mode = mode
        self.server = server
        #: Absolute ``time.monotonic()`` cutoff, or None (no budget).
        self.deadline = deadline
        self.snapshot = snapshot
        self.lease = lease
        self.closed = False
        self.opened_ns = time.monotonic_ns()
        self.requests = 0

    # -- deadline ---------------------------------------------------------

    def remaining(self) -> Optional[float]:
        """Seconds left on the deadline (None when unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def check_deadline(self) -> None:
        """Raise :class:`SessionExpired` past the deadline.

        Called at request entry and between logged operations of a
        write transaction — the abort path is the ordinary rollback.
        """
        remaining = self.remaining()
        if remaining is not None and remaining <= 0:
            raise SessionExpired(
                f"session #{self.session_id} deadline exceeded "
                f"({-remaining:.3f}s over budget)")

    def check_open(self) -> None:
        if self.closed:
            raise SessionClosed(f"session #{self.session_id} is closed")

    # -- requests (delegated to the server) -------------------------------

    def query(self, path: str) -> "list[NodeDescriptor]":
        """Evaluate *path* against this session's view.  The handles
        are valid until the session closes (module docstring)."""
        return self.server.query(self, path)

    def query_values(self, path: str) -> list[str]:
        """String values of :meth:`query` (the CLI/benchmark shape)."""
        return self.server.query_values(self, path)

    def execute(self, mutate: "Callable", *,
                timeout: Optional[float] = None):
        """Run *mutate(engine, session)* in one lease-guarded
        transaction on the live engine (write sessions only)."""
        return self.server.execute(self, mutate, timeout=timeout)

    def close(self) -> None:
        """Release the pin/lease and account the session closed."""
        self.server.close_session(self)

    # -- context manager --------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self.closed:
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"Session(#{self.session_id}, {self.mode}, {state}, "
                f"{self.requests} requests)")
