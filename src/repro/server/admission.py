"""Admission control: shed load instead of queuing it unboundedly.

Two gates, both returning the typed :class:`~repro.server.session
.Overloaded` error with a ``retry_after`` hint instead of blocking:

* **max_sessions** — a cap on concurrently open sessions; the N+1-th
  ``open_session`` is refused at the door, before it pins a snapshot
  or joins the lease queue;
* **max_queue_depth** — a cap on requests admitted but not yet
  finished; when the worker loop falls behind, new requests bounce
  rather than growing an unbounded backlog whose tail latency nobody
  asked for.

Refusal is cheap and *safe*: a shed request has touched nothing — no
WAL record, no pin, no lease — so under overload the server degrades
to bounded latency for admitted work plus honest retry hints for the
rest, never to corruption or hang.  (The well-definedness line of the
semantic type-checking literature applies at this boundary too:
requests that cannot be admitted are rejected *before* execution, not
discovered mid-transaction.)

Ill-formed requests are part of the same story: ``open_session``
validates the mode and deadline shape up front, so a malformed request
costs a typed error, never a half-opened session.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro import obs
from repro.server.session import Overloaded

#: Default cap on concurrently open sessions.
DEFAULT_MAX_SESSIONS = 32

#: Default cap on admitted-but-unfinished requests.
DEFAULT_MAX_QUEUE_DEPTH = 64

#: Default retry hint (seconds) carried by Overloaded responses.
DEFAULT_RETRY_AFTER = 0.05


class AdmissionController:
    """Counting gates over sessions and in-flight requests."""

    def __init__(self,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
                 retry_after: float = DEFAULT_RETRY_AFTER) -> None:
        if max_sessions < 1 or max_queue_depth < 1:
            raise ValueError("admission caps must be >= 1")
        self.max_sessions = max_sessions
        self.max_queue_depth = max_queue_depth
        self.retry_after = retry_after
        self._lock = threading.Lock()
        #: Notified whenever the request depth returns to zero.
        self._idle = threading.Condition(self._lock)
        self.active_sessions = 0
        self.queue_depth = 0
        self.rejected_sessions = 0
        self.rejected_requests = 0

    # -- the session gate -------------------------------------------------

    def admit_session(self) -> None:
        """Count a session in, or shed with :class:`Overloaded`."""
        with self._lock:
            if self.active_sessions >= self.max_sessions:
                self.rejected_sessions += 1
                self._shed("sessions",
                           f"{self.active_sessions} open sessions "
                           f"(cap {self.max_sessions})")
            self.active_sessions += 1
        obs.REGISTRY.gauge("server.sessions.active").set(self.active_sessions)

    def release_session(self) -> None:
        with self._lock:
            self.active_sessions = max(0, self.active_sessions - 1)
        obs.REGISTRY.gauge("server.sessions.active").set(self.active_sessions)

    # -- the request gate -------------------------------------------------

    def enter_request(self) -> None:
        """Count a request in, or shed with :class:`Overloaded`.

        Split from :meth:`exit_request` because the request loop
        admits at submit time and releases on whichever thread ran
        the request — its waiter's or a worker's.
        """
        with self._lock:
            if self.queue_depth >= self.max_queue_depth:
                self.rejected_requests += 1
                self._shed("queue",
                           f"{self.queue_depth} requests in flight "
                           f"(cap {self.max_queue_depth})")
            self.queue_depth += 1
            # Under the lock, so the last set is the live depth.
            obs.REGISTRY.gauge("server.queue.depth").set(self.queue_depth)

    def exit_request(self) -> None:
        with self._lock:
            self.queue_depth = max(0, self.queue_depth - 1)
            obs.REGISTRY.gauge("server.queue.depth").set(self.queue_depth)
            if not self.queue_depth:
                self._idle.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no admitted request is unfinished; False if
        *timeout* seconds pass first."""
        with self._idle:
            return self._idle.wait_for(lambda: not self.queue_depth,
                                       timeout)

    @contextmanager
    def request(self) -> Iterator[None]:
        """``with admission.request():`` — depth-gate one request."""
        self.enter_request()
        try:
            yield
        finally:
            self.exit_request()

    # -- internals --------------------------------------------------------

    def _shed(self, gate: str, detail: str) -> None:
        """Under the lock: account and raise the typed refusal."""
        obs.REGISTRY.counter("server.overloaded").inc()
        obs.REGISTRY.counter(f"server.overloaded.{gate}").inc()
        if gate == "sessions":
            obs.REGISTRY.counter("server.sessions.rejected").inc()
        obs.EVENTS.emit("server.overloaded", severity="warn",
                        gate=gate, detail=detail,
                        retry_after=self.retry_after)
        raise Overloaded(
            f"overloaded: {detail}; retry after "
            f"{self.retry_after:.3f}s", retry_after=self.retry_after)

    def __repr__(self) -> str:
        return (f"AdmissionController(sessions="
                f"{self.active_sessions}/{self.max_sessions}, "
                f"queue={self.queue_depth}/{self.max_queue_depth})")
