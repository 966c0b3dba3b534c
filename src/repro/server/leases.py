"""The single-writer intent lease: expiry, heartbeat, backoff,
dead-lettering.

The storage engine admits exactly one mutator (the transaction manager
forbids nesting, and the WAL is a single append stream), so writer
concurrency is a *handoff* problem, not a sharing problem.  The shape
here is the event-store claim pattern: a writer **claims** the intent
to mutate, the claim **expires** at ``lease_until`` unless the worker
heartbeats (:meth:`LeaseManager.renew`), and work abandoned by an
expired holder is recorded as a **dead letter** — a ``lease.expired``
and a ``lease.dead_letter`` event in the bounded event ring
(:data:`repro.obs.EVENTS`) carrying owner, note and renewals, an
explicit acknowledgment that the handoff happened mid-work rather
than silent forfeiture.  Durability does not depend on the lease: an
expired holder's unfinished transaction either rolls back in-process
(its next lease check raises :class:`LeaseExpired`) or, if the process
died, recovery discards the uncommitted WAL suffix.  The lease only
bounds *who may append next*, which is why a TTL plus heartbeats is
enough — there is no distributed state to fence.

Waiters retry under **bounded jittered exponential backoff**: attempt
*n* sleeps ``uniform(delay/2, delay)`` where ``delay = base * 2**n``
capped at ``max_backoff`` — the classic decorrelation that keeps N
blocked writers from stampeding the moment a lease frees.  The RNG is
seeded per manager (explicitly, never module-global), so contention
tests replay exactly.  A waiter that exhausts its timeout budget gets
:class:`LeaseTimeout` — bounded retry, not an unbounded queue.

All waiting runs through one condition variable so releases wake
waiters immediately; the backoff delay only caps how long a waiter
sleeps *between* checks when nothing was signalled (e.g. the holder
died without releasing and the lease must time out).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.server.session import LeaseExpired, LeaseTimeout

#: Default lease TTL in seconds — long enough for a transaction, short
#: enough that a dead holder stalls successors only briefly.
DEFAULT_TTL = 0.5

#: First backoff delay (seconds); attempt n sleeps ~ base * 2**n.
DEFAULT_BASE_BACKOFF = 0.005

#: Backoff delay cap (seconds).
DEFAULT_MAX_BACKOFF = 0.1


@dataclass
class Lease:
    """One writer's claim on the mutation right."""

    owner: str
    lease_until: float          # monotonic seconds; expiry cutoff
    granted_ns: int             # monotonic_ns at grant (telemetry)
    renewals: int = 0
    note: str = ""              # what the holder is doing (dead letters)
    revoked: bool = field(default=False, repr=False)

    def as_dict(self) -> dict:
        return {"owner": self.owner, "lease_until": self.lease_until,
                "renewals": self.renewals, "note": self.note}


class LeaseManager:
    """Grants, renews, expires and dead-letters the writer lease."""

    def __init__(self, ttl: float = DEFAULT_TTL,
                 base_backoff: float = DEFAULT_BASE_BACKOFF,
                 max_backoff: float = DEFAULT_MAX_BACKOFF,
                 seed: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.ttl = ttl
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        #: Explicit seed: backoff jitter replays exactly per manager.
        self.seed = seed
        self._rng = random.Random(seed)
        self._clock = clock
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self._holder: Optional[Lease] = None
        self.grants = 0
        self.expirations = 0

    # -- backoff ----------------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """The jittered sleep before retry *attempt* (0-based).

        Uniform in ``[delay/2, delay]`` with
        ``delay = min(base * 2**attempt, max_backoff)`` — bounded
        below (never a zero-sleep hot spin) and above (the cap).
        """
        with self._lock:
            return self.backoff_delay_locked(attempt)

    # -- the claim protocol ----------------------------------------------

    def acquire(self, owner: str, timeout: Optional[float] = None,
                note: str = "") -> Lease:
        """Claim the lease, waiting with bounded jittered backoff.

        Raises :class:`LeaseTimeout` when *timeout* seconds pass
        without a grant.  An expired incumbent is dead-lettered and
        displaced on the spot — the expiry check runs under the same
        lock as the grant, so exactly one waiter wins.
        """
        started = time.monotonic_ns()
        deadline = (self._clock() + timeout
                    if timeout is not None else None)
        attempt = 0
        while True:
            with self._lock:
                now = self._clock()
                self._expire_locked(now)
                if self._holder is None:
                    lease = Lease(owner=owner,
                                  lease_until=now + self.ttl,
                                  granted_ns=time.monotonic_ns(),
                                  note=note)
                    self._holder = lease
                    self.grants += 1
                    self._observe_wait(started, attempt, granted=True)
                    obs.EVENTS.emit("lease.granted", owner=owner,
                                    lease_until=lease.lease_until,
                                    attempts=attempt)
                    return lease
                if deadline is not None and now >= deadline:
                    self._observe_wait(started, attempt, granted=False)
                    raise LeaseTimeout(
                        f"writer {owner!r} gave up after "
                        f"{attempt} attempt(s): lease held by "
                        f"{self._holder.owner!r} until "
                        f"{self._holder.lease_until:.3f}")
                # Sleep until: release signal, incumbent expiry, our
                # deadline, or the jittered backoff — whichever first.
                holder_expiry = self._holder.lease_until - now
                wait = min(self.backoff_delay_locked(attempt),
                           max(holder_expiry, 0.0) + 1e-4)
                if deadline is not None:
                    wait = min(wait, max(deadline - now, 0.0) + 1e-4)
                self._freed.wait(wait)
            attempt += 1

    def backoff_delay_locked(self, attempt: int) -> float:
        """:meth:`backoff_delay` for callers already holding the lock."""
        delay = min(self.base_backoff * (2 ** attempt),
                    self.max_backoff)
        return delay * (0.5 + 0.5 * self._rng.random())

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: extend ``lease_until`` by one TTL.

        Renewal *races* expiry by design: whichever reaches the lock
        first wins, atomically — a renewal that arrives after expiry
        (or after a successor claimed) raises :class:`LeaseExpired`
        with the work dead-lettered, never a split-brain extension.
        """
        with self._lock:
            now = self._clock()
            if self._holder is not lease or lease.revoked:
                raise LeaseExpired(
                    f"writer {lease.owner!r} lost the lease "
                    "(expired and reclaimed)")
            if now >= lease.lease_until:
                self._expire_locked(now)
                raise LeaseExpired(
                    f"writer {lease.owner!r} heartbeat arrived "
                    f"{now - lease.lease_until:.3f}s after expiry")
            lease.lease_until = now + self.ttl
            lease.renewals += 1
            obs.REGISTRY.counter("server.lease.renewals").inc()
            return lease

    def check(self, lease: Lease) -> None:
        """Raise :class:`LeaseExpired` unless *lease* is still live.

        Write paths call this before commit: an expired holder aborts
        (rollback) instead of publishing under a lapsed claim.
        """
        with self._lock:
            now = self._clock()
            if self._holder is not lease or lease.revoked \
                    or now >= lease.lease_until:
                self._expire_locked(now)
                raise LeaseExpired(
                    f"writer {lease.owner!r} holds no live lease")

    def release(self, lease: Lease) -> None:
        """Return the lease (normal completion); wakes one waiter.

        Releasing an already-expired/reclaimed lease is a no-op — the
        dead letter was recorded when the expiry was observed.
        """
        with self._lock:
            if self._holder is lease and not lease.revoked:
                self._holder = None
                self._freed.notify_all()
                obs.REGISTRY.counter("server.lease.releases").inc()

    def holder(self) -> Optional[Lease]:
        with self._lock:
            self._expire_locked(self._clock())
            return self._holder

    # -- internals --------------------------------------------------------

    def _expire_locked(self, now: float) -> None:
        holder = self._holder
        if holder is None or now < holder.lease_until:
            return
        holder.revoked = True
        self._holder = None
        self.expirations += 1
        self._freed.notify_all()
        obs.REGISTRY.counter("server.lease.expirations").inc()
        obs.EVENTS.emit("lease.expired", severity="warn",
                        owner=holder.owner, granted_ns=holder.granted_ns,
                        expired_ns=time.monotonic_ns(),
                        renewals=holder.renewals, note=holder.note)
        obs.EVENTS.emit("lease.dead_letter", severity="warn",
                        owner=holder.owner, note=holder.note)

    def _observe_wait(self, started_ns: int, attempts: int,
                      granted: bool) -> None:
        obs.REGISTRY.histogram("server.lease.wait.ns").observe(
            time.monotonic_ns() - started_ns)
        if granted:
            obs.REGISTRY.counter("server.lease.grants").inc()
            if attempts:
                obs.REGISTRY.counter("server.lease.contended").inc()
        else:
            obs.REGISTRY.counter("server.lease.timeouts").inc()

    def __repr__(self) -> str:
        with self._lock:
            held = self._holder.owner if self._holder else None
        return (f"LeaseManager(ttl={self.ttl}, holder={held!r}, "
                f"expirations={self.expirations})")
