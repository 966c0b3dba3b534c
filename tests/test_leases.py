"""Lease lifecycle edges: expiry during commit, heartbeat racing
expiry, dead-letter drain and re-claim, backoff jitter bounds.

The lease manager takes an injectable clock, so every expiry edge here
is driven deterministically — the only real-time tests are the ones
about actual thread handoff (release waking a waiter, timeout).
"""

import threading
import time

import pytest

from repro import obs
from repro.server import (
    DatabaseServer,
    LeaseExpired,
    LeaseManager,
    LeaseTimeout,
)
from repro.storage import MemoryBackend
from repro.workloads.bookstore import (
    BOOKS_NAMESPACE,
    make_bookstore_document,
)
from repro.xmlio.qname import QName


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def manager(clock):
    return LeaseManager(ttl=0.5, seed=7, clock=clock)


class TestGrantRelease:
    def test_grant_then_release_frees_the_lease(self, manager):
        lease = manager.acquire("w1")
        assert manager.holder() is lease
        assert lease.owner == "w1"
        manager.release(lease)
        assert manager.holder() is None
        assert manager.grants == 1

    def test_release_wakes_a_blocked_waiter(self):
        manager = LeaseManager(ttl=60.0, seed=7)  # never expires
        first = manager.acquire("w1")
        granted = []

        def contend():
            granted.append(manager.acquire("w2", timeout=5.0))

        thread = threading.Thread(target=contend)
        thread.start()
        time.sleep(0.02)
        assert not granted  # blocked behind w1
        manager.release(first)
        thread.join(timeout=5.0)
        assert granted and granted[0].owner == "w2"

    def test_timeout_is_bounded_retry_not_a_queue(self):
        manager = LeaseManager(ttl=60.0, seed=7)
        manager.acquire("w1")
        started = time.monotonic()
        with pytest.raises(LeaseTimeout):
            manager.acquire("w2", timeout=0.05)
        # Gave up promptly: the timeout bounds the wait, with slack
        # for backoff granularity.
        assert time.monotonic() - started < 1.0


class TestExpiryAndDeadLetters:
    def test_expired_holder_is_dead_lettered_and_displaced(
            self, manager, clock):
        lease = manager.acquire("w1", note="txn #1")
        clock.advance(0.6)  # past the 0.5 TTL
        successor = manager.acquire("w2")  # immediate: incumbent lapsed
        assert successor.owner == "w2"
        assert manager.expirations == 1
        letters = manager.drain_dead_letters()
        assert [l.owner for l in letters] == ["w1"]
        assert letters[0].note == "txn #1"
        assert manager.drain_dead_letters() == []  # drained

    def test_expired_lease_cannot_renew_or_release(self, manager, clock):
        lease = manager.acquire("w1")
        clock.advance(0.6)
        with pytest.raises(LeaseExpired):
            manager.renew(lease)
        # Release of the lapsed claim is a harmless no-op...
        manager.release(lease)
        # ...and the lease is genuinely free for a re-claim.
        assert manager.acquire("w2").owner == "w2"

    def test_reclaim_after_dead_letter_drain(self, manager, clock):
        for round_no in range(3):
            manager.acquire(f"w{round_no}", note=f"round {round_no}")
            clock.advance(0.6)
        assert manager.holder() is None  # last one also lapsed
        letters = manager.drain_dead_letters()
        assert [l.note for l in letters] == [
            "round 0", "round 1", "round 2"]
        fresh = manager.acquire("fresh")
        assert manager.holder() is fresh


class TestHeartbeat:
    def test_renewal_extends_the_ttl(self, manager, clock):
        lease = manager.acquire("w1")
        clock.advance(0.4)
        manager.renew(lease)
        assert lease.renewals == 1
        assert lease.lease_until == pytest.approx(clock.now + 0.5)
        clock.advance(0.4)  # 0.8s of life — dead without the heartbeat
        manager.check(lease)  # still live

    def test_renewal_racing_expiry_is_atomic(self, manager, clock):
        """Whichever side reaches the lock first wins — a heartbeat
        arriving at (or after) the expiry instant loses cleanly."""
        lease = manager.acquire("w1")
        clock.advance(0.5)  # now == lease_until: expired, not 'just in'
        with pytest.raises(LeaseExpired):
            manager.renew(lease)
        assert lease.revoked
        assert [l.owner for l in manager.drain_dead_letters()] == ["w1"]

    def test_renewal_after_reclaim_fails(self, manager, clock):
        lease = manager.acquire("w1")
        clock.advance(0.6)
        manager.acquire("w2")  # displaces the lapsed w1
        clock.advance(0.1)
        with pytest.raises(LeaseExpired):
            manager.renew(lease)  # w1's handle is a stranger now


class TestBackoffJitter:
    def test_jitter_stays_in_bounds(self):
        manager = LeaseManager(base_backoff=0.005, max_backoff=0.1,
                               seed=42)
        for attempt in range(12):
            expected = min(0.005 * (2 ** attempt), 0.1)
            for _ in range(50):
                delay = manager.backoff_delay(attempt)
                # Uniform in [delay/2, delay]: never a zero-sleep hot
                # spin, never past the cap.
                assert expected / 2 <= delay <= expected

    def test_backoff_is_exponential_until_the_cap(self):
        manager = LeaseManager(base_backoff=0.005, max_backoff=0.1,
                               seed=0)
        # attempt 10 would be 5.12s uncapped; the cap bounds it.
        assert manager.backoff_delay(10) <= 0.1

    def test_same_seed_replays_the_same_jitter(self):
        a = LeaseManager(seed=123)
        b = LeaseManager(seed=123)
        c = LeaseManager(seed=124)
        seq_a = [a.backoff_delay(i % 4) for i in range(20)]
        seq_b = [b.backoff_delay(i % 4) for i in range(20)]
        seq_c = [c.backoff_delay(i % 4) for i in range(20)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_both_entries_draw_one_sequence(self):
        """``backoff_delay`` is ``backoff_delay_locked`` under the lock:
        alternating the two entries replays one manager's jitter."""
        one = LeaseManager(base_backoff=0.005, max_backoff=0.1, seed=9)
        both = LeaseManager(base_backoff=0.005, max_backoff=0.1, seed=9)
        expected = [one.backoff_delay(i % 6) for i in range(20)]
        drawn = []
        for i in range(20):
            if i % 2:
                with both._lock:
                    drawn.append(both.backoff_delay_locked(i % 6))
            else:
                drawn.append(both.backoff_delay(i % 6))
        assert drawn == expected


class TestExpiryDuringCommit:
    def test_lapsed_holder_rolls_back_instead_of_publishing(self):
        """A write transaction whose lease expires mid-flight aborts
        through the inverse-op rollback: the engine is exactly as
        before, and the abandoned work is dead-lettered."""
        server = DatabaseServer(MemoryBackend(),
                                make_bookstore_document(books=4, seed=1),
                                lease_ttl=0.05)
        try:
            session = server.open_session("write")
            before = server.engine.node_count()

            def slow_mutate(engine, sess):
                store = engine.children(engine.document)[0]
                engine.insert_child(
                    store, 0, name=QName(BOOKS_NAMESPACE, "Book"))
                time.sleep(0.1)  # outlive the 0.05s TTL

            with pytest.raises(LeaseExpired):
                session.execute(slow_mutate)
            assert server.engine.node_count() == before  # rolled back
            letters = server.leases.drain_dead_letters()
            assert len(letters) == 1
            assert "write session" in letters[0].note
            session.close()  # releasing the lapsed lease is a no-op
        finally:
            server.close()
