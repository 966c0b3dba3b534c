"""The resilient multi-session layer: snapshot-isolated reads,
overload-graceful degradation, per-request timeouts, the threaded
request loop, telemetry, and the CLI surface.

The invariants under test are the PR's acceptance bullets:

* a pinned reader's view is frozen — repeatable reads across
  concurrent commits, and uncommitted state is never observable;
* past the admission caps the server sheds with typed ``Overloaded``
  (retry hint included) — no hang, no corruption;
* an over-budget write aborts through the inverse-op rollback;
* an N-reader/M-writer storm ends with zero torn reads and a final
  recovery that relabels nothing (Proposition 1 across concurrency).
"""

import json
import sys
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.server import (
    DatabaseServer,
    Overloaded,
    SessionClosed,
    SessionError,
    SessionExpired,
    snapshots,
)
from repro.storage import FileBackend, MemoryBackend, faults, recover
from repro.storage.faults import FaultPlan, derive_seed
from repro.workloads.bookstore import (
    BOOKS_NAMESPACE,
    make_bookstore_document,
)
from repro.xmlio.qname import QName

TITLES = "/BookStore/Book/Title"


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()
    faults.clear()
    faults.clear_local()


def make_server(**kwargs):
    kwargs.setdefault("workers", 2)
    return DatabaseServer(MemoryBackend(),
                          make_bookstore_document(books=5, seed=3),
                          **kwargs)


def add_book(tag):
    def mutate(engine, session):
        store = engine.children(engine.document)[0]
        book = engine.insert_child(
            store, 0, name=QName(BOOKS_NAMESPACE, "Book"))
        title = engine.insert_child(
            book, 0, name=QName(BOOKS_NAMESPACE, "Title"))
        engine.insert_child(title, 0, text=tag)
    return mutate


class TestSnapshotIsolation:
    def test_pinned_reader_is_frozen_across_commits(self):
        with make_server() as server:
            reader = server.open_session("read")
            assert len(reader.query_values(TITLES)) == 5
            with server.open_session("write") as writer:
                writer.execute(add_book("X1"))
                writer.execute(add_book("X2"))
            # The old pin holds its horizon; a fresh pin sees both.
            assert len(reader.query_values(TITLES)) == 5
            with server.open_session("read") as fresh:
                assert len(fresh.query_values(TITLES)) == 7
                assert fresh.snapshot.horizon > reader.snapshot.horizon
            reader.close()

    def test_readers_at_one_horizon_share_a_snapshot(self):
        with make_server() as server:
            a = server.open_session("read")
            b = server.open_session("read")
            assert a.snapshot is b.snapshot
            assert a.snapshot.pins == 2
            assert obs.REGISTRY.value("server.snapshot.cache_hits") >= 1
            a.close()
            b.close()

    def test_uncommitted_state_is_unobservable(self):
        """A reader pinned *inside* an open write transaction sees the
        pre-transaction state: its horizon stops at the last COMMIT."""
        with make_server() as server:
            observed = []

            def mutate_and_peek(engine, session):
                add_book("UNCOMMITTED")(engine, session)
                with server.open_session("read") as peek:
                    observed.append(peek.query_values(TITLES))

            with server.open_session("write") as writer:
                writer.execute(mutate_and_peek)
            assert len(observed[0]) == 5  # not 6: COMMIT hadn't landed
            assert "UNCOMMITTED" not in observed[0]

    def test_snapshot_relabels_zero(self):
        with make_server() as server:
            with server.open_session("write") as writer:
                writer.execute(add_book("Y"))
            with server.open_session("read") as reader:
                assert reader.snapshot.relabels == 0

    def test_write_session_reads_its_own_writes(self):
        with make_server() as server:
            with server.open_session("write") as writer:
                writer.execute(add_book("MINE"))
                values = writer.query_values(TITLES)
            assert "MINE" in values

    def test_write_session_values_are_built_under_the_query_lock(self):
        """Two threads on one write session: an ``execute`` arriving
        while ``query_values`` is turning its nodes into strings must
        wait for the whole answer, not slip in between the query and
        the extraction."""
        with make_server() as server:
            writer = server.open_session("write")
            engine = server.engine
            extracting = threading.Event()
            mutated = threading.Event()
            seen_mutation = []
            string_values = engine.string_values

            def slow_string_values(descriptors):
                if not extracting.is_set():
                    extracting.set()
                    # Give the other thread every chance to get in.
                    mutated.wait(timeout=0.3)
                seen_mutation.extend([mutated.is_set()] * len(descriptors))
                return string_values(descriptors)

            def mutate(live, session):
                add_book("RACED")(live, session)
                mutated.set()

            def second_thread():
                assert extracting.wait(timeout=10.0)
                writer.execute(mutate)

            engine.string_values = slow_string_values
            thread = threading.Thread(target=second_thread)
            thread.start()
            try:
                values = writer.query_values(TITLES)
            finally:
                thread.join(timeout=10.0)
                del engine.string_values
            assert not thread.is_alive() and mutated.is_set()
            assert len(values) == 5 and "RACED" not in values
            assert seen_mutation == [False] * 5
            assert "RACED" in writer.query_values(TITLES)
            writer.close()


class TestPinWriterRaces:
    """The ``recover()`` fallback of a pin — taken here because a
    server's first pin has no cached snapshot to advance — reads image
    and log separately, so it holds the write latch for that one
    recovery: a commit or checkpoint from another thread waits for it
    and lands after, and the snapshot holds the state it was keyed
    at.  The advance path reads one scan and takes no latch; its races
    are in ``test_snapshot_advance.py``."""

    def _race_the_fallback(self, server, monkeypatch, write):
        """Pin on one thread while *write* runs on another, started
        once the pin's recover() is under way; checks that *write*
        finished only after recover() returned, and returns the
        pinned snapshot."""
        entered, release, written = (threading.Event(),
                                     threading.Event(),
                                     threading.Event())
        real = snapshots.recover
        finished, pinned = [], []

        def held(backend):
            entered.set()
            assert release.wait(10.0)
            result = real(backend)
            finished.append("recover")
            return result

        def write_then_mark():
            write()
            finished.append("write")
            written.set()

        monkeypatch.setattr(snapshots, "recover", held)
        reader = threading.Thread(
            target=lambda: pinned.append(server.snapshots.pin()))
        writer = threading.Thread(target=write_then_mark)
        reader.start()
        try:
            assert entered.wait(10.0)
            writer.start()
            # The writer must wait for the latch the fallback holds.
            assert not written.wait(0.2)
        finally:
            release.set()
            reader.join(10.0)
            if writer.ident is not None:
                writer.join(10.0)
        monkeypatch.undo()
        assert not reader.is_alive() and not writer.is_alive()
        assert finished == ["recover", "write"]
        return pinned[0]

    def _assert_the_next_pin_advances(self, server):
        with server.open_session("read") as reader:
            values = reader.query_values(TITLES)
            assert reader.snapshot.key == server.snapshots.current_key()
            assert reader.snapshot.relabels == 0
        assert obs.REGISTRY.value(
            "server.snapshot.materializations") == 1
        assert obs.REGISTRY.value("server.snapshot.advances") == 1
        return values

    def test_a_commit_from_another_thread_waits_for_the_fallback(
            self, monkeypatch):
        with make_server() as server:
            manager = server.snapshots
            before = manager.current_key()

            def write():
                with server.open_session("write") as writer:
                    writer.execute(add_book("RACER"))

            snapshot = self._race_the_fallback(server, monkeypatch, write)
            assert snapshot.key == before != manager.current_key()
            assert len(snapshot.engine.string_values(
                snapshot.queries().evaluate(TITLES))) == 5
            manager.release(snapshot)
            values = self._assert_the_next_pin_advances(server)
            assert len(values) == 6 and "RACER" in values

    def test_a_checkpoint_from_another_thread_waits_for_the_fallback(
            self, monkeypatch):
        with make_server() as server:
            with server.open_session("write") as writer:
                writer.execute(add_book("PRE"))
            manager = server.snapshots
            before = manager.current_key()
            snapshot = self._race_the_fallback(server, monkeypatch,
                                               server.checkpoint_now)
            assert snapshot.key == before != manager.current_key()
            assert len(snapshot.engine.string_values(
                snapshot.queries().evaluate(TITLES))) == 6
            manager.release(snapshot)
            assert len(self._assert_the_next_pin_advances(server)) == 6


class TestSessionLifecycle:
    def test_unknown_mode_is_rejected_before_any_claim(self):
        with make_server() as server:
            with pytest.raises(SessionError):
                server.open_session("admin")
            assert server.admission.active_sessions == 0

    def test_closed_session_refuses_requests(self):
        with make_server() as server:
            session = server.open_session("read")
            session.close()
            with pytest.raises(SessionClosed):
                session.query(TITLES)
            session.close()  # idempotent

    def test_deadline_expiry_is_a_typed_error(self):
        with make_server() as server:
            session = server.open_session("read", deadline=0.001)
            import time
            time.sleep(0.01)
            with pytest.raises(SessionExpired):
                session.query(TITLES)
            session.close()

    def test_nonpositive_deadline_rejected(self):
        with make_server() as server:
            with pytest.raises(SessionError):
                server.open_session("read", deadline=-1)


class TestOverload:
    def test_session_cap_sheds_with_retry_hint(self):
        with make_server(max_sessions=2) as server:
            held = [server.open_session("read") for _ in range(2)]
            with pytest.raises(Overloaded) as info:
                server.open_session("read")
            assert info.value.retry_after > 0
            assert info.value.kind == "overloaded"
            assert info.value.as_dict() == {
                "retry_after": info.value.retry_after}
            # Shedding left nothing half-open: closing the survivors
            # frees every slot.
            for session in held:
                session.close()
            assert server.admission.active_sessions == 0
            server.open_session("read").close()  # admits again

    def test_queue_cap_sheds_submissions(self):
        with make_server(max_queue_depth=1, workers=1) as server:
            gate = threading.Event()
            first = server.submit(gate.wait)  # occupies the only slot
            with pytest.raises(Overloaded):
                server.submit(lambda: None)
            gate.set()
            first.wait(5.0)

    def test_submit_after_close_raises_instead_of_hanging(self):
        server = make_server()
        server.close()
        with pytest.raises(SessionError):
            server.submit(lambda: None)
        with pytest.raises(SessionError):
            server.loop.submit(lambda: None)  # the loop refuses too
        # The refusal released its admission slot.
        assert server.admission.queue_depth == 0

    def test_queue_depth_gauge_returns_to_idle(self):
        with make_server() as server:
            server.submit(lambda: None).wait(5.0)
            server.submit(lambda: None).wait(5.0)
            # exit_request mirrors enter_request: the gauge tracks the
            # live depth back down, not just the admitted peak.
            assert obs.REGISTRY.value("server.queue.depth") == 0

    def test_shed_is_counted_and_evented(self):
        with make_server(max_sessions=1) as server:
            session = server.open_session("read")
            with pytest.raises(Overloaded):
                server.open_session("read")
            session.close()
            assert obs.REGISTRY.value("server.overloaded") == 1
            assert obs.REGISTRY.value("server.sessions.rejected") == 1
            events = obs.EVENTS.find("server.overloaded")
            assert events and events[0].fields["gate"] == "sessions"


class TestRequestTimeout:
    def test_over_budget_write_rolls_back(self):
        with make_server() as server:
            before = server.engine.node_count()

            def slow(engine, session):
                add_book("SLOW")(engine, session)
                import time
                time.sleep(0.05)

            with server.open_session("write") as writer:
                with pytest.raises(SessionExpired):
                    writer.execute(slow, timeout=0.01)
                # Inverse-op rollback: the engine is untouched and the
                # session survives for the next (in-budget) request.
                assert server.engine.node_count() == before
                writer.execute(add_book("FAST"))
            assert server.engine.node_count() > before

    def test_request_timeout_does_not_clobber_session_deadline(self):
        with make_server() as server:
            with server.open_session("write", deadline=30.0) as writer:
                writer.execute(add_book("A"), timeout=5.0)
                assert writer.remaining() > 10  # restored to ~30s


class TestConcurrentStorm:
    READERS, WRITERS, ROUNDS = 4, 2, 6

    def test_readers_and_writers_converge_clean(self):
        server = make_server(max_sessions=16, acquire_timeout=10.0)
        torn = []
        errors = []

        def reader(index):
            try:
                for _ in range(self.ROUNDS):
                    with server.open_session("read") as session:
                        first = session.query_values(TITLES)
                        again = session.query_values(TITLES)
                        if first != again:
                            torn.append((index, first, again))
            except Exception as exc:  # noqa: BLE001 — report, don't hang
                errors.append(exc)

        def writer(index):
            try:
                for round_no in range(self.ROUNDS):
                    with server.open_session("write") as session:
                        session.execute(add_book(f"w{index}r{round_no}"))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.READERS)]
        threads += [threading.Thread(target=writer, args=(i,))
                    for i in range(self.WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert not torn  # every session's view was frozen
        server.checkpoint_now()
        final = recover(server.backend)
        assert final.relabels == 0
        titles = set()
        engine = final.engine
        store = engine.children(engine.document)[0]
        for book in engine.children(store):
            titles.add(engine.string_value(engine.children(book)[0]))
        expected = {f"w{i}r{r}" for i in range(self.WRITERS)
                    for r in range(self.ROUNDS)}
        assert expected <= titles  # every commit survived
        server.close()


class TestRequestLoopExactlyOnce:
    """A request is run exactly once, by its waiter or by a worker,
    whichever claims it first — and close() waits for both."""

    CLIENTS, REQUESTS = 4, 200

    @pytest.fixture(autouse=True)
    def _fine_switching(self):
        # Thread switches every 10 us: the claim races as often as it
        # can.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(previous)

    def test_every_thunk_runs_once_and_every_request_resolves(self):
        server = make_server(
            max_queue_depth=self.CLIENTS * self.REQUESTS)
        ran = []  # one entry per thunk call (list.append is atomic)
        resolved = []
        unwaited = []
        errors = []

        def thunk(key):
            def run():
                ran.append(key)
                return key
            return run

        def client(index):
            mine, later, never = [], [], []
            try:
                for number in range(self.REQUESTS):
                    key = (index, number)
                    pending = server.submit(thunk(key))
                    if number % 3 == 0:  # submit().wait()
                        mine.append((key, pending.wait()))
                    elif number % 3 == 1:  # waited on later
                        later.append((key, pending))
                    else:  # nobody waits: a worker must run it
                        never.append((key, pending))
                    if len(later) == 10 or number == self.REQUESTS - 1:
                        mine += [(key, pending.wait(30.0))
                                 for key, pending in later]
                        later.clear()
            except Exception as exc:  # noqa: BLE001 — report, don't hang
                errors.append(exc)
            resolved.extend(mine)
            unwaited.extend(never)

        threads = [threading.Thread(target=client, args=(i,),
                                    daemon=True)
                   for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        server.close()  # drains what nobody waited on
        assert not errors
        keys = {(i, n) for i in range(self.CLIENTS)
                for n in range(self.REQUESTS)}
        assert len(ran) == len(keys) and set(ran) == keys
        assert all(key == result for key, result in resolved)
        assert all(pending.done() and pending.wait(0) == key
                   for key, pending in unwaited)
        assert len(resolved) + len(unwaited) == len(keys)
        assert obs.REGISTRY.value("server.queue.depth") == 0
        assert server.admission.queue_depth == 0

    def test_close_lets_an_inline_write_commit_first(self):
        server = make_server()
        writer = server.open_session("write")
        hold = threading.Event()  # keeps both workers busy
        held = [server.submit(hold.wait) for _ in range(2)]
        inside, proceed = threading.Event(), threading.Event()

        def mutate(engine, session):
            add_book("late")(engine, session)
            inside.set()
            assert proceed.wait(10.0)

        outcome = []
        client = threading.Thread(target=lambda: outcome.append(
            server.submit(lambda: writer.execute(mutate)).wait()),
            daemon=True)
        client.start()
        try:
            assert inside.wait(10.0)  # running on the client's thread
            assert obs.REGISTRY.value("server.loop.inline") == 1
            closer = threading.Thread(target=server.close)
            closer.start()
            hold.set()  # the workers drain the queue and exit
            closer.join(0.3)
            assert closer.is_alive()  # still waiting for the write
        finally:
            hold.set()
            proceed.set()
        client.join(10.0)
        closer.join(10.0)
        assert not client.is_alive() and not closer.is_alive()
        assert outcome == [None]  # committed: the WAL was still open
        assert all(request.done() for request in held)
        engine = recover(server.backend).engine
        store = engine.children(engine.document)[0]
        assert "late" in {engine.string_value(engine.children(book)[0])
                          for book in engine.children(store)}

    def test_a_poll_never_runs_the_request(self):
        with make_server() as server:
            hold = threading.Event()
            held = [server.submit(hold.wait) for _ in range(2)]
            ran = []
            pending = server.submit(lambda: ran.append(1))
            for timeout in (0, -1.0):
                with pytest.raises(SessionExpired):
                    pending.wait(timeout)
            assert ran == [] and not pending.done()
            hold.set()
            pending.wait()
            for request in held:
                request.wait(10.0)
            assert ran == [1]


class TestTelemetry:
    def test_lifecycle_counters_and_events(self):
        with make_server() as server:
            with server.open_session("read") as reader:
                reader.query(TITLES)
            with server.open_session("write") as writer:
                writer.execute(add_book("T"))
            registry = obs.REGISTRY
            assert registry.value("server.sessions.opened") == 2
            assert registry.value("server.sessions.closed") == 2
            assert registry.value("server.lease.grants") == 1
            assert registry.value("server.lease.renewals") == 1
            assert registry.value("server.requests.read") == 1
            assert registry.value("server.requests.write") == 1
            assert registry.value("server.read.latency.ns") == 1
            assert registry.histogram(
                "server.session.latency.ns").summary()["p99"] > 0
            kinds = [e.kind for e in obs.EVENTS]
            assert "session.open" in kinds
            assert "session.close" in kinds
            assert "lease.granted" in kinds
            text = obs.render_prometheus(obs.REGISTRY)
            assert "repro_server_lease_grants_total" in text
            assert "repro_server_requests_total" in text

    def test_lease_wait_histogram_records_contention(self):
        with make_server() as server:
            with server.open_session("write"):
                pass
            summary = obs.REGISTRY.histogram(
                "server.lease.wait.ns").summary()
            assert summary["count"] == 1
            assert summary["max"] > 0


class TestSeededFaultPlans:
    """Satellite: explicit-seed fault sweeps are reproducible per
    thread via split() + thread-local installation."""

    def test_derive_seed_is_a_pure_function(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_split_replays_identically(self):
        parent = FaultPlan.probabilistic(seed=11, rate=0.3)
        a = parent.split("thread-1")
        b = FaultPlan.probabilistic(seed=11, rate=0.3).split("thread-1")
        decisions_a = [a.should_crash("wal.append") for _ in range(200)]
        decisions_b = [b.should_crash("wal.append") for _ in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a)  # the coin does land

    def test_split_children_are_independent(self):
        parent = FaultPlan.probabilistic(seed=11, rate=0.3)
        a = [parent.split("t1").should_crash("wal.append")
             for _ in range(1)]
        decisions = {
            key: [parent.split(key).should_crash("wal.append")
                  for _ in range(1)]
            for key in ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8")}
        assert len({tuple(v) for v in decisions.values()}) > 1

    def test_thread_local_plans_do_not_interfere(self):
        parent = FaultPlan.probabilistic(seed=5, rate=1.0)
        outcomes = {}

        def armed():
            with faults.injected_local(parent.split("armed")):
                outcomes["armed"] = []
                try:
                    faults.fire("wal.append")
                    outcomes["armed"].append("survived")
                except faults.CrashError:
                    outcomes["armed"].append("crashed")

        def unarmed():
            # No local plan, no global plan: fire() is a no-op here
            # even while the other thread's plan is armed.
            faults.fire("wal.append")
            outcomes["unarmed"] = "survived"

        t1 = threading.Thread(target=armed)
        t2 = threading.Thread(target=unarmed)
        t1.start(); t1.join()
        t2.start(); t2.join()
        assert outcomes["armed"] == ["crashed"]  # rate=1.0 always fires
        assert outcomes["unarmed"] == "survived"

    def test_local_plan_overrides_global(self):
        never = FaultPlan()  # nothing armed
        always = FaultPlan.probabilistic(seed=1, rate=1.0)
        with faults.injected(always):
            with faults.injected_local(never):
                faults.fire("wal.append")  # local (inert) plan wins
            with pytest.raises(faults.CrashError):
                faults.fire("wal.append")  # global armed plan again

    def test_concurrent_local_churn_never_disables_injection(self):
        """Session threads installing/clearing local plans must not
        turn fault injection off for anyone else (the former shared
        installation counter could lose updates and do exactly that)."""
        always = FaultPlan.probabilistic(seed=1, rate=1.0)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                faults.install_local(FaultPlan())
                faults.clear_local()

        threads = [threading.Thread(target=churn) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            with faults.injected(always):
                for _ in range(200):
                    with pytest.raises(faults.CrashError):
                        faults.fire("wal.append")
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)


class TestServeCli:
    """``repro session``, the CLI's one entry to the server layer."""

    @pytest.fixture
    def document(self, tmp_path):
        path = tmp_path / "books.xml"
        path.write_text(
            '<BookStore xmlns="http://www.books.org">'
            + "".join(f"<Book><Title>T{i}</Title><Author>A</Author>"
                      f"<Date>2000</Date><ISBN>i-{i}</ISBN>"
                      f"<Publisher>P</Publisher></Book>"
                      for i in range(3))
            + "</BookStore>", encoding="utf-8")
        return str(path)

    def test_session_verb_json(self, document, capsys):
        code = main(["session", document, TITLES, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 3
        assert report["snapshot"].startswith("lsn")
        assert report["relabels"] == 0

    def test_session_write_mode_reports_lease(self, document, capsys):
        code = main(["session", document, TITLES, "--mode", "write",
                     "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lease"]["renewals"] == 0
        assert "snapshot" not in report

    def test_json_errors_carry_stable_kind(self, document, capsys):
        code = main(["session", document, "not-absolute", "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)["error"]
        assert payload["kind"] == "query"
        assert payload["type"] == "QueryError"
