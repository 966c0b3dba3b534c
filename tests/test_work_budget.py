"""Work counts on the path a user drives, asserted exactly.

Every count here is read from ``obs.REGISTRY`` or from the store, never
from a clock, so it cannot drift with the machine.  A change that
removes work lowers its bound here in the same change; a bound that
goes up is a regression, and the change that raises it names it.

* **A commit** — one fixed three-operation transaction (insert an
  ``author``, insert its text, set ``@year``) through
  :class:`DatabaseServer` on a :class:`FileBackend` with a synced WAL:
  WAL appends, syncs and bytes per commit, the bytes as the registry
  and as the log file count them.
* **A label** — at library ×1000, a §9.3 label is one ``bytes``: its
  mean size is at most 80 B and it refers to no other object.
* **A checkpoint** — at library ×1000 on a :class:`SqliteBackend`:
  blocks encoded, rows written and payload bytes of the first (full)
  checkpoint and of an incremental one after ten inserts, and the
  blocks a :class:`FileBackend` checkpoint encodes right after; and
  none at all for the first checkpoint after a SQLite store is
  reopened and recovered.
* **A request hand-off** — with every worker held, each
  ``submit(...).wait()`` is run by its waiter: one inline run and one
  request per call, and the depth back to what the workers hold.
* **A fallback pin** — with every cached snapshot pinned, a pin runs
  one ``recover()`` and counts one materialization: no retry.
* **A repeated query** — on :class:`MemoryBackend` and
  :class:`FileBackend`: one compile and one parse for eight
  ``Session.query`` calls of one string, and after schema growth one
  compile and one invalidation, with no parse.
* **A priced plan** — under ``cost``, the read path shapes (probe,
  child, positional, conjunctive) and the ``//`` ones (``//x[n]``,
  ``/a//x``) price only block and probe candidates: one per path plus
  one per probe-able predicate, and never the navigator.
* **A new literal on a known shape** — ``read_cold``'s positional,
  conjunctive and wide shapes: no ``parse_path`` call, no schema
  frontier matched, one compile, one shape-table hit; priced again only
  where the decisive step holds a value literal.
"""

import gc
import sys
import threading

import pytest

from repro import obs
from repro.query import StorageQueryEngine
from repro.server import DatabaseServer, snapshots
from repro.storage import (
    FileBackend,
    MemoryBackend,
    NidLabel,
    SqliteBackend,
    StorageEngine,
    recover,
)
from repro.workloads import make_library_document
from repro.xmlio import QName

#: BEGIN, three operations, COMMIT.
APPENDS_PER_COMMIT = 5
#: One durability barrier per record (ROADMAP item 4 lowers it to 1).
SYNCS_PER_COMMIT = 5
#: The framed records of one commit: five frame and record heads
#: (125 B), then 160 B of bodies — six labels of 14 to 22 B with their
#: lengths, the names ``author`` and ``year``, the 9-byte text, the
#: 4-byte year, an index and a flag.
WAL_BYTES_PER_COMMIT = 285


def _add_author(book_index: int):
    """The fixed transaction, on the *book_index*-th book: texts of
    one length, so every commit logs the same bytes."""
    def mutate(engine, session):
        library = engine.children(engine.document)[0]
        book = engine.children(library)[book_index]
        author = engine.insert_child(book, 1, name=QName("", "author"))
        engine.insert_child(author, 0, text=f"Writer {book_index:02d}")
        engine.set_attribute(book, QName("", "year"), "1999",
                             replace=True)
    return mutate


class TestCommitWork:
    @pytest.fixture
    def server(self, tmp_path, clean_obs):
        backend = FileBackend(tmp_path / "store.img",
                              wal_path=tmp_path / "store.wal")
        with DatabaseServer(backend,
                            make_library_document(books=6, papers=2,
                                                  seed=1),
                            sync_wal=True) as server:
            yield server

    def test_appends_syncs_and_bytes_per_commit(self, server):
        registry = obs.REGISTRY
        wal_file = server.backend.wal_path
        with server.open_session("write") as session:
            for book_index in range(4):
                before = (registry.value("wal.appends"),
                          registry.value("wal.sync.ns"),
                          registry.value("wal.bytes"),
                          wal_file.stat().st_size)
                session.execute(_add_author(book_index))
                after = (registry.value("wal.appends"),
                         registry.value("wal.sync.ns"),
                         registry.value("wal.bytes"),
                         wal_file.stat().st_size)
                assert [b - a for a, b in zip(before, after)] == [
                    APPENDS_PER_COMMIT, SYNCS_PER_COMMIT,
                    WAL_BYTES_PER_COMMIT, WAL_BYTES_PER_COMMIT]
        assert registry.value("txn.commits") == 4


def _deep_size(obj, seen: set) -> int:
    """``sys.getsizeof`` of *obj* and of every object it reaches,
    classes aside, each counted once."""
    if id(obj) in seen or isinstance(obj, type):
        return 0
    seen.add(id(obj))
    return sys.getsizeof(obj) + sum(_deep_size(referent, seen)
                                    for referent in gc.get_referents(obj))


class TestLabelFootprint:
    def test_a_label_is_one_bytes_object(self):
        engine = StorageEngine()
        engine.load_document(make_library_document(books=1000,
                                                   papers=1000, seed=1000))
        labels = [d.nid for d in engine.iter_document_order()]
        assert len(labels) == 14472
        assert sum(_deep_size(label, set()) for label in labels) \
            <= 80 * len(labels)
        for label in labels:
            # Nothing but its class, which every instance of a class
            # written in Python refers to.
            assert gc.get_referents(label) == [NidLabel]


#: Library ×1000 (``books=1000, papers=0, seed=1000``) at the default
#: block capacity.
BLOCKS_AT_LIBRARY_1000 = 154
#: Ten ``author`` + text inserts reach five blocks: the rows an
#: incremental SQLite checkpoint writes, with their payload bytes.
ROWS_AFTER_TEN_INSERTS = 5
PAYLOAD_BYTES_AFTER_TEN_INSERTS = 13714
#: The full first checkpoint of ``make_library_document(20, 5)``.
LIBRARY_20_5_PAYLOAD_BYTES = 12298


class TestCheckpointWork:
    def test_blocks_encoded_and_rows_written(self, tmp_path):
        encoded = obs.REGISTRY.counter("checkpoint.blocks.encoded")
        engine = StorageEngine()
        engine.load_document(make_library_document(
            books=1000, papers=0, seed=1000))
        backend = SqliteBackend(tmp_path / "store.db")

        def checkpoint(store):
            before = encoded.value
            info = store.checkpoint(engine)
            return info, encoded.value - before

        def rows(info) -> int:
            return backend._conn.execute(
                "SELECT COUNT(*) FROM block_rows WHERE gen = ?",
                (info.seq,)).fetchone()[0]

        try:
            info, blocks = checkpoint(backend)
            assert (info.mode, blocks, rows(info)) == (
                "full", BLOCKS_AT_LIBRARY_1000, BLOCKS_AT_LIBRARY_1000)
            assert engine.block_count() == BLOCKS_AT_LIBRARY_1000

            library = engine.children(engine.document)[0]
            for op, book in enumerate(engine.children(library)[:10]):
                author = engine.insert_child(book, 1,
                                             name=QName("", "author"))
                engine.insert_child(author, 0, text=f"Writer {op}")
            info, blocks = checkpoint(backend)
            assert (info.mode, rows(info), info.bytes, blocks) == (
                "incremental", ROWS_AFTER_TEN_INSERTS,
                PAYLOAD_BYTES_AFTER_TEN_INSERTS, ROWS_AFTER_TEN_INSERTS)

            _, blocks = checkpoint(FileBackend(tmp_path / "store.img"))
            assert blocks == 0
        finally:
            backend.close()

    def test_a_reopened_store_checkpoints_incrementally(self, tmp_path):
        """Recovery from the current generation adopts its rows: the
        first checkpoint after reopening writes and encodes nothing."""
        encoded = obs.REGISTRY.counter("checkpoint.blocks.encoded")
        engine = StorageEngine()
        engine.load_document(make_library_document(20, 5))
        path = tmp_path / "store.db"
        backend = SqliteBackend(path)
        try:
            first = backend.checkpoint(engine)
        finally:
            backend.close()
        assert first.mode == "full"
        assert first.bytes == LIBRARY_20_5_PAYLOAD_BYTES

        reopened = SqliteBackend(path)
        try:
            result = recover(reopened)
            assert result.replayed == 0
            before = encoded.value
            info = reopened.checkpoint(result.engine)
            assert (info.mode, info.bytes, encoded.value - before) == (
                "incremental", 0, 0)
            assert info.version == first.version

            # A write after the reopen rewrites only what it reached,
            # and the rows the checkpoint kept still read back.
            engine = result.engine
            book = engine.children(engine.children(engine.document)[0])[0]
            engine.insert_child(book, 1, text="reopened")
            info = reopened.checkpoint(engine)
            assert info.mode == "incremental"
            assert 0 < info.bytes < first.bytes
            expected = engine.string_value(engine.document)
        finally:
            reopened.close()
        again = SqliteBackend(path)
        try:
            restored = again.load_engine()
            assert restored.string_value(restored.document) == expected
        finally:
            again.close()


#: ``submit(...).wait()`` calls made while both workers are held.
HAND_OFFS = 8


class TestRequestHandOff:
    def test_a_waiter_runs_its_own_request(self, clean_obs):
        registry = obs.REGISTRY
        with DatabaseServer(MemoryBackend(),
                            make_library_document(books=6, papers=2,
                                                  seed=1),
                            workers=2) as server:
            gate, running = threading.Event(), threading.Semaphore(0)

            def hold():
                running.release()
                gate.wait()

            held = [server.submit(hold) for _ in range(2)]
            try:
                # Both workers are inside hold() before any request
                # below is submitted.
                for _ in held:
                    assert running.acquire(timeout=10.0)
                with server.open_session("read") as reader:
                    for _ in range(HAND_OFFS):
                        # The timeout only bounds waiting for another
                        # thread; a claimed request runs here at once.
                        server.submit(lambda: reader.query_values(
                            "/library/book/title")).wait(10.0)
                assert registry.value("server.loop.inline") == HAND_OFFS
                assert registry.value("server.requests.read") \
                    == HAND_OFFS
                assert registry.value("server.queue.depth") == len(held)
            finally:
                gate.set()
            for request in held:
                request.wait(10.0)
            assert registry.value("server.queue.depth") == 0
            # The held requests were the workers'.
            assert registry.value("server.loop.inline") == HAND_OFFS


class TestFallbackPinWork:
    def test_a_pin_with_every_snapshot_pinned_recovers_once(
            self, clean_obs, monkeypatch):
        registry = obs.REGISTRY
        recovered = []
        real = snapshots.recover

        def counted(backend):
            recovered.append(backend)
            return real(backend)

        with DatabaseServer(MemoryBackend(),
                            make_library_document(books=6, papers=2,
                                                  seed=1),
                            workers=1) as server:
            with server.open_session("read") as first:
                with server.open_session("write") as writer:
                    writer.execute(_add_author(0))
                materialized = registry.value(
                    "server.snapshot.materializations")
                # The only cached snapshot is pinned: nothing to advance.
                monkeypatch.setattr(snapshots, "recover", counted)
                with server.open_session("read") as second:
                    assert second.snapshot is not first.snapshot
                monkeypatch.undo()
            assert len(recovered) == 1
            assert registry.value("server.snapshot.materializations") \
                == materialized + 1
            assert registry.value("server.snapshot.advances") == 0


#: ``Session.query`` calls of one path string on a read session.
REPEATS = 8


class TestPlanWork:
    @pytest.fixture(params=["memory", "file"])
    def server(self, request, tmp_path, clean_obs):
        backend = MemoryBackend() if request.param == "memory" else \
            FileBackend(tmp_path / "store.img",
                        wal_path=tmp_path / "store.wal")
        with DatabaseServer(backend,
                            make_library_document(books=6, papers=2,
                                                  seed=1),
                            workers=1) as server:
            yield server

    @staticmethod
    def _counts():
        return [obs.REGISTRY.value(name) for name in (
            "query.plan.compiles", "query.plan_cache.hits",
            "query.plan_cache.invalidations", "query.parse_cache.misses",
            "query.parse_cache.hits")]

    @staticmethod
    def _delta(before):
        return [after - then for after, then in
                zip(TestPlanWork._counts(), before)]

    def test_one_compile_and_one_parse_per_repeated_string(self, server):
        with server.open_session("read") as reader:
            before = self._counts()
            for _ in range(REPEATS):
                reader.query("/library/book/title")
        # compiles, plan hits, invalidations, parse misses, parse hits.
        assert self._delta(before) == [1, REPEATS - 1, 0, 1, 0]

    def test_schema_growth_recompiles_once_without_a_parse(self, server):
        def grow(engine, session):
            library = engine.children(engine.document)[0]
            engine.insert_child(library, 0, name=QName("", "memo"))

        with server.open_session("write") as writer:
            writer.query("/library/*")
            before = self._counts()
            writer.execute(grow)
            assert len(writer.query("/library/*")) == 9
        assert self._delta(before) == [1, 0, 1, 0, 0]


#: Path shapes and the candidates ``cost`` prices for each on the
#: library with a value index on ``book/@year``: the block route, plus
#: one probe where a predicate on ``@year`` leads.
PRICED = (
    ("/library/book[@year='1977']/title", 2),
    ("/library", 1),
    ("/library/paper/title", 1),
    ("/library/book[3]/title", 1),
    ("/library/book[@year='1977'][author='Codd']/title", 2),
    ("//author[1]", 1),
    ("//book[last()]/title", 1),
    ("//issue[1]/year", 1),
    ("/library//title", 1),
    ("/library/book//year", 1),
    ("//book[@year]//publisher", 2),
)


class TestCostPlanWork:
    def test_cost_prices_only_block_and_probe_candidates(self,
                                                         clean_obs):
        engine = StorageEngine()
        engine.load_document(make_library_document(
            books=12, papers=4, seed=1, year_attrs=True))
        engine.create_index("library/book/@year", value_type="integer")
        queries = StorageQueryEngine(engine)
        plans = [queries.compile(path) for path, _ in PRICED]
        registry = obs.REGISTRY
        assert registry.value("query.cost.priced") == len(PRICED)
        assert registry.value("query.cost.candidates") == \
            sum(candidates for _, candidates in PRICED)
        assert registry.value("query.cost.chosen.naive") == 0
        assert [len(plan.cost_table) for plan in plans] == \
            [candidates for _, candidates in PRICED]
        assert {estimate.strategy for plan in plans
                for estimate in plan.cost_table} == \
            {"scan", "hybrid", "index"}
        assert all(plan.strategy != "naive" for plan in plans)


#: Path shapes of ``read_cold`` — a literal, the next literal on the
#: same shape, and how many times ``cost`` prices the second: a
#: position is never priced by its literal, a value in the decisive
#: step always is.
SHAPES = (
    ("/library/book[{}]/title", "3", "7", 0),
    ("/library/book[@year='{}'][author='Codd']/title", "1977", "1984", 1),
    ("/library/*[author='{}']/title", "Codd", "Gray", 1),
)


class TestShapeWork:
    @staticmethod
    def _counts():
        return {name: obs.REGISTRY.value(name) for name in (
            "query.plan.compiles", "query.plan_cache.misses",
            "query.shape_cache.hits", "query.shape_cache.misses",
            "query.parse_cache.misses", "query.parse_cache.hits",
            "query.cost.priced")}

    @pytest.mark.parametrize("template,first,second,priced", SHAPES)
    def test_a_new_literal_on_a_known_shape(self, clean_obs, monkeypatch,
                                            template, first, second,
                                            priced):
        """No parse, no schema-frontier match (in planning or in
        lowering), one compile: the entry's path, frontiers, routes and
        prepared lowering take the literal."""
        from repro.query import cache, compiled, planner

        calls = []
        for module, name in ((cache, "parse_path"),
                             (planner, "schema_frontiers"),
                             (compiled, "match_step")):
            def counted(*args, _name=name, _original=getattr(module, name),
                        **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        document = make_library_document(books=12, papers=4, seed=1,
                                         year_attrs=True)
        with DatabaseServer(MemoryBackend(), document, workers=1) as server:
            with server.open_session("write") as writer:
                writer.execute(lambda engine, session: engine.create_index(
                    "library/book/@year"))
            with server.open_session("read") as reader:
                before = self._counts()
                reader.query(template.format(first))
                assert "parse_path" in calls
                assert "schema_frontiers" in calls
                warm = self._counts()
                del calls[:]
                reader.query(template.format(second))
                after = self._counts()
        assert calls == []
        assert {name: warm[name] - before[name] for name in warm} == {
            "query.plan.compiles": 1, "query.plan_cache.misses": 1,
            "query.shape_cache.hits": 0, "query.shape_cache.misses": 1,
            "query.parse_cache.misses": 1, "query.parse_cache.hits": 0,
            "query.cost.priced": 1}
        assert {name: after[name] - warm[name] for name in after} == {
            "query.plan.compiles": 1, "query.plan_cache.misses": 1,
            "query.shape_cache.hits": 1, "query.shape_cache.misses": 0,
            "query.parse_cache.misses": 0, "query.parse_cache.hits": 0,
            "query.cost.priced": priced}
