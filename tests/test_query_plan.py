"""Tests for query plan compilation, caching and invalidation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmlio import parse_document
from repro.xmlio.qname import QName
from repro.query import (
    LRUCache,
    StorageQueryEngine,
    cached_parse_path,
    clear_parse_cache,
    compile_plan,
    parse_cache_stats,
)
from repro.storage import StorageEngine
from repro.storage.dschema import SchemaNode
from repro.workloads import make_library_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT

_DOC = """<lib>
  <book lang="en"><t>Illusions</t><a>Bach</a></book>
  <book lang="ru"><t>Dead Souls</t></book>
  <shelf><book lang="fr"><t>Nausea</t></book></shelf>
</lib>"""


@pytest.fixture
def stored():
    engine = StorageEngine()
    engine.load_document(parse_document(_DOC))
    return engine, StorageQueryEngine(engine)


@pytest.fixture
def library():
    engine = StorageEngine()
    engine.load_document(parse_document(EXAMPLE_8_DOCUMENT))
    return engine, StorageQueryEngine(engine)


class TestLRUCache:
    def test_get_marks_and_counts_nothing(self):
        """Hits and misses are the owner's to count; a ``get`` only
        marks the entry it finds."""
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.invalidations,
                stats.evictions) == (0, 0, 0, 0)
        assert stats.hit_rate == 0.0

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # use a; b is now the oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_a_cycle_past_capacity_misses_even_after_a_hit(self):
        """``read_cold``'s shape: a hit just before a round-robin over
        more keys than the cache holds buys nothing (a one-bit CLOCK
        mark would keep key 3 a lap longer, and the cycle would hit
        it)."""
        cache = LRUCache(4)
        for key in range(4):
            cache.put(key, key)
        assert cache.get(3) == 3
        hits = 0
        for key in [4, 5, 0, 1, 2, 3] * 3:
            if cache.get(key) is None:
                cache.put(key, key)
            else:
                hits += 1
        assert hits == 0
        assert cache.stats().evictions == 18

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_concurrent_get_put_is_safe(self):
        """The session layer shares plan/parse caches across worker
        threads: a lock-free get() racing an eviction must return a
        value or a miss, never raise, and the cache keeps its bound."""
        import threading

        cache = LRUCache(8)  # far smaller than the key space: evicts
        errors = []

        def worker(seed):
            try:
                for i in range(3000):
                    key = (seed * 13 + i) % 64
                    if cache.get(key) is None:
                        cache.put(key, key)
            except Exception as exc:  # noqa: BLE001 — the regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(cache) <= 8


class TestParseCache:
    def test_same_text_compiles_once(self):
        clear_parse_cache()
        first = cached_parse_path("/lib/book/t")
        second = cached_parse_path("/lib/book/t")
        assert first is second
        stats = parse_cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_parse_errors_are_not_cached(self):
        from repro.errors import QueryError
        clear_parse_cache()
        for _ in range(2):
            with pytest.raises(QueryError):
                cached_parse_path("relative/path")
        assert parse_cache_stats().size == 0

    def test_a_hit_takes_no_lock(self, monkeypatch):
        from repro.query import cache
        lock = TestPreparedHitWorkCount._CountingLock(
            cache._parse_cache._lock)
        cached_parse_path("/lib/book/t")
        monkeypatch.setattr(cache._parse_cache, "_lock", lock)
        hits = parse_cache_stats().hits
        for _ in range(3):
            cached_parse_path("/lib/book/t")
        assert lock.acquired == 0
        assert parse_cache_stats().hits == hits + 3


class TestPlanStrategies:
    def test_plain_path_compiles_to_scan(self, stored):
        _engine, queries = stored
        plan = queries.compile("//book/t")
        assert plan.strategy == "scan"
        assert {n.path for n in plan.scan_nodes} == \
            {"lib/book/t", "lib/shelf/book/t"}

    def test_inner_predicate_compiles_to_hybrid(self, stored):
        _engine, queries = stored
        plan = queries.compile("//book[@lang='en']/t")
        assert plan.strategy == "hybrid"
        assert plan.split == 0
        # The scan covers the prefix (the book step), not the full path.
        assert {n.path for n in plan.scan_nodes} == \
            {"lib/book", "lib/shelf/book"}

    def test_descendant_positional_still_navigates(self, stored):
        _engine, queries = stored
        assert queries.compile("//book[1]").strategy == "naive"
        assert queries.compile("//book[last()]/t").strategy == "naive"

    def test_structural_pruning_to_empty(self, stored):
        _engine, queries = stored
        # No book schema node has an @isbn attribute child, so no
        # instance anywhere can satisfy the predicate: zero block reads.
        plan = queries.compile("//book[@isbn]/t")
        assert plan.strategy == "empty"
        assert plan.pruned_schema_nodes == 2
        assert queries.evaluate("//book[@isbn]/t") == []

    def test_structural_pruning_of_child_predicate(self, stored):
        _engine, queries = stored
        # Only lib/book has <a> children; lib/shelf/book never does.
        plan = queries.compile("/lib/book[a]/t")
        assert plan.strategy == "hybrid"
        assert plan.pruned_schema_nodes == 0  # /lib/book alone matched
        deep = queries.compile("//book[a]/t")
        assert deep.pruned_schema_nodes == 1
        assert {n.path for n in deep.scan_nodes} == {"lib/book"}

    def test_pruned_plans_agree_with_naive(self, stored):
        _engine, queries = stored
        for path in ("/lib/book[@isbn]/t", "//book[a]/t", "//book[zz]"):
            assert [d.nid for d in queries.evaluate(path)] == \
                [d.nid for d in queries.evaluate_naive(path)]


class TestPlanCache:
    def test_repeated_queries_hit(self, stored):
        _engine, queries = stored
        for _ in range(5):
            queries.evaluate("//t")
        stats = queries.cache_stats()
        assert stats["plan_misses"] == 1
        assert stats["plan_hits"] == 4
        assert stats["plan_invalidations"] == 0

    def test_a_string_and_its_path_are_separate_entries(self, stored):
        """A plan is found by the request as the caller sent it."""
        _engine, queries = stored
        requests = ("//t", cached_parse_path("//t"))
        rows = [_nids(queries.evaluate(request)) for request in requests]
        assert queries.cache_stats()["plan_misses"] == 2
        rows += [_nids(queries.evaluate(request)) for request in requests]
        stats = queries.cache_stats()
        assert (stats["plan_hits"], stats["plan_misses"]) == (2, 2)
        assert rows[1:] == rows[:1] * 3

    def test_capacity_evicts_cold_plans(self, stored):
        _engine, queries = stored
        queries = StorageQueryEngine(_engine, plan_cache_capacity=2)
        for path in ("/lib", "/lib/book", "/lib/book/t", "/lib"):
            queries.evaluate(path)
        stats = queries.cache_stats()
        assert stats["plan_evictions"] >= 1

    def test_data_insert_keeps_plan_and_sees_new_instance(self, stored):
        engine, queries = stored
        lib = engine.children(engine.document)[0]
        assert len(queries.evaluate("/lib/book")) == 2
        version = engine.schema.version
        # Inserting another <book> reuses the existing schema node …
        book = engine.insert_child(lib, 1, name=QName("", "book"))
        engine.insert_child(book, 0, name=QName("", "t"))
        assert engine.schema.version == version
        # … so the cached plan stays valid and the live block scan
        # already sees the new descriptor.
        assert len(queries.evaluate("/lib/book")) == 3
        stats = queries.cache_stats()
        assert stats["plan_invalidations"] == 0

    def test_schema_growth_invalidates_and_requeries(self, stored):
        """The acceptance scenario: load, query, insert an element
        with a brand-new tag name, re-query — the new node appears and
        nothing was relabeled (Proposition 1)."""
        engine, queries = stored
        lib = engine.children(engine.document)[0]
        before = queries.evaluate("/lib/*")
        assert len(before) == 3
        version = engine.schema.version
        engine.insert_child(lib, 0, name=QName("", "memo"))
        assert engine.schema.version == version + 1
        after = queries.evaluate("/lib/*")
        assert len(after) == 4
        assert after[0].schema_node.step == "memo"
        assert queries.cache_stats()["plan_invalidations"] == 1
        assert engine.relabel_count == 0

    def test_stale_plan_would_miss_the_new_schema_node(self, stored):
        """Directly show what invalidation protects against."""
        engine, queries = stored
        lib = engine.children(engine.document)[0]
        path = cached_parse_path("/lib/*")
        stale = compile_plan(path, engine.schema, policy="structural")
        engine.insert_child(lib, 0, name=QName("", "memo"))
        fresh = compile_plan(path, engine.schema, policy="structural")
        assert len(stale.execute_compiled(queries)) == 3   # misses <memo>
        assert len(fresh.execute_compiled(queries)) == 4


class TestEvaluateMatchesOtherEvaluators:
    PATHS = (
        "/library/book/title",
        "//author",
        "//title",
        "/library/*/title/text()",
        "/library/book/issue/year",
        "/library/zzz",
    )

    @pytest.mark.parametrize("path", PATHS)
    def test_cached_plan_agrees(self, library, path):
        _engine, queries = library
        expected = [d.nid for d in queries.evaluate_naive(path)]
        for _ in range(2):  # second round runs from the cache
            assert [d.nid for d in queries.evaluate(path)] == expected

    def test_agreement_on_scaled_document(self):
        document = make_library_document(books=30, papers=30, seed=4)
        engine = StorageEngine()
        engine.load_document(document)
        queries = StorageQueryEngine(engine)
        for path in ("/library/book/author", "//title",
                     "/library/paper/title/text()"):
            assert [d.nid for d in queries.evaluate(path)] == \
                [d.nid for d in queries.evaluate_naive(path)]


# ----------------------------------------------------------------------
# The prepared hit: one dict lookup and one compare against the
# engine's plan epoch, a plan's only freshness stamp; a plan that fails
# it is compiled afresh.


def _scaled(books=12, papers=6, capacity=None):
    engine = StorageEngine()
    engine.load_document(make_library_document(
        books=books, papers=papers, seed=5, year_attrs=True))
    if capacity is None:
        return engine, StorageQueryEngine(engine)
    return engine, StorageQueryEngine(engine,
                                      plan_cache_capacity=capacity)


def _nids(descriptors):
    return [descriptor.nid for descriptor in descriptors]


class _Drifts:
    """The drift witness: while the block runs, :attr:`count` is how
    many times a schema node's statistics reported a drift."""

    def __init__(self):
        self.count = 0

    def __enter__(self):
        self._drifted = drifted = SchemaNode._drifted

        def counted(node):
            fired = drifted(node)
            self.count += fired
            return fired

        SchemaNode._drifted = counted
        return self

    def __exit__(self, *exc_info):
        SchemaNode._drifted = self._drifted


def _stamps(engine, drifts):
    """What a plan's decision depends on: the schema's growth count,
    the declared indexes and the statistics' drift count."""
    return (engine.schema.version, tuple(engine.indexes.definitions()),
            drifts.count)


class _SlowPathCount:
    """Counts a planner's trips off the prepared hit."""

    def __init__(self, queries):
        self.calls = 0
        planner = queries._planner
        slow = planner._compile_slow

        def counted(request):
            self.calls += 1
            return slow(request)

        planner._compile_slow = counted


class TestOnePlanEpoch:
    """Each source of staleness bumps the one epoch; after a bump each
    plan that is used is compiled exactly once, answers as the oracle
    does, and the call after it is a prepared hit again."""

    def _next_call_is_a_prepared_hit(self, queries, path):
        slow = _SlowPathCount(queries)
        hits = queries.cache_stats()["plan_hits"]
        plan = queries.compile(path)
        assert slow.calls == 0
        assert queries.cache_stats()["plan_hits"] == hits + 1
        assert plan.epoch == queries.engine.plan_epoch
        return plan

    def _compiled_once(self, queries, path, stale):
        """The first use of *path* after a bump: one trip off the
        prepared hit, one compile, a new plan in the stale one's place."""
        from repro import obs
        compiles = obs.REGISTRY.counter("query.plan.compiles")
        before = compiles.value
        slow = _SlowPathCount(queries)
        plan = queries.compile(path)
        assert (slow.calls, compiles.value) == (1, before + 1)
        assert plan is not stale
        assert _nids(queries.evaluate(path)) \
            == _nids(queries.evaluate_naive(path))
        assert self._next_call_is_a_prepared_hit(queries, path) is plan
        assert (slow.calls, compiles.value) == (1, before + 1)
        return plan

    def test_schema_growth(self, stored):
        engine, queries = stored
        lib = engine.children(engine.document)[0]
        assert len(queries.evaluate("/lib/*")) == 3
        self._next_call_is_a_prepared_hit(queries, "/lib/*")
        epoch = engine.plan_epoch
        engine.insert_child(lib, 0, name=QName("", "memo"))
        assert engine.plan_epoch == epoch + 1
        after = queries.evaluate("/lib/*")
        assert [d.schema_node.step for d in after][0] == "memo"
        assert len(after) == 4
        assert queries.cache_stats()["plan_invalidations"] == 1
        self._next_call_is_a_prepared_hit(queries, "/lib/*")
        assert queries.cache_stats()["plan_invalidations"] == 1

    def test_index_ddl(self):
        engine, queries = _scaled()
        affected = "/library/book[@year]/title"
        unaffected = "/library/paper/title"
        plans = {path: queries.compile(path)
                 for path in (affected, unaffected)}
        for ddl, strategy in (
                (lambda: engine.create_index("library/book/@year",
                                             value_type="integer"),
                 "index"),
                (lambda: engine.drop_index("library/book/@year"),
                 "hybrid")):
            base = queries.cache_stats()
            epoch = engine.plan_epoch
            ddl()
            assert engine.plan_epoch == epoch + 1
            # Affected or not, a plan used after DDL is compiled again.
            for path, stale in plans.items():
                plans[path] = self._compiled_once(queries, path, stale)
            assert plans[affected].strategy == strategy
            assert plans[unaffected].strategy == "scan"
            stats = queries.cache_stats()
            assert stats["plan_invalidations"] \
                - base["plan_invalidations"] == 2
            assert stats["plan_misses"] - base["plan_misses"] == 2

    def test_statistics_drift(self):
        engine, queries = _scaled()
        book_q, paper_q = "/library/book/title", "/library/paper/title"
        plans = {path: queries.compile(path) for path in (book_q, paper_q)}
        epoch = engine.plan_epoch
        with _Drifts() as drifts:
            for paper in queries.evaluate_naive("/library/paper"):
                for _ in range(6):
                    engine.insert_child(paper, 0,
                                        name=QName("", "author"))
        assert drifts.count > 0
        assert engine.plan_epoch - epoch == drifts.count
        base = queries.cache_stats()
        # The book plan priced nothing that drifted; it is stale all
        # the same — the epoch is the only stamp.
        for path, stale in plans.items():
            self._compiled_once(queries, path, stale)
        stats = queries.cache_stats()
        assert stats["plan_invalidations"] \
            - base["plan_invalidations"] == 2

    def test_data_inserts_leave_the_epoch_alone(self, stored):
        engine, queries = stored
        lib = engine.children(engine.document)[0]
        queries.evaluate("/lib/book")
        plan = queries.compile("/lib/book")
        epoch = engine.plan_epoch
        book = engine.insert_child(lib, 1, name=QName("", "book"))
        engine.insert_child(book, 0, name=QName("", "t"))
        assert engine.plan_epoch == epoch
        assert self._next_call_is_a_prepared_hit(queries,
                                                 "/lib/book") is plan
        assert len(queries.evaluate("/lib/book")) == 3

    def test_path_requests_take_the_same_compare(self, stored):
        engine, queries = stored
        path = cached_parse_path("//t")
        plan = queries.compile(path)
        slow = _SlowPathCount(queries)
        assert queries.compile(path) is plan
        assert slow.calls == 0
        lib = engine.children(engine.document)[0]
        engine.insert_child(lib, 0, name=QName("", "memo"))
        fresh = queries.compile(path)
        assert fresh is not plan
        assert slow.calls == 1
        # Each key compiles once per epoch: the string its own plan.
        text = queries.compile("//t")
        assert slow.calls == 2
        assert queries.compile("//t") is text
        assert queries.compile(path) is fresh
        assert slow.calls == 2
        assert queries.cache_stats()["plan_misses"] == 3

    def test_a_reload_never_repeats_an_epoch(self):
        """``persist.finish_load`` raises the engine's plan epoch, so a
        plan priced before the load is compiled again, and later drifts
        bump the same epoch."""
        from repro.storage.persist import finish_load
        engine, queries = _scaled()
        path = "/library/paper/author"
        plan = queries.compile(path)
        epoch = engine.plan_epoch
        descriptors = [engine.document] + queries.evaluate_naive("//*")
        finish_load(engine, descriptors, [], engine.schema.statistics(),
                    AssertionError)
        assert engine.plan_epoch > epoch
        plan = self._compiled_once(queries, path, plan)
        epoch = engine.plan_epoch
        for paper in queries.evaluate_naive("/library/paper"):
            for _ in range(6):
                engine.insert_child(paper, 0, name=QName("", "author"))
        assert engine.plan_epoch > epoch
        self._compiled_once(queries, path, plan)


class TestPreparedHitWorkCount:
    """What a warm ``Session.query(str)`` does, counted — no clock."""

    class _CountingLock:
        def __init__(self, lock):
            self.lock = lock
            self.acquired = 0

        def __enter__(self):
            self.acquired += 1
            return self.lock.__enter__()

        def __exit__(self, *exc_info):
            return self.lock.__exit__(*exc_info)

    def test_warm_session_query(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry
        from repro.query import cache
        from repro.server import DatabaseServer
        from repro.storage import MemoryBackend

        server = DatabaseServer(
            MemoryBackend(),
            make_library_document(books=6, papers=3, seed=5), workers=1)
        try:
            with server.open_session("read") as session:
                path = "/library/book/title"
                expected = session.query(path)
                queries = session.snapshot.queries()
                planner = queries._planner
                locks = [self._CountingLock(planner._plans._lock),
                         self._CountingLock(cache._parse_cache._lock),
                         self._CountingLock(planner._lock)]
                planner._plans._lock = locks[0]
                monkeypatch.setattr(cache._parse_cache, "_lock",
                                    locks[1])
                planner._lock = locks[2]
                lookups = []
                get_or_create = MetricsRegistry._get_or_create
                monkeypatch.setattr(
                    MetricsRegistry, "_get_or_create",
                    lambda registry, name, cls: (
                        lookups.append(name),
                        get_or_create(registry, name, cls))[1])
                parse_hits = parse_cache_stats().hits
                plan_hits = queries.cache_stats()["plan_hits"]
                for _ in range(3):
                    assert session.query(path) == expected
                assert parse_cache_stats().hits == parse_hits
                assert [lock.acquired for lock in locks] == [0, 0, 0]
                assert lookups == []
                assert queries.cache_stats()["plan_hits"] \
                    == plan_hits + 3
        finally:
            server.close()


class TestSecondChance:
    def test_a_hot_string_survives_a_stream_of_cold_ones(self):
        _engine, queries = _scaled(books=40, capacity=4)
        hot = "/library/paper/title"
        plan = queries.compile(hot)
        for index in range(1, 41):
            queries.evaluate(f"/library/book[{index}]/title")
            assert queries.compile(hot) is plan
        stats = queries.cache_stats()
        assert stats["plan_misses"] == 1 + 40
        assert stats["plan_hits"] == 40
        assert stats["plan_evictions"] == 41 - 4
        assert stats["plan_size"] == 4

    def test_round_robin_past_capacity_misses_every_time(self):
        _engine, queries = _scaled(capacity=4)
        paths = [f"/library/book[{index}]/title" for index in range(1, 6)]
        for _ in range(3):
            for path in paths:
                assert _nids(queries.evaluate(path)) \
                    == _nids(queries.evaluate_naive(path))
        stats = queries.cache_stats()
        assert (stats["plan_hits"], stats["plan_misses"]) == (0, 15)
        assert stats["plan_evictions"] == 15 - 4
        assert stats["plan_size"] == 4

    def test_put_spares_a_referenced_entry_once(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache
        cache.put("d", 4)       # a's mark was spent on c's put
        assert "a" not in cache
        assert "c" in cache and "d" in cache
        assert cache.stats().evictions == 2

    def test_two_spellings_are_two_entries_with_one_answer(self):
        _engine, queries = _scaled()
        single = "/library/book[@year='1977']/title"
        double = '/library/book[@year="1977"]/title'
        plans = [queries.compile(single), queries.compile(double)]
        assert [queries.compile(single), queries.compile(double)] == plans
        stats = queries.cache_stats()
        assert (stats["plan_hits"], stats["plan_misses"]) == (2, 2)
        assert _nids(queries.evaluate(single)) \
            == _nids(queries.evaluate(double)) \
            == _nids(queries.evaluate_naive(single))


# ----------------------------------------------------------------------
# Generated: the epoch moves exactly when a stamp does, and the cached
# route never disagrees with the oracle.  CI's crash-matrix step runs
# these with --hypothesis-profile=crash-matrix --hypothesis-seed=0.


def _budget(quick):
    """The selected hypothesis profile's example budget, or *quick* —
    what tier-1 can afford — when none was selected."""
    budget = settings().max_examples
    if budget == settings.get_profile("default").max_examples:
        return quick
    return budget


_CORPUS = (
    "/library/*",
    "//title",
    "/library/paper/author",
    "/library/book[@year]/title",
    "/library/book[@year='1977']/title",
    "/library/book[2]/title",
)

_STEPS = st.lists(
    st.sampled_from(("tag", "index", "grow", "shrink", "insert",
                     "reload")),
    min_size=1, max_size=10)


@settings(max_examples=_budget(25), deadline=None)
@given(steps=_STEPS)
def test_epoch_moves_iff_a_stamp_moves(steps):
    with _Drifts() as drifts:
        _check_epoch_moves_iff_a_stamp_moves(steps, drifts)


def _check_epoch_moves_iff_a_stamp_moves(steps, drifts):
    from repro.storage.persist import dumps_engine, load_engine
    engine, queries = _scaled(books=8, papers=3, capacity=4)
    grown = []
    for number, step in enumerate(steps):
        library = engine.children(engine.document)[0]
        before, epoch = _stamps(engine, drifts), engine.plan_epoch
        if step == "tag":
            engine.insert_child(library, 0,
                                name=QName("", f"fresh{number}"))
        elif step == "index":
            if engine.indexes.active:
                engine.drop_index("library/book/@year")
            else:
                engine.create_index("library/book/@year",
                                    value_type="integer")
        elif step == "grow":
            paper = queries.evaluate_naive("/library/paper")[0]
            grown += [engine.insert_child(paper, 0,
                                          name=QName("", "author"))
                      for _ in range(20)]
        elif step == "shrink":
            while grown:
                engine.delete_subtree(grown.pop())
        elif step == "insert":
            book = engine.insert_child(library, 0,
                                       name=QName("", "book"))
            engine.insert_child(book, 0, name=QName("", "title"))
        else:
            engine = load_engine(dumps_engine(engine))
            queries = StorageQueryEngine(engine, plan_cache_capacity=4)
            grown = []
            before, epoch = _stamps(engine, drifts), engine.plan_epoch
        moved = _stamps(engine, drifts) != before
        assert (engine.plan_epoch > epoch) == moved, step
        assert engine.plan_epoch >= epoch
        for path in _CORPUS:
            assert _nids(queries.evaluate(path)) \
                == _nids(queries.evaluate_naive(path)), (step, path)


@settings(max_examples=_budget(10), deadline=None)
@given(orders=st.lists(
    st.lists(st.integers(0, 5), min_size=150, max_size=150),
    min_size=8, max_size=8))
def test_shared_engine_under_threads(orders):
    """Eight readers of one snapshot engine, six strings, four plan
    slots: lock-free hits race evictions all the way."""
    import sys
    import threading

    _engine, queries = _scaled(capacity=4)
    oracle = [_nids(queries.evaluate_naive(path)) for path in _CORPUS]
    failures = []

    def reader(order):
        try:
            for number in order:
                if _nids(queries.evaluate(_CORPUS[number])) \
                        != oracle[number]:
                    failures.append(_CORPUS[number])
        except Exception as exc:  # noqa: BLE001 — the regression
            failures.append(exc)

    threads = [threading.Thread(target=reader, args=(order,))
               for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    stats = queries.cache_stats()
    assert stats["plan_size"] <= 4
    used = {number for order in orders for number in order}
    assert stats["plan_evictions"] >= len(used) - 4
