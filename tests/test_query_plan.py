"""Tests for query plan compilation, caching and invalidation."""

import pytest

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
    def test_hit_miss_counting(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now coldest
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_peek_does_not_count(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_invalidate_counts_separately(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.invalidate("a")
        cache.invalidate("a")   # absent: no double count
        stats = cache.stats()
        assert stats.invalidations == 1 and stats.evictions == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_concurrent_get_put_is_safe(self):
        """The session layer shares plan/parse caches across worker
        threads: a get() racing an eviction must be a miss, never a
        KeyError out of move_to_end."""
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

    def test_string_and_path_keys_share_entries(self, stored):
        _engine, queries = stored
        queries.evaluate("//t")
        queries.evaluate(cached_parse_path("//t"))
        assert queries.cache_stats()["plan_misses"] == 1

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
        stale = compile_plan(cached_parse_path("/lib/*"), engine.schema)
        engine.insert_child(lib, 0, name=QName("", "memo"))
        fresh = compile_plan(cached_parse_path("/lib/*"), engine.schema)
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
