"""Tests for the observability layer: metrics registry, span tracing,
query EXPLAIN, and the instrumented hot paths.

The headline invariant re-asserted here through the metrics registry:
Proposition 1 — the Sedna numbering scheme's relabel counter stays at
an explicit zero across randomized update workloads, while the Dewey
and interval baselines' counters do not.
"""

import inspect
import sys
import threading

import pytest

from repro import obs
from repro.numbering import (
    DeweyBaseline,
    IntervalBaseline,
    SednaAdapter,
    UpdateWorkload,
)
from repro.obs import explain
from repro.obs.explain import collect
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.query import StorageQueryEngine, clear_parse_cache
from repro.server import DatabaseServer
from repro.storage import FileBackend, MemoryBackend, StorageEngine
from repro.workloads import make_library_document
from repro.xmlio import QName
from repro.xquery.evaluator import execute_values


pytestmark = pytest.mark.usefixtures("clean_obs")


def _library_queries(books=10):
    engine = StorageEngine()
    engine.load_document(
        make_library_document(books=books, papers=books, seed=books))
    return StorageQueryEngine(engine)


# ----------------------------------------------------------------------
# Metrics registry


class TestMetricsRegistry:
    def test_counter_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert registry.counter("a.b") is counter
        assert registry.value("a.b") == 5

    def test_type_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_gauge_and_histogram(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        histogram = registry.histogram("latency")
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert gauge.value == 2
        assert histogram.summary() == {
            "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            "p50": 2.0, "p95": 3.0, "p99": 3.0}

    def test_snapshot_is_sorted_and_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.histogram("a").observe(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "z"]
        assert snapshot["a"]["count"] == 1
        assert snapshot["z"] == 1

    def test_reset_keeps_registrations(self):
        """A counter materialized at zero must stay visible — that is
        how the Proposition 1 zero shows up in snapshots."""
        registry = MetricsRegistry()
        registry.counter("relabels").inc(7)
        registry.reset()
        assert "relabels" in registry
        assert registry.snapshot() == {"relabels": 0}

    def test_clear_forgets_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x")
        registry.clear()
        assert len(registry) == 0
        assert registry.value("x", default=-1) == -1


# ----------------------------------------------------------------------
# Span tracing


def _fake_clock():
    """A deterministic clock: 0.0, 1.0, 2.0, ... per call."""
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


class TestTracer:
    def test_nested_spans_with_injected_clock(self):
        tracer = Tracer(clock=_fake_clock())
        tracer.enabled = True
        # Clock calls: outer start=0, armed at 1; inner start=2, armed
        # at 3; inner exit at 4 (elapsed 1); outer exit at 5 (elapsed 4).
        with tracer.span("outer"):
            with tracer.span("inner", kind="leaf"):
                pass
        outer, inner = tracer.records
        assert (outer.name, outer.depth) == ("outer", 0)
        assert (inner.name, inner.depth) == ("inner", 1)
        assert inner.elapsed == 1.0
        assert outer.elapsed == 4.0
        assert inner.tags == {"kind": "leaf"}
        assert list(tracer.iter_roots()) == [outer]

    def test_event_records_zero_duration(self):
        tracer = Tracer(clock=_fake_clock())
        tracer.enabled = True
        tracer.event("tick", site="here")
        (record,) = tracer.find("tick")
        assert record.elapsed == 0.0
        assert record.tags == {"site": "here"}

    def test_disabled_span_records_nothing(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("ignored"):
            pass
        tracer.event("also ignored")
        assert tracer.records == []
        assert tracer.dump() == "(no spans recorded)"

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(clock=_fake_clock(), limit=3)
        tracer.enabled = True
        for index in range(5):
            tracer.event(f"e{index}")
        assert [r.name for r in tracer.records] == ["e2", "e3", "e4"]
        assert tracer.dropped == 2

    def test_dump_is_indented_and_tagged(self):
        tracer = Tracer(clock=_fake_clock())
        tracer.enabled = True
        with tracer.span("outer"):
            tracer.event("inner", item="4")
        dump = tracer.dump()
        lines = dump.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "item=4" in lines[1]

    def test_reset_clears_records_and_depth(self):
        tracer = Tracer(clock=_fake_clock())
        tracer.enabled = True
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.records == []
        with tracer.span("b"):
            pass
        assert tracer.records[0].depth == 0

    def test_depth_and_tid_are_per_thread(self):
        """Two workers inside their root spans at the same moment:
        two roots, each under its own thread id."""
        tracer = Tracer()
        tracer.enabled = True
        inside = threading.Barrier(2, timeout=5.0)

        def work(name):
            with tracer.span(name):
                inside.wait()

        threads = [threading.Thread(target=work, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert sorted(r.name for r in tracer.iter_roots()) == ["a", "b"]
        tids = {event["tid"]
                for event in tracer.chrome_trace()["traceEvents"]}
        assert len(tids) == 2
        assert all(line[0] != " " for line in tracer.dump().splitlines())


# ----------------------------------------------------------------------
# The master switch


class TestSwitch:
    def test_enable_disable_round_trip(self):
        assert not obs.is_enabled()
        obs.enable()
        assert obs.is_enabled()
        assert obs.TRACER.enabled
        obs.disable()
        assert not obs.is_enabled()
        assert not obs.TRACER.enabled

    def test_settable_state_is_diagnostics_and_the_slow_threshold(self):
        switches = {name for name, value in vars(obs).items()
                    if name.isupper()
                    and (value is None or isinstance(value, bool))}
        assert switches == {"ENABLED", "SLOW_QUERY_NS"}
        setters = {name for name in obs.__all__
                   if name.startswith(("set_", "enable", "disable"))}
        assert setters == {"enable", "disable",
                           "set_slow_query_threshold"}
        assert not inspect.signature(obs.enable).parameters
        for flip in (obs.enable, obs.disable, obs.enable, obs.disable):
            flip()
            assert obs.TRACER.enabled is obs.ENABLED


# ----------------------------------------------------------------------
# Instrumented hot paths


class TestInstrumentedPaths:
    def test_storage_load_counts_descriptors_and_labels(self):
        obs.enable()
        queries = _library_queries()
        engine = queries.engine
        allocated = obs.REGISTRY.value("storage.descriptors.allocated")
        assert allocated == engine.node_count()
        assert obs.REGISTRY.value("numbering.labels.allocated") \
            == engine.node_count()
        assert obs.REGISTRY.value("storage.blocks.allocated") \
            == engine.block_count()
        assert obs.REGISTRY.value("storage.relabels") == 0

    def test_block_splits_are_counted(self):
        obs.enable()
        engine = StorageEngine(block_capacity=2)
        engine.load_document(make_library_document(books=5, papers=0,
                                                   seed=1))
        root = engine.children(engine.document)[0]
        for index in range(8):
            engine.insert_child(root, 0, text=f"t{index}")
        assert engine.split_count > 0
        assert obs.REGISTRY.value("storage.blocks.split") \
            == engine.split_count
        assert obs.REGISTRY.value("storage.inserts") == 8
        # Inserting never relabeled anything (Proposition 1).
        assert obs.REGISTRY.value("storage.relabels") == 0

    def test_explain_records_cold_then_warm(self):
        obs.enable()
        queries = _library_queries()
        queries.evaluate("/library/book/title")
        cold = obs.EXPLAINS.last()
        queries.evaluate("/library/book/title")
        warm = obs.EXPLAINS.last()
        assert cold.path == "/library/book/title"
        assert cold.strategy == "scan"
        assert (cold.plan_cache, warm.plan_cache) == ("miss", "hit")
        assert cold.nodes_returned == 10
        assert cold.nodes_visited >= cold.nodes_returned
        assert warm.elapsed_s >= 0.0
        assert obs.REGISTRY.value("query.evaluations") == 2
        assert obs.REGISTRY.value("query.plan.compiles") == 1
        assert obs.REGISTRY.value("query.plan_cache.hits") == 1

    def test_explain_reports_structural_pruning(self):
        obs.enable()
        queries = _library_queries()
        queries.evaluate("/library/book[@year]/title")
        record = obs.EXPLAINS.last()
        assert record.strategy == "empty"
        assert record.pruned_schema_nodes == 1
        assert record.nodes_visited == 0
        assert obs.REGISTRY.value("query.plan.pruned_schema_nodes") == 1

    def test_explain_counts_axis_steps_on_hybrid_plans(self):
        obs.enable()
        queries = _library_queries()
        path = "/library/book[title]/author"
        result = queries.evaluate(path)
        record = obs.EXPLAINS.last()
        assert record.strategy == "hybrid"
        assert record.axis_steps >= 1
        assert record.nodes_returned == len(result) > 0

    def test_collect_stacks_and_restores(self):
        with collect("outer") as outer:
            assert explain.current() is outer
            with collect("inner") as inner:
                assert explain.current() is inner
            assert explain.current() is outer
        assert explain.current() is None
        assert explain.COLLECTING == 0

    def test_parse_cache_counters_live_in_the_registry(self):
        """Satellite: one counter mechanism — the CacheStats view and
        the registry snapshot read the same instruments."""
        from repro.query.cache import cached_parse_path, \
            parse_cache_stats
        clear_parse_cache()
        cached_parse_path("/library/book")
        cached_parse_path("/library/book")
        stats = parse_cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert obs.REGISTRY.value("query.parse_cache.hits") == 1
        assert obs.REGISTRY.value("query.parse_cache.misses") == 1
        clear_parse_cache()
        assert obs.REGISTRY.value("query.parse_cache.hits") == 0

    def test_conformance_checks_and_violations_are_counted(self):
        from repro.algebra import check_conformance
        from repro.mapping import document_to_tree
        from repro.schema import parse_schema
        from repro.workloads.fixtures import LIBRARY_SCHEMA
        obs.enable()
        schema = parse_schema(LIBRARY_SCHEMA)
        document = make_library_document(books=2, papers=1, seed=2)
        tree = document_to_tree(document, schema)
        assert check_conformance(tree, schema) == []
        assert obs.REGISTRY.value("conformance.documents_checked") == 1
        assert obs.REGISTRY.value("conformance.checks.item1") == 1
        assert obs.REGISTRY.value("conformance.checks.item4") > 0
        assert obs.REGISTRY.value("conformance.checks.item7") == 1
        assert obs.REGISTRY.value("conformance.documents_failed") == 0
        # Break the tree: drop a required child.
        from repro.algebra.state import StateAlgebra
        book = tree.document_element().children()[1]  # 1-based s[i]
        StateAlgebra().remove_child(book, book.children()[1])
        violations = check_conformance(tree, schema)
        assert violations
        assert obs.REGISTRY.value("conformance.documents_failed") == 1
        item = violations[0].item.split(".", 1)[0]
        assert obs.REGISTRY.value(
            f"conformance.violations.item{item}") >= 1
        assert obs.TRACER.find("conformance.violation")

    def test_flwor_clauses_are_traced(self):
        obs.enable()
        queries = _library_queries()
        values = execute_values(
            queries.store,
            'for $b in /library/book where $b/title '
            'order by $b/title return $b/title')
        assert len(values) == 10
        for name in ("xquery.flwor", "xquery.flwor.bind",
                     "xquery.flwor.where", "xquery.flwor.order",
                     "xquery.flwor.return"):
            assert obs.TRACER.find(name), f"missing span {name}"
        (where,) = obs.TRACER.find("xquery.flwor.where")
        assert where.tags["tuples"] == 10
        assert obs.REGISTRY.value("xquery.flwor.evaluations") == 1
        assert obs.REGISTRY.value("xquery.flwor.tuples") == 10

    def test_flwor_untraced_path_still_works_when_disabled(self):
        queries = _library_queries()
        values = execute_values(
            queries.store,
            'for $b in /library/book return $b/title')
        assert len(values) == 10
        assert obs.TRACER.records == []
        assert (obs.REGISTRY.value("xquery.flwor.evaluations"),
                obs.REGISTRY.value("xquery.flwor.tuples")) == (1, 10)


class TestExplainPerThread:
    """The collecting record belongs to the thread that began it."""

    def test_interleaved_scopes_keep_their_own_record(self):
        """A begins, B begins, A ends, B ends — the order two server
        workers produce."""
        b_began = threading.Event()
        a_ended = threading.Event()
        seen = {}

        def worker():
            with collect("b") as record:
                b_began.set()
                assert a_ended.wait(timeout=5.0)
                seen["b"] = (explain.current(), record)

        thread = threading.Thread(target=worker)
        with collect("a") as record:
            thread.start()
            assert b_began.wait(timeout=5.0)
            assert explain.current() is record
            assert explain.COLLECTING == 2
        a_ended.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert seen["b"][0] is seen["b"][1]
        assert explain.current() is None
        assert explain.COLLECTING == 0

    def test_slow_log_under_concurrent_sessions(self):
        """Four threads of armed-slow-log reads: every ``query.slow``
        event carries the numbers of its own path, and nothing is
        left collecting once they have joined."""
        paths = ("/library/book/title", "/library/book[2]/author",
                 "/library/paper/title", "/library/book/issue/year")

        def facts(event):
            return tuple(event.fields[key] for key in (
                "strategy", "nodes_visited", "nodes_returned",
                "plan_cache"))

        document = make_library_document(books=300, papers=30, seed=7)
        interval = sys.getswitchinterval()
        with DatabaseServer(MemoryBackend(), document) as server:
            obs.set_slow_query_threshold(0.0)
            expected = {}
            with server.open_session() as session:
                for path in paths:
                    session.query(path)  # cold: plan-cache miss
                    session.query(path)
                    expected[path] = facts(obs.EVENTS.last("query.slow"))
            obs.EVENTS.reset()

            def reader():
                with server.open_session() as session:
                    for index in range(240):
                        session.query(paths[index % len(paths)])

            threads = [threading.Thread(target=reader)
                       for _ in range(4)]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        events = obs.EVENTS.find("query.slow")
        assert len(events) == 4 * 240
        strangers = [(event.fields["path"], facts(event))
                     for event in events
                     if facts(event) != expected[event.fields["path"]]]
        assert strangers == []
        assert explain.current() is None
        assert explain.COLLECTING == 0


class TestAlwaysRecorded:
    def test_a_served_database_fills_every_promised_family(
            self, tmp_path):
        """No obs call at all: one read, one write, a checkpoint and
        a reopen leave every documented instrument family non-zero,
        and the Proposition 1 counter present at an explicit 0."""
        backend = FileBackend(tmp_path / "store.img",
                              wal_path=tmp_path / "store.wal")
        document = make_library_document(books=5, papers=2, seed=1)

        def add_book(engine, session):
            engine.create_index("library/book/title")
            library = engine.children(engine.document)[0]
            book = engine.insert_child(library, 0,
                                       name=QName("", "book"))
            title = engine.insert_child(book, 0,
                                        name=QName("", "title"))
            engine.insert_child(title, 0, text="Telemetry")

        with DatabaseServer(backend, document, sync_wal=True) as server:
            with server.open_session() as session:
                assert len(session.query("/library/book/title")) == 5
            with server.open_session("write") as session:
                session.execute(add_book)
            server.checkpoint_now()
        with DatabaseServer(backend) as server:
            with server.open_session() as session:
                assert len(session.query("/library/book/title")) == 6
        snapshot = obs.snapshot()
        for counter in ("server.requests", "server.requests.read",
                        "server.requests.write", "txn.commits",
                        "wal.appends", "recovery.checkpoints"):
            assert snapshot[counter] > 0, counter
        for histogram in ("server.read.latency.ns",
                          "server.write.latency.ns", "query.latency.ns",
                          "wal.append.ns", "wal.sync.ns",
                          "txn.commit.ns", "checkpoint.file.ns",
                          "index.maintenance.ns", "recovery.replay.ns"):
            assert snapshot[histogram]["count"] > 0, histogram
        assert snapshot["storage.relabels"] == 0
        assert len(obs.EXPLAINS) == 0 and obs.TRACER.records == []


# ----------------------------------------------------------------------
# Proposition 1 through the registry


class TestCompiledExecutionCounters:
    """Contract of the closure-chain counters and EXPLAIN fields."""

    def test_lowering_is_counted_in_compile_ns(self):
        obs.enable()
        queries = _library_queries()
        queries.evaluate("/library/book/title")
        assert obs.REGISTRY.value("query.compile.ns") > 0
        assert obs.REGISTRY.value("query.plans.lowered") == 1
        # The warm run reuses the executor: no further lowering cost.
        lowered_ns = obs.REGISTRY.value("query.compile.ns")
        queries.evaluate("/library/book/title")
        assert obs.REGISTRY.value("query.compile.ns") == lowered_ns
        assert obs.REGISTRY.value("query.plans.lowered") == 1

    def test_compiled_hits_counter_tracks_chain_executions(self):
        obs.enable()
        queries = _library_queries()
        for _ in range(3):
            queries.evaluate("/library/book/title")
        assert obs.REGISTRY.value("query.exec.compiled.hits") == 3

    def test_explain_reports_the_stage_chain(self):
        obs.enable()
        queries = _library_queries()
        queries.evaluate("/library/book[@id]/title")
        record = obs.EXPLAINS.last()
        assert record.strategy in ("hybrid", "empty")
        assert record.compiled is True
        names = [name for name, _ns in record.stage_ns]
        assert names, "compiled run must report its stages"
        assert all(elapsed >= 0 for _name, elapsed in record.stage_ns)
        payload = record.as_dict()
        assert payload["compiled"] is True
        assert payload["stage_ns"] == [[name, elapsed]
                                       for name, elapsed
                                       in record.stage_ns]
        rendered = record.render()
        assert "compiled:           yes" in rendered
        assert f"stage {names[0]}" in rendered

    def test_naive_plans_lower_to_a_navigate_closure(self):
        obs.enable()
        queries = _library_queries()
        queries.evaluate("//book[1]")
        record = obs.EXPLAINS.last()
        assert record.strategy == "naive"
        assert record.compiled is True
        assert record.stage_ns[0][0] == "navigate"

    def test_interpreted_explains_stay_marked_uncompiled(self):
        with collect("manual") as record:
            pass
        assert record.compiled is False
        assert record.stage_ns == []
        assert record.as_dict()["compiled"] is False
        assert "compiled:           no" in record.render()


class TestProposition1Counters:
    def test_sedna_relabel_counter_stays_zero_across_workloads(self):
        obs.enable()
        for seed in (0, 1, 2):
            stats = UpdateWorkload(operations=120, seed=seed).run(
                SednaAdapter)
            assert stats.relabels == 0
        assert obs.REGISTRY.value("numbering.relabels.sedna") == 0
        # The counter is materialized, not merely absent.
        assert "numbering.relabels.sedna" in obs.REGISTRY

    def test_baseline_relabel_counters_mirror_the_schemes(self):
        obs.enable()
        dewey = UpdateWorkload(operations=120, seed=0).run(DeweyBaseline)
        interval = UpdateWorkload(operations=120, seed=0).run(
            IntervalBaseline)
        assert dewey.relabels > 0
        assert interval.relabels > 0
        assert obs.REGISTRY.value("numbering.relabels.dewey") \
            == dewey.relabels
        assert obs.REGISTRY.value("numbering.relabels.interval") \
            == interval.relabels
