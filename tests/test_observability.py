"""Tests for the production observability layer (PR 8).

The always-recorded instruments, the structured event + slow-query
log, windowed histograms, the statistics each schema node keeps (and
their persistence through checkpoint/recover) and the operator CLI
surfaces.
"""

import json
import threading

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.errors import QueryError, StorageError
from repro.obs.events import EventLog
from repro.obs.metrics import Histogram, MetricsRegistry, \
    render_prometheus
from repro.query import StorageQueryEngine
from repro.storage import (
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    StorageEngine,
    load_engine,
    recover,
)
from repro.storage.dschema import SchemaNode
from repro.storage.persist import dumps_engine
from repro.workloads import make_library_document
from repro.xmlio import QName, parse_document
from repro.workloads.fixtures import EXAMPLE_8_DOCUMENT


pytestmark = pytest.mark.usefixtures("clean_obs")


def _engine(document=None, **kwargs) -> StorageEngine:
    engine = StorageEngine(**kwargs)
    engine.load_document(document
                         or parse_document(EXAMPLE_8_DOCUMENT))
    return engine


class TestTelemetryTier:
    """Counters and histograms record without diagnostics enabled."""

    def test_telemetry_is_on_by_default(self):
        assert obs.ENABLED is False

    def test_load_counts_without_enable(self):
        _engine()
        snapshot = obs.snapshot()
        assert snapshot["storage.descriptors.allocated"] > 0
        assert snapshot["numbering.labels.allocated"] > 0

    def test_query_latency_lands_in_the_histogram(self):
        queries = StorageQueryEngine(_engine())
        queries.evaluate("/library/book/title")
        queries.evaluate("/library/book/title")
        latency = obs.REGISTRY.histogram("query.latency.ns").summary()
        assert latency["count"] == 2
        assert latency["p50"] > 0
        assert obs.REGISTRY.value("query.evaluations") == 2
        # Telemetry alone must not collect EXPLAIN diagnostics.
        assert len(obs.EXPLAINS) == 0

    def test_wal_and_txn_histograms_record(self, tmp_path):
        from repro.storage import (FileWalStore, TransactionManager,
                                   WriteAheadLog)
        engine = _engine()
        wal = WriteAheadLog(FileWalStore(tmp_path / "t.wal"), sync=True)
        manager = TransactionManager(engine, wal)
        library = engine.children(engine.document)[0]
        with manager.transaction():
            engine.insert_child(library, 0, name=QName("", "added"))
        wal.close()
        registry = obs.REGISTRY
        assert registry.histogram("wal.append.ns").count > 0
        assert registry.histogram("wal.sync.ns").count > 0
        assert registry.histogram("txn.commit.ns").count == 1

    def test_checkpoint_histogram_and_mode_counters(self, tmp_path):
        engine = _engine()
        FileBackend(tmp_path / "s.img").checkpoint(engine)
        backend = SqliteBackend(tmp_path / "s.db")
        backend.checkpoint(engine)
        library = engine.children(engine.document)[0]
        engine.insert_child(library, 0, name=QName("", "added"))
        backend.checkpoint(engine)
        registry = obs.REGISTRY
        assert registry.histogram("checkpoint.file.ns").count == 1
        assert registry.histogram("checkpoint.sqlite.ns").count == 2
        assert registry.value("checkpoint.full") == 2
        assert registry.value("checkpoint.incremental") == 1


class TestHistogramWindow:
    def test_window_wraps_and_percentiles_track_recent(self):
        histogram = Histogram("h", window=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert sorted(histogram.window_values()) == \
            [float(v) for v in range(90, 100)]
        assert histogram.percentiles()["p50"] >= 90.0
        # Lifetime aggregates keep the full stream.
        assert histogram.min == 0.0
        assert histogram.max == 99.0
        assert histogram.total == sum(range(100))

    def test_partial_window_uses_observed_prefix(self):
        histogram = Histogram("h", window=512)
        histogram.observe(5.0)
        histogram.observe(1.0)
        assert sorted(histogram.window_values()) == [1.0, 5.0]
        summary = histogram.summary()
        assert summary["count"] == 2
        assert summary["min"] == 1.0 and summary["max"] == 5.0

    def test_reset_isolates_snapshots(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.histogram("h").observe(3.0)
        first = registry.snapshot()
        registry.reset()
        second = registry.snapshot()
        assert first["c"] == 7 and second["c"] == 0
        assert first["h"]["count"] == 1 and second["h"]["count"] == 0
        # The first snapshot is a value copy, not a live view.
        assert first["h"]["count"] == 1


class TestEventLog:
    def test_injectable_clock_is_deterministic(self):
        ticks = iter(range(100, 200))
        log = EventLog(clock=lambda: next(ticks))
        log.emit("a")
        log.emit("b", severity="warn", detail="x")
        assert [r.monotonic_ns for r in log] == [100, 101]
        assert log.to_jsonl() == (
            '{"event":"a","severity":"info","monotonic_ns":100}\n'
            '{"event":"b","severity":"warn","monotonic_ns":101,'
            '"detail":"x"}')

    def test_ring_is_bounded_and_counts_drops(self):
        log = EventLog(clock=lambda: 0, limit=4)
        for index in range(10):
            log.emit(f"e{index}")
        assert len(log) == 4
        assert log.dropped == 6
        assert [r.kind for r in log] == ["e6", "e7", "e8", "e9"]

    def test_unknown_severity_is_an_error(self):
        log = EventLog(clock=lambda: 0)
        with pytest.raises(ValueError, match="unknown severity"):
            log.emit("oops", severity="fatal")

    def test_find_and_last(self):
        log = EventLog(clock=lambda: 0)
        log.emit("a", n=1)
        log.emit("b")
        log.emit("a", n=2)
        assert [r.fields["n"] for r in log.find("a")] == [1, 2]
        assert log.last("a").fields["n"] == 2
        assert log.last().kind == "a"
        assert log.last("missing") is None


class TestSlowQueryLog:
    def test_slow_query_event_carries_the_full_explain(self):
        obs.set_slow_query_threshold(0.0)  # everything is slow
        queries = StorageQueryEngine(_engine())
        queries.evaluate("/library/book/title")
        event = obs.EVENTS.last("query.slow")
        assert event is not None and event.severity == "warn"
        record = event.as_dict()
        assert record["path"] == "/library/book/title"
        assert record["strategy"] == "scan"
        assert record["plan_cache"] == "miss"
        assert record["nodes_returned"] > 0
        assert record["stage_ns"], "per-stage timings missing"
        assert obs.REGISTRY.value("query.slow") == 1
        # The slow-query log works without full diagnostics: no
        # EXPLAIN is retained beyond the event itself.
        assert len(obs.EXPLAINS) == 0

    def test_threshold_filters_fast_queries(self):
        obs.set_slow_query_threshold(60.0)  # a minute: nothing is slow
        queries = StorageQueryEngine(_engine())
        queries.evaluate("/library/book/title")
        assert obs.EVENTS.last("query.slow") is None
        assert obs.REGISTRY.value("query.slow") == 0

    def test_disarming_restores_the_telemetry_path(self):
        obs.set_slow_query_threshold(0.0)
        obs.set_slow_query_threshold(None)
        queries = StorageQueryEngine(_engine())
        queries.evaluate("/library/book/title")
        assert obs.EVENTS.last("query.slow") is None
        assert obs.REGISTRY.value("query.evaluations") == 1


class TestChromeTrace:
    def test_chrome_trace_export_shape(self):
        obs.enable()
        queries = StorageQueryEngine(_engine())
        queries.evaluate("/library/book/title")
        trace = obs.TRACER.chrome_trace()
        events = trace["traceEvents"]
        assert events, "no spans were traced"
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 1
            assert event["tid"] == threading.get_ident()
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert trace["otherData"]["dropped_spans"] == 0
        json.dumps(trace)  # must be serializable as-is


class TestPrometheusRendering:
    def test_render_covers_all_instrument_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(3)
        registry.gauge("b.depth").set(2)
        histogram = registry.histogram("c.latency.ns")
        for value in (10.0, 20.0, 30.0):
            histogram.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE repro_a_count_total counter\n" \
            "repro_a_count_total 3" in text
        assert "# TYPE repro_b_depth gauge\nrepro_b_depth 2" in text
        assert "# TYPE repro_c_latency_ns summary" in text
        assert 'repro_c_latency_ns{quantile="0.5"} 20.0' in text
        assert "repro_c_latency_ns_sum 60.0" in text
        assert "repro_c_latency_ns_count 3" in text
        assert text.endswith("\n")


class TestNotLowerableReason:
    def test_lowering_an_unknown_strategy_raises(self):
        """There is one executor: a strategy the lowering does not know
        is an error, not a second way to run the plan."""
        queries = StorageQueryEngine(_engine())
        plan = queries.compile("/library/book/title")
        plan.strategy = "bogus"
        plan.executor = None
        with pytest.raises(QueryError, match="no closure lowering for "
                                             "strategy 'bogus'"):
            queries.evaluate("/library/book/title")


def _bare_node() -> SchemaNode:
    """A text schema node outside any schema, for its value statistics."""
    return SchemaNode(None, "text", None)


class TestStatisticsCollector:
    def _mutate(self, engine):
        library = engine.children(engine.document)[0]
        paper = engine.insert_child(library, 0, name=QName("", "paper"))
        title = engine.insert_child(paper, 0, name=QName("", "title"))
        engine.insert_child(title, 0, text="Stats")
        engine.set_attribute(paper, QName("", "tag"), "first")
        engine.set_attribute(paper, QName("", "tag"), "second",
                             replace=True)
        engine.delete_subtree(engine.children(library)[-1])

    def test_incremental_stats_match_a_recount(self):
        engine = _engine(block_capacity=4)
        self._mutate(engine)
        assert engine.schema.statistics() == \
            engine.schema.recount_statistics()
        engine.schema.verify_statistics()

    def test_export_digest_shape(self):
        engine = _engine()
        digest = engine.schema.statistics()
        assert "#document" in digest
        title = digest["library/book/title"]
        assert title["descriptors"] == 2
        assert title["distinct_values"] == 0  # values live in text
        text = digest["library/book/author/#text"]
        assert text["distinct_values"] == 4
        assert text["min_value"] == "Abiteboul"
        assert text["max_value"] == "Vianu"
        assert text["bytes"] > 0

    def test_value_change_keeps_distinct_counts_exact(self):
        engine = _engine()
        library = engine.children(engine.document)[0]
        book = engine.children(library)[0]
        engine.set_attribute(book, QName("", "lang"), "en")
        engine.set_attribute(book, QName("", "lang"), "de",
                             replace=True)
        stats = engine.schema.statistics()["library/book/@lang"]
        assert stats["descriptors"] == 1
        assert stats["distinct_values"] == 1
        assert stats["min_value"] == "de"
        assert engine.schema.statistics() == \
            engine.schema.recount_statistics()

    def test_typed_order_ties_ignore_insertion_order(self):
        values = ["9", "0009", "1.0", "1", "nan"]
        forward, backward = _bare_node(), _bare_node()
        for value in values:
            forward.add_value(value)
        for value in reversed(values):
            backward.add_value(value)
        digest = forward.statistics()
        assert digest == backward.statistics()
        # Numeric ties break lexicographically; nan sorts after
        # every number.
        assert digest["min_value"] == "1"
        assert digest["max_value"] == "nan"

    def test_value_range_memo_follows_the_value_set(self):
        """The memoized ``(min, max)`` is always the one computed
        afresh from the current multiset, through adds and removes
        that do and do not change the set of distinct values."""
        import random
        rng = random.Random(3)
        pool = ["9", "0009", "10", "1.5", "-2", "nan", "abc", "Zed"]
        stats, live = _bare_node(), []
        for _ in range(400):
            if live and rng.random() < 0.45:
                stats.remove_value(live.pop(rng.randrange(len(live))))
            else:
                live.append(rng.choice(pool))
                stats.add_value(live[-1])
            fresh = _bare_node()
            for value in live:
                fresh.add_value(value)
            assert stats.value_range() == fresh.value_range()
            assert stats.statistics() == fresh.statistics()

    def test_digest_is_stable_across_mutation_order(self):
        engine = _engine()
        library = engine.children(engine.document)[0]
        books = engine.children(library)
        # Mutate in the reverse of the document order a recount
        # walks; the numerically-equal distinct strings must digest
        # identically either way.
        engine.set_attribute(books[1], QName("", "rank"), "9")
        engine.set_attribute(books[0], QName("", "rank"), "0009")
        stats = engine.schema.statistics()["library/book/@rank"]
        assert stats["min_value"] == "0009"
        assert stats["max_value"] == "9"
        engine.schema.verify_statistics()

    @pytest.mark.parametrize("backend_factory", [
        lambda tmp: FileBackend(tmp / "s.img", wal_path=tmp / "s.wal"),
        lambda tmp: SqliteBackend(tmp / "s.db"),
        lambda tmp: MemoryBackend(),
    ], ids=["file", "sqlite", "memory"])
    def test_stats_survive_checkpoint_recover(self, tmp_path,
                                              backend_factory):
        engine = _engine(make_library_document(books=5, papers=3,
                                               seed=11))
        self._mutate(engine)
        backend = backend_factory(tmp_path)
        backend.checkpoint(engine)
        result = recover(backend, strict=True)
        recovered = result.engine
        assert recovered.schema.statistics() == engine.schema.statistics()
        assert recovered.schema.statistics() == \
            recovered.schema.recount_statistics()

    def test_tampered_digest_is_detected(self):
        import struct
        import zlib
        engine = _engine()
        image = dumps_engine(engine)
        digest = json.dumps(engine.schema.statistics(),
                            separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
        body = image[:-4]
        tail = struct.pack("<I", len(digest)) + digest
        assert body.endswith(tail)
        lying = json.loads(digest)
        lying["#document"]["descriptors"] += 1
        forged = json.dumps(lying, separators=(",", ":"),
                            sort_keys=True).encode("utf-8")
        body = body[:-len(tail)] + \
            struct.pack("<I", len(forged)) + forged
        with pytest.raises(StorageError,
                           match="statistics digest"):
            load_engine(body + struct.pack("<I", zlib.crc32(body)))


class TestOperatorCli:
    def _doc(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(EXAMPLE_8_DOCUMENT)
        return str(path)

    def test_metrics_json_has_histograms(self, tmp_path, capsys):
        assert cli_main(["metrics", self._doc(tmp_path),
                         "--path", "/library/book/title",
                         "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["histograms"]["query.latency.ns"]["p95"] > 0
        assert report["counters"]["storage.descriptors.allocated"] > 0

    def test_inspect_json_has_statistics(self, tmp_path, capsys):
        assert cli_main(["inspect", self._doc(tmp_path), "--json"]) == 0
        rows = {row["path"]: row for row in
                json.loads(capsys.readouterr().out)["descriptive_schema"]}
        assert rows["library/book/title"]["descriptors"] == 2
        assert rows["library/book/author/#text"]["distinct_values"] == 4

    def test_metrics_prom_exposition(self, tmp_path, capsys):
        assert cli_main(["metrics", self._doc(tmp_path),
                         "--path", "/library/book/title",
                         "--prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_query_latency_ns summary" in text
        assert 'repro_query_latency_ns{quantile="0.99"}' in text
        assert "repro_storage_descriptors_allocated" in text

    def test_explain_trace_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main(["explain", self._doc(tmp_path),
                         "/library/book/title",
                         "--trace", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"span(s) to {out}\n")
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert trace["traceEvents"][0]["ph"] == "X"
