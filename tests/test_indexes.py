"""Secondary indexes: DDL, typed probes, maintenance, planner, WAL.

The contract under test: a typed-value index keyed by the §4 value
space, declared through ``engine.create_index``, kept current by the
mutation paths, consulted by the plan compiler (with index-epoch cache
invalidation) without ever changing a query's answer, persisted as
*definitions* (contents are derived state rebuilt on load), and
replayed/reconciled through the WAL on recovery.  The one kind is
``value``: a definition of any other kind is refused by every decoder.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cli import main as cli_main
from repro.errors import (
    CorruptionError,
    TypeSystemError,
    UpdateError,
)
from repro.obs.explain import collect
from repro.query import POLICIES, evaluate_store
from repro.query.engine import StorageQueryEngine
from repro.storage import (
    FileBackend,
    FileWalStore,
    RecoveryError,
    SqliteBackend,
    StorageEngine,
    TransactionManager,
    WriteAheadLog,
    dumps_engine,
    load_engine,
    read_wal_store,
    recover,
)
from repro.storage.indexes import ValueIndex
from repro.storage.wal import CREATE_INDEX, DROP_INDEX
from repro.workloads.library import make_library_document
from repro.xmlio import parse_document
from repro.xmlio.qname import QName
from tests.test_query_plan import _budget


def _engine(books=8, papers=4, **kwargs) -> StorageEngine:
    engine = StorageEngine()
    engine.load_document(make_library_document(
        books=books, papers=papers, year_attrs=True, **kwargs))
    return engine


def _books(engine):
    library = engine.children(engine.document)[0]
    return [child for child in engine.children(library)
            if child.schema_node.name.local == "book"]


def _year(engine, book):
    for attribute in engine.attributes(book):
        if attribute.schema_node.name.local == "year":
            return attribute
    return None


# ---------------------------------------------------------------------------
# DDL validation


class TestDdlValidation:
    def test_value_index_rejects_descendant_and_predicates(self):
        engine = _engine()
        with pytest.raises(UpdateError, match="exact schema path"):
            engine.create_index("//book/@year")
        with pytest.raises(UpdateError, match="exact schema path"):
            engine.create_index("library/book[1]/@year")

    def test_value_index_requires_resolving_path(self):
        engine = _engine()
        with pytest.raises(UpdateError, match="does not resolve"):
            engine.create_index("library/shelf/@year")

    def test_value_index_rejects_unknown_type(self):
        engine = _engine()
        with pytest.raises(UpdateError):
            engine.create_index("library/book/@year",
                                value_type="no-such-type")

    def test_duplicate_declaration_rejected(self):
        engine = _engine()
        engine.create_index("library/book/@year")
        with pytest.raises(UpdateError, match="already declared"):
            engine.create_index("/library/book/@year")

    def test_drop_unknown_index_rejected(self):
        engine = _engine()
        with pytest.raises(UpdateError):
            engine.drop_index("library/book/@year")

    def test_drop_removes_the_index(self):
        engine = _engine()
        engine.create_index("library/book/@year")
        assert len(engine.indexes) == 1
        engine.drop_index("library/book/@year")
        assert len(engine.indexes) == 0
        assert not engine.indexes.active


# ---------------------------------------------------------------------------
# Typed-value probes


class TestValueProbes:
    def test_attribute_eq_probe_returns_owning_elements(self):
        engine = _engine()
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        books = _books(engine)
        target = int(_year(engine, books[0]).value)
        expected = [book for book in books
                    if int(_year(engine, book).value) == target]
        assert index.probe_eq(index.parse_key(str(target))) == expected

    def test_probes_compare_in_the_typed_value_space(self):
        engine = StorageEngine()
        engine.load_document(make_library_document(books=0, papers=0))
        library = engine.children(engine.document)[0]
        year = QName("", "year")
        lexicals = ["9", "10", "100", "0009"]
        for i, lexical in enumerate(lexicals):
            book = engine.insert_child(library, i, name=QName("", "book"))
            engine.set_attribute(book, year, lexical)
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        # Lexically "9" > "10"; in the integer value space 9 < 10, and
        # "9" and "0009" collapse to the same key.
        assert len(index.probe_eq(9)) == 2
        low = index.probe_range(high=10, inclusive_high=False)
        assert [int(_year(engine, b).value) for b in low] == [9, 9]
        assert index.stats()["distinct_keys"] == 3

    def test_range_probe_respects_bounds(self):
        engine = _engine(books=12)
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        years = sorted({int(_year(engine, b).value)
                        for b in _books(engine)})
        low, high = years[1], years[-2]
        hits = index.probe_range(low, high)
        got = sorted({int(_year(engine, b).value) for b in hits})
        assert got == [y for y in years if low <= y <= high]
        exclusive = index.probe_range(low, high, inclusive_low=False,
                                      inclusive_high=False)
        got = sorted({int(_year(engine, b).value) for b in exclusive})
        assert got == [y for y in years if low < y < high]

    def test_probe_results_are_in_document_order(self):
        engine = _engine(books=12)
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        for result in (index.probe_exists(), index.probe_range()):
            keys = [d.nid.sort_key() for d in result]
            assert keys == sorted(keys)

    def test_element_index_keys_on_string_value(self):
        engine = _engine()
        index = engine.create_index("library/book/title")
        titles = [engine.string_value(engine.children(book)[0])
                  for book in _books(engine)]
        hits = index.probe_eq(index.parse_key(titles[0]))
        assert hits  # owners are the title elements themselves
        assert all(engine.string_value(d) == titles[0] for d in hits)
        assert len(hits) == titles.count(titles[0])

    def test_untyped_values_probe_as_existing_only(self):
        engine = _engine(books=4)
        books = _books(engine)
        _year(engine, books[0]).value = "not-a-year"
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        assert len(index.probe_exists()) == 4
        assert index.stats()["entries"] == 4
        assert index.stats()["distinct_keys"] <= 3
        assert books[0] not in index.probe_range()
        with pytest.raises(TypeSystemError):
            index.parse_key("not-a-year")


# ---------------------------------------------------------------------------
# Incremental maintenance


class TestMaintenance:
    def test_insert_update_delete_keep_indexes_consistent(self):
        engine = _engine()
        engine.create_index("library/book/@year", value_type="integer")
        engine.create_index("library/book/title")
        library = engine.children(engine.document)[0]

        book = engine.insert_child(library, 0, name=QName("", "book"))
        engine.set_attribute(book, QName("", "year"), "2001")
        title = engine.insert_child(book, 0, name=QName("", "title"))
        engine.insert_child(title, 0, text="New Book")
        assert engine.indexes.verify_consistency() == 2

        engine.set_attribute(book, QName("", "year"), "2002",
                             replace=True)
        assert engine.indexes.verify_consistency() == 2

        engine.delete_subtree(book)
        assert engine.indexes.verify_consistency() == 2

    def test_eq_probe_tracks_value_updates(self):
        engine = _engine()
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        book = _books(engine)[0]
        engine.set_attribute(book, QName("", "year"), "3000",
                             replace=True)
        assert index.probe_eq(3000) == [book]
        engine.set_attribute(book, QName("", "year"), "3001",
                             replace=True)
        assert index.probe_eq(3000) == []
        assert index.probe_eq(3001) == [book]

    def test_rolled_back_transaction_leaves_indexes_untouched(
            self, tmp_path):
        engine = _engine()
        index = engine.create_index("library/book/@year",
                                    value_type="integer")
        snapshot = index.snapshot()
        manager = TransactionManager(
            engine, WriteAheadLog(FileWalStore(tmp_path / "wal.log")))
        library = engine.children(engine.document)[0]
        with pytest.raises(RuntimeError):
            with manager.transaction():
                book = engine.insert_child(library, 0,
                                           name=QName("", "book"))
                engine.set_attribute(book, QName("", "year"), "2525")
                raise RuntimeError("roll it back")
        assert index.snapshot() == snapshot
        assert engine.indexes.verify_consistency() == 1

    def test_rolled_back_ddl_is_undone(self, tmp_path):
        engine = _engine()
        engine.create_index("library/book/title")
        manager = TransactionManager(
            engine, WriteAheadLog(FileWalStore(tmp_path / "wal.log")))
        with pytest.raises(RuntimeError):
            with manager.transaction():
                engine.create_index("library/book/@year")
                engine.drop_index("library/book/title")
                raise RuntimeError("roll it back")
        assert [d.path for d in engine.indexes.definitions()] \
            == ["library/book/title"]
        assert engine.indexes.verify_consistency() == 1


# ---------------------------------------------------------------------------
# Planner integration


class TestPlannerIntegration:
    def _queries(self, engine):
        return StorageQueryEngine(engine)

    @pytest.mark.parametrize("path", [
        "/library/book[@year='1970']/title",
        "/library/book[@year]",
        "/library/book[@year]/author",
        "//author",
    ])
    def test_index_route_matches_naive_evaluation(self, path):
        engine = _engine(books=16, papers=8)
        queries = self._queries(engine)
        expected = queries.evaluate_naive(path)
        assert queries.evaluate(path) == expected
        engine.create_index("library/book/@year", value_type="integer")
        assert queries.evaluate(path) == expected

    def test_explain_reports_the_index_strategy(self):
        engine = _engine()
        engine.create_index("library/book/@year", value_type="integer")
        queries = self._queries(engine)
        obs.reset()
        obs.enable()
        try:
            queries.evaluate("/library/book[@year]/title")
            record = obs.EXPLAINS.last()
            assert record.strategy == "index"
            assert record.index_used == "value:library/book/@year"
            counters = obs.REGISTRY.snapshot()
            assert counters["index.probes"] >= 1
            assert counters["index.hits"] >= 1
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("scale", [100, 1000])
    def test_eq_probe_reads_a_third_of_what_the_scan_reads(self, scale):
        """What the index buys, counted in descriptors read (EXPLAIN
        ``nodes_visited``) instead of timed: on one indexed engine the
        chosen plan against the same query forced onto the scan."""
        engine = _engine(books=scale, papers=scale, seed=scale)
        engine.create_index("library/book/@year", value_type="integer")
        year = engine.string_value(_year(engine, _books(engine)[0]))
        path = f"/library/book[@year='{year}']/title"
        reads = []
        for queries in (self._queries(engine),
                        StorageQueryEngine(engine, planner_policy="scan")):
            with collect(path) as record:
                assert queries.evaluate(path)
            reads.append((record.strategy, record.nodes_visited))
        (chosen, probed), (forced, scanned) = reads
        assert chosen == "index" and forced != "index"
        assert 0 < 3 * probed <= scanned

    def test_unparseable_literal_declines_the_index(self):
        # Typed equality can never hold, but the scan route's untyped
        # string comparison still could — the planner must not change
        # semantics by probing.
        engine = _engine()
        engine.create_index("library/book/@year", value_type="integer")
        queries = self._queries(engine)
        plan = queries.compile("/library/book[@year='oops']/title")
        assert plan.strategy != "index"

    def test_epoch_bump_invalidates_exactly_affected_plans(self):
        engine = _engine(books=6, papers=3)
        queries = self._queries(engine)
        affected = "/library/book[@year]/title"
        unaffected = "/library/paper/title"
        queries.evaluate(affected)
        queries.evaluate(unaffected)
        base = queries.cache_stats()
        compiles = obs.REGISTRY.counter("query.plan.compiles")
        before = compiles.value
        engine.create_index("library/book/@year", value_type="integer")
        assert queries.compile(affected).strategy == "index"
        assert queries.compile(unaffected).strategy == "scan"
        # One stamp: every plan used after the DDL is compiled once,
        # the unaffected one too (it decides as before).
        assert compiles.value == before + 2
        stats = queries.cache_stats()
        assert stats["plan_invalidations"] \
            - base["plan_invalidations"] == 2
        assert stats["plan_misses"] - base["plan_misses"] == 2
        for path in (affected, unaffected):
            assert queries.evaluate(path) == queries.evaluate_naive(path)
        assert queries.cache_stats()["plan_hits"] - stats["plan_hits"] == 2
        assert compiles.value == before + 2

    def test_dropping_the_index_falls_back_to_scan(self):
        engine = _engine()
        queries = self._queries(engine)
        path = "/library/book[@year]/title"
        engine.create_index("library/book/@year", value_type="integer")
        expected = queries.evaluate_naive(path)
        assert queries.compile(path).strategy == "index"
        assert queries.evaluate(path) == expected
        engine.drop_index("library/book/@year")
        assert queries.compile(path).strategy != "index"
        assert queries.evaluate(path) == expected

    def test_uncached_route_runs_the_same_plan_under_an_index(self):
        engine = _engine()
        engine.create_index("library/book/@year", value_type="integer")
        queries = self._queries(engine)
        path = "/library/book[@year]/title"
        assert queries.compile(path).strategy == "index"
        assert queries.evaluate_schema_driven(path) \
            == queries.evaluate_naive(path)


# ---------------------------------------------------------------------------
# An index never changes an answer: ``=`` compares string values


_YEARS_DOC = ("<library>"
              "<book year='1994'><title>A</title></book>"
              "<book year='01994'><title>B</title></book>"
              "<book year=' 1994 '><title>C</title></book>"
              "</library>")

_TITLES_DOC = ("<library><book><title>007</title></book>"
               "<book><title>7</title></book></library>")


def _loaded(text: str) -> StorageEngine:
    engine = StorageEngine()
    engine.load_document(parse_document(text))
    return engine


class TestLexicalEquality:
    """A typed key files every lexical form of one value together; the
    path language's ``=`` tells them apart, so the key may only narrow
    the owners the probe hands on."""

    @pytest.mark.parametrize("document,target,value_type,path,expected", [
        (_YEARS_DOC, "library/book/@year", "integer",
         "/library/book[@year='1994']/title", ["A"]),
        (_YEARS_DOC, "library/book/@year", "integer",
         "/library/book[@year='01994']/title", ["B"]),
        (_YEARS_DOC, "library/book/@year", "integer",
         "/library/book[@year='+1994']/title", []),
        (_YEARS_DOC, "library/book/@year", "token",
         "/library/book[@year='1994']/title", ["A"]),
        (_TITLES_DOC, "library/book/title", "integer",
         "/library/book[title='7']/title", ["7"]),
    ], ids=["canonical", "leading-zero", "plus-sign", "token-space",
            "element-value"])
    def test_every_policy_returns_the_oracle_rows(
            self, document, target, value_type, path, expected):
        engine = _loaded(document)
        engine.create_index(target, value_type=value_type)
        self._assert_oracle_rows(engine, path, expected)

    def test_a_rewrite_to_another_form_of_the_same_key(self):
        """``1994`` → ``01994`` keeps the integer key and its posting:
        the probe must still see which form the owner carries now."""
        engine = _loaded("<library><book year='1994'><title>A</title>"
                         "</book></library>")
        engine.create_index("library/book/@year", value_type="integer")
        engine.set_attribute(_books(engine)[0], QName("", "year"),
                             "01994", replace=True)
        self._assert_oracle_rows(
            engine, "/library/book[@year='1994']/title", [])
        self._assert_oracle_rows(
            engine, "/library/book[@year='01994']/title", ["A"])

    @staticmethod
    def _assert_oracle_rows(engine, path, expected):
        oracle = evaluate_store(StorageQueryEngine(engine).store, path)
        assert [engine.string_value(d) for d in oracle] == expected
        for policy in POLICIES:
            queries = StorageQueryEngine(engine, planner_policy=policy)
            assert queries.evaluate(path) == oracle, policy
        # The probe itself answered: structural precedence takes it.
        structural = StorageQueryEngine(engine,
                                        planner_policy="structural")
        assert structural.compile(path).strategy == "index"


#: Lexical forms of a few values: canonical, leading zeros, a sign,
#: surrounding whitespace, a fraction, and forms no number parses.
_LEXICALS = ("1994", "01994", "+1994", " 1994 ", "1994 ", "2001",
             "19.5", "19.50", "-0", "0", "x", "a  b", "")


@st.composite
def _lexical_libraries(draw):
    """(document text, index path, value type, rewrites after the
    index is declared, query paths)."""
    value = st.sampled_from(_LEXICALS)
    books = draw(st.lists(st.tuples(value, value), min_size=1,
                          max_size=6))
    rewrites = draw(st.lists(st.tuples(
        st.integers(0, len(books) - 1), st.sampled_from(("year", "title")),
        value), max_size=4))
    text = "<library>" + "".join(
        f"<book year='{year}'><title>{title}</title></book>"
        for year, title in books) + "</library>"
    target = draw(st.sampled_from(("library/book/@year",
                                   "library/book/title")))
    value_type = draw(st.sampled_from(("string", "token", "integer",
                                       "decimal")))
    literals = draw(st.lists(value, min_size=1, max_size=4))
    paths = [f"/library/book[{test}='{literal}']{leaf}"
             for literal in literals
             for test, leaf in (("@year", "/title"), ("title", ""))]
    return text, target, value_type, rewrites, paths


def _rewrite(engine, book, field, value) -> None:
    """Give *book*'s ``@year`` or its title's text the value *value*
    through the mutation paths the index maintenance hangs off."""
    if field == "year":
        engine.set_attribute(book, QName("", "year"), value,
                             replace=True)
        return
    title = engine.children(book)[0]
    for text in engine.children(title):
        engine.delete_subtree(text)
    if value:
        engine.insert_child(title, 0, text=value)


@settings(max_examples=_budget(40), deadline=None)
@given(case=_lexical_libraries())
def test_a_typed_value_index_returns_the_oracle_rows(case):
    """Every policy ≡ ``evaluate_store``, through a cold plan cache and
    again through the warm one, whatever lexical forms the data and
    the literal take under whichever type the index keys by — also
    after values are rewritten under the declared index."""
    text, target, value_type, rewrites, paths = case
    engine = _loaded(text)
    engine.create_index(target, value_type=value_type)
    for position, field, value in rewrites:
        _rewrite(engine, _books(engine)[position], field, value)
    assert engine.indexes.verify_consistency() == 1
    engines = [StorageQueryEngine(engine, planner_policy=policy)
               for policy in POLICIES]
    for path in paths:
        oracle = evaluate_store(engines[0].store, path)
        for policy, queries in zip(POLICIES, engines):
            for temperature in ("cold", "warm"):
                assert queries.evaluate(path) == oracle, \
                    (policy, temperature, path)


# ---------------------------------------------------------------------------
# WAL + bulk load


class TestDurability:
    def test_ddl_is_logged_and_replayed(self, tmp_path):
        engine = _engine()
        backend = FileBackend(tmp_path / "store.img",
                              wal_path=tmp_path / "wal.log")
        wal = backend.open_wal()
        manager = TransactionManager(engine, wal)
        backend.checkpoint(engine, wal=wal)
        engine.create_index("library/book/@year", value_type="integer")
        engine.drop_index("library/book/@year")
        engine.create_index("library/book/title")
        kinds = [r.kind for r in read_wal_store(wal.store).records]
        assert kinds.count(CREATE_INDEX) == 2
        assert kinds.count(DROP_INDEX) == 1

        result = recover(backend)
        assert result.index_definitions == 1
        assert result.indexes_verified == 1
        assert [d.path for d in result.engine.indexes.definitions()] \
            == ["library/book/title"]


# ---------------------------------------------------------------------------
# The removed path kind: every decoder refuses it by name


def _text(value: str) -> bytes:
    data = value.encode()
    return struct.pack("<I", len(data)) + data


class TestRemovedPathKind:
    """An image, a snapshot manifest or a WAL record written with a
    ``path`` index definition is refused where it was read, never
    loaded with the index silently missing."""

    MESSAGE = "path indexes were removed"

    def _indexed(self) -> StorageEngine:
        engine = _engine(books=3, papers=2)
        engine.create_index("library/book/title")
        return engine

    def test_image(self):
        image = dumps_engine(self._indexed())
        value = (_text("library/book/title") + _text("value")
                 + _text("string"))
        assert image.count(value) == 1
        body = image.replace(value, _text("//title") + _text("path")
                             + _text(""))[:-4]
        with pytest.raises(CorruptionError, match=self.MESSAGE) as info:
            load_engine(body + struct.pack("<I", zlib.crc32(body)),
                        backend="memory")
        assert info.value.location.startswith("byte ")

    def test_sqlite_manifest(self, tmp_path):
        backend = SqliteBackend(tmp_path / "store.db")
        try:
            info = backend.checkpoint(self._indexed())
            (manifest,) = backend._conn.execute(
                "SELECT manifest FROM snapshots").fetchone()
            value = (_text("library/book/title") + _text("value")
                     + _text("string"))
            assert manifest.count(value) == 1
            body = manifest.replace(value, _text("//title")
                                    + _text("path") + _text(""))[:-4]
            backend._conn.execute(
                "UPDATE snapshots SET manifest = ?",
                (body + struct.pack("<I", zlib.crc32(body)),))
            with pytest.raises(CorruptionError,
                               match=self.MESSAGE) as refusal:
                backend.load_engine()
            assert refusal.value.backend == "sqlite"
            assert refusal.value.location.startswith(
                f"snapshot {info.version} manifest byte ")
        finally:
            backend.close()

    def test_wal_create_index(self, tmp_path):
        backend = FileBackend(tmp_path / "store.img",
                              wal_path=tmp_path / "wal.log")
        wal = backend.open_wal()
        backend.checkpoint(_engine(books=3, papers=2), wal=wal)
        wal.append_begin(7)
        lsn = wal.append_create_index(7, "//title", "path", "")
        wal.append_commit(7)
        with pytest.raises(RecoveryError, match=self.MESSAGE) as info:
            recover(backend)
        assert str(info.value).startswith(f"WAL record {lsn}: ")


# ---------------------------------------------------------------------------
# CLI


_YEARED_DOC = ("<library>"
               "<book year='1994'><title>TAOI</title>"
               "<author>Gray</author></book>"
               "<book year='2001'><title>QET</title>"
               "<author>Codd</author></book>"
               "<paper><title>FMXS</title><author>Siméon</author></paper>"
               "</library>")


class TestCli:
    @pytest.fixture
    def doc(self, tmp_path):
        path = tmp_path / "lib.xml"
        path.write_text(_YEARED_DOC, encoding="utf-8")
        return str(path)

    def test_declares_and_probes_a_value_index(self, doc, capsys):
        code = cli_main(["index", doc, "library/book/@year",
                         "--type", "integer", "--eq", "1994"])
        assert code == 0
        out = capsys.readouterr().out
        assert "index value:library/book/@year (integer)" in out
        assert "probe eq '1994': 1 match(es)" in out

    def test_json_report_includes_explain(self, doc, capsys):
        import json
        code = cli_main(["index", doc, "library/book/@year",
                         "--type", "integer",
                         "--query", "/library/book[@year='2001']/title",
                         "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["definition"]["kind"] == "value"
        assert report["stats"]["entries"] == 2
        assert report["query"]["count"] == 1
        assert report["query"]["explain"]["strategy"] == "index"

    def test_range_probe(self, doc, capsys):
        code = cli_main(["index", doc, "library/book/@year",
                         "--type", "integer",
                         "--low", "1990", "--high", "2000"])
        assert code == 0
        assert "1 match(es)" in capsys.readouterr().out
