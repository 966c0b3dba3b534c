"""The cost-based planner is an optimisation, never a semantics change.

Three families of guarantees:

* **Parity** — for every query of the corpus, the cost-chosen plan
  returns nid-identical results to every forced policy (``structural``,
  ``scan``, ``naive``) and to the naive navigator; and it keeps doing
  so after statistics-shifting mutations and after index DDL.
* **Pricing sanity** — the model's orderings match the engine's real
  cost structure: scan beats naive on a deep path, a selective
  eq-probe beats scanning, and the planner may override the structural
  first-predicate pick when a later predicate prices cheaper; a value
  range is checked in the typed order it was built in, so a stored
  value never prices to zero rows.
* **Priced as executed** — a suffix child step and a child-value
  predicate are charged as the walk or the sweep the executor takes
  for that context count, and a first positional predicate on a
  single-node scan as blocks stepped over; EXPLAIN's stage names show
  the same route.
"""

import pytest
from hypothesis import given, strategies as st

from repro.obs.explain import collect
from repro.query import StorageQueryEngine
from repro.storage import StorageEngine
from repro.storage.dschema import SchemaNode
from repro.workloads import make_library_document
from repro.xmlio import parse_document, serialize_document
from repro.xmlio.qname import QName

#: Every planner policy the cost-chosen plan must agree with.
FORCED_POLICIES = ("structural", "scan", "naive")

#: Query shapes over the library workload covering every strategy the
#: planner emits: scans, hybrids, positional naive fallbacks, multi-
#: schema merges and value probes (eq and exists).
LIBRARY_CORPUS = (
    "/library/book/title",
    "/library/paper/title",
    "/library/*/title",
    "//title",
    "//author",
    "//book[1]",
    "//book[last()]/title",
    "/library/book[2]/author",
    "/library/book[@year]/title",
    "/library/book[author]/title",
    "/library/book/issue/publisher",
    "//issue/year",
    "/library/book[@zzz]/title",
)


def _build_engine():
    text = serialize_document(
        make_library_document(books=40, papers=12, seed=5,
                              year_attrs=True))
    engine = StorageEngine()
    engine.load_document(parse_document(text))
    return engine


def _nids(descriptors):
    return [descriptor.nid for descriptor in descriptors]


def _value_corpus(engine, queries):
    """Corpus entries whose predicate values must exist in this
    particular document (seed-dependent)."""
    year = engine.string_value(
        queries.evaluate_naive("/library/book/@year")[0])
    author = engine.string_value(
        queries.evaluate_naive("/library/book/author")[0])
    return (
        f"/library/book[@year='{year}']/title",
        f"/library/book[@year='{year}'][author]/title",
        f"/library/book[@year][@year='{year}']/title",
        f"/library/book[author='{author}']/title",
        "/library/book[@year='1492']/title",  # in no book's range
    )


def _assert_parity(engine, corpus):
    """One cost-policy engine against one engine per forced policy,
    all over the same store."""
    cost = StorageQueryEngine(engine)
    forced = {policy: StorageQueryEngine(engine, planner_policy=policy)
              for policy in FORCED_POLICIES}
    for path in corpus:
        expected = _nids(cost.evaluate_naive(path))
        got = _nids(cost.evaluate(path))
        assert got == expected, f"cost policy diverges on {path}"
        for policy, queries in forced.items():
            assert _nids(queries.evaluate(path)) == expected, \
                f"{policy} policy diverges on {path}"
    return cost, forced


class TestCorpusParity:
    def test_cost_vs_every_forced_policy(self):
        engine = _build_engine()
        queries = StorageQueryEngine(engine)
        corpus = LIBRARY_CORPUS + _value_corpus(engine, queries)
        _assert_parity(engine, corpus)

    def test_parity_survives_index_ddl(self):
        engine = _build_engine()
        queries = StorageQueryEngine(engine)
        corpus = LIBRARY_CORPUS + _value_corpus(engine, queries)
        engine.create_index("library/book/@year", value_type="integer")
        _assert_parity(engine, corpus)
        engine.drop_index("library/book/@year")
        _assert_parity(engine, corpus)

    def test_parity_survives_stat_shifting_mutations(self):
        engine = _build_engine()
        queries = StorageQueryEngine(engine)
        corpus = LIBRARY_CORPUS + _value_corpus(engine, queries)
        engine.create_index("library/book/@year", value_type="integer")
        cost, forced = _assert_parity(engine, corpus)
        # Shift the distribution the model priced: rewrite half the
        # @year values (churn) and grow the paper population past the
        # drift threshold (count shift), then re-check every engine
        # with its now-stale plan cache.
        books = queries.evaluate_naive("/library/book")
        for book in books[::2]:
            engine.set_attribute(book, QName("", "year"), "1492",
                                 replace=True)
        library = queries.evaluate_naive("/library")[0]
        for _ in range(24):
            paper = engine.insert_child(library, 0, name=QName("", "paper"))
            title = engine.insert_child(paper, 0, name=QName("", "title"))
            engine.insert_child(title, 0, text="Incunabula")
        for path in corpus + ("/library/book[@year='1492']/title",):
            expected = _nids(cost.evaluate_naive(path))
            assert _nids(cost.evaluate(path)) == expected, \
                f"cost policy diverges on {path} after mutations"
            for policy, engine_q in forced.items():
                assert _nids(engine_q.evaluate(path)) == expected, \
                    f"{policy} policy diverges on {path} after mutations"


class TestPricingSanity:
    @pytest.fixture(scope="class")
    def setup(self):
        engine = _build_engine()
        engine.create_index("library/book/@year", value_type="integer")
        return engine, StorageQueryEngine(engine)

    def test_eq_probe_prices_below_scan(self, setup):
        engine, queries = setup
        year = engine.string_value(
            queries.evaluate_naive("/library/book/@year")[0])
        plan = queries.compile(f"/library/book[@year='{year}']/title")
        assert plan.strategy == "index"
        assert plan.index_used == "value:library/book/@year"
        totals = [c.total for c in plan.cost_table]
        assert plan.cost.total == min(totals)

    def test_cost_overrides_structural_first_predicate(self, setup):
        """The showcase: structural precedence probes the first
        applicable predicate ([@year], an unselective exists-probe);
        the cost model prices the second predicate's eq-probe cheaper
        and takes it."""
        engine, queries = setup
        year = engine.string_value(
            queries.evaluate_naive("/library/book/@year")[0])
        path = f"/library/book[@year][@year='{year}']/title"
        plan = queries.compile(path)
        structural = StorageQueryEngine(
            engine, planner_policy="structural").compile(path)
        assert plan.strategy == "index"
        assert plan.cost is not None and plan.cost.chosen
        assert len(plan.cost_table) >= 3
        # The eq probe keys on the literal, the structural pick is the
        # bare exists probe — and the model priced the former cheaper.
        assert plan.probe is not None and plan.probe[0] == "eq"
        assert structural.probe is not None and structural.probe[0] == "exists"
        same_index = [c for c in plan.cost_table
                      if c.strategy == "index"
                      and c.index_used == plan.index_used]
        assert len(same_index) >= 2, \
            "both predicates should have produced probe candidates"
        rejected = [c.total for c in same_index if not c.chosen]
        assert plan.cost.total < min(rejected)

    def test_out_of_range_literal_prices_near_zero_rows(self, setup):
        _, queries = setup
        plan = queries.compile("/library/book[@year='1492']/title")
        assert plan.cost.output_rows == 0


class TestStoredValuesAreInRange:
    """The value range is checked in the order it was built in: a
    stored value never prices to zero rows, an absent literal outside
    the range still does."""

    @staticmethod
    def _priced(values, literal):
        document = "<r>" + "".join(f'<m v="{value}"/>' for value in values)
        engine = StorageEngine()
        engine.load_document(parse_document(document + "</r>"))
        queries = StorageQueryEngine(engine)
        path = f"/r/m[@v='{literal}']"
        return (queries.compile(path).cost.output_rows,
                len(queries.evaluate(path)))

    def test_a_stored_value_beside_nan(self):
        # NaN sorts after every number: the range is '1'..'NaN'.
        rows, matched = self._priced(["1"] * 4 + ["2", "NaN"], "1")
        assert matched == 4 and rows > 0

    def test_a_stored_number_in_a_lexically_ordered_set(self):
        # '1a' is no number, so the range is the lexical '10'..'9'.
        rows, matched = self._priced(["9"] * 4 + ["10", "1a"], "9")
        assert matched == 4 and rows > 0

    @pytest.mark.parametrize("values, literal", [
        (["1", "2", "3"], "9"),
        (["1", "2", "3"], "abc"),
        (["10", "9", "1a"], "zz"),
        (["1", "2", "NaN"], "-5"),
    ], ids=["above-numeric", "no-number-in-numeric", "above-lexical",
            "below-numeric-with-nan"])
    def test_an_absent_out_of_range_literal_prices_zero(self, values,
                                                        literal):
        assert self._priced(values, literal) == (0, 0)

    @given(st.lists(st.sampled_from(
        ["1", "2", "9", "10", "0009", "1.0", "-0", " 3 ", "1e3", "NaN",
         "nan", "inf", "-inf", "1a", "abc", "Zed", ""]), min_size=1))
    def test_every_stored_value_may_be_held(self, values):
        node = SchemaNode(None, "text", None)
        for value in values:
            node.add_value(value)
        assert all(node.may_hold(value) for value in values)


class TestCostBeatsFixed:
    """The cost rule pays for itself, in descriptors read (EXPLAIN
    ``nodes_visited``) rather than in seconds: never more work than
    the structural precedence it replaced, and strictly less than
    every fixed policy where a later predicate is the selective one."""

    #: Scans (``//author`` merges two schema nodes' block lists), an
    #: exists-probe, an eq-probe and the two-predicate showcase:
    #: ``structural`` probes the first, unselective ``[@year]``;
    #: ``cost`` prices the second far cheaper.
    PATHS = (
        "/library/book/title",
        "//author",
        "/library/book[@year]/title",
        "/library/book[@year='{year}']/title",
        "/library/book[@year][@year='{year}']/title",
    )

    def test_never_more_than_structural_and_a_strict_win(self):
        engine = StorageEngine()
        engine.load_document(make_library_document(
            books=100, papers=100, seed=100, year_attrs=True))
        engine.create_index("library/book/@year", value_type="integer")
        policies = {
            policy: StorageQueryEngine(engine, planner_policy=policy)
            for policy in ("cost",) + FORCED_POLICIES}
        year = engine.string_value(
            policies["cost"].evaluate_naive("/library/book/@year")[0])
        reads = {}
        for template in self.PATHS:
            path = template.format(year=year)
            expected = _nids(policies["cost"].evaluate_naive(path))
            assert expected
            visited = reads[template] = {}
            for policy, queries in policies.items():
                with collect(path) as record:
                    assert _nids(queries.evaluate(path)) == expected
                visited[policy] = record.nodes_visited
            assert visited["cost"] <= visited["structural"], path
        showcase = reads[self.PATHS[-1]]
        assert all(showcase["cost"] < showcase[policy]
                   for policy in FORCED_POLICIES), showcase


class TestPricedAsExecuted:
    """The estimate charges the route the executor takes."""

    @pytest.fixture(scope="class")
    def setup(self):
        text = serialize_document(
            make_library_document(books=40, papers=12, seed=5,
                                  year_attrs=True))
        engine = StorageEngine(block_capacity=8)
        engine.load_document(parse_document(text))
        engine.create_index("library/book/@year", value_type="integer")
        return engine, StorageQueryEngine(engine)

    @staticmethod
    def _explained(queries, path):
        with collect(path) as record:
            record.nodes_returned = len(queries.evaluate(path))
        return queries.compile(path), record

    def test_few_contexts_price_and_run_the_walk(self, setup):
        engine, queries = setup
        year = engine.string_value(
            queries.evaluate_naive("/library/book/@year")[0])
        plan, record = self._explained(
            queries, f"/library/book[@year='{year}']/title")
        assert plan.strategy == "index"
        # Walked: charged per context, no title row swept.
        assert plan.cost.navigations > 0
        assert plan.cost.scan_rows == 0
        assert [name for name, _ in record.stage_ns] \
            == ["probe[eq]", "step[title]/walk"]
        assert record.nodes_visited == 2 * record.nodes_returned < 40

    def test_many_contexts_price_and_run_the_sweep(self, setup):
        engine, queries = setup
        titles = engine.schema.find_path("library/book/title")
        plan, record = self._explained(queries,
                                       "/library/book[@year]/title")
        # Every book is a context: sweeping the 40 titles is cheaper
        # than walking from 40 books, and that is what is charged.
        assert plan.cost.navigations == 0
        source_rows = 0 if plan.strategy == "index" else 40
        assert plan.cost.scan_rows \
            == source_rows + titles.descriptor_count
        assert record.stage_ns[-1][0] == "step[title]/sweep"
        assert record.nodes_returned == 40

    def test_first_positional_predicate_is_priced_as_blocks(self, setup):
        _, queries = setup
        plan, record = self._explained(queries, "/library/book[7]/title")
        assert plan.strategy == "hybrid"
        # 40 books in 5 blocks below one parent: first and last member
        # of each block plus the block holding the position — not the
        # 40 rows, and no per-row test of the fused predicate.
        assert plan.cost.scan_rows == 2 * 5 + 8
        assert plan.cost.residual == 0
        assert [name for name, _ in record.stage_ns] \
            == ["scan-pos[library/book][7]", "step[title]/walk"]
        assert record.nodes_visited < 2 * 5 + 8 + 1
        assert record.nodes_returned == 1
        # An unfused positional predicate still tests every row.
        later = queries.compile("/library/book[@year][7]/title")
        by_strategy = {c.strategy: c for c in later.cost_table}
        assert by_strategy["hybrid"].scan_rows == 40


    def test_a_value_predicate_over_every_instance_is_priced_swept(
            self, setup):
        engine, queries = setup
        author = engine.string_value(
            queries.evaluate_naive("/library/book/author")[0])
        holders = [engine.schema.find_path(f"library/{kind}/author/#text")
                   for kind in ("book", "paper")]
        plan, record = self._explained(
            queries, f"/library/*[author='{author}']/title")
        assert plan.strategy == "hybrid"
        # 52 contexts against some hundred author texts: the texts are
        # swept once — their rows and blocks, no per-context test.
        assert plan.cost.residual == 0
        assert plan.cost.scan_rows == 40 + 12 + sum(
            holder.descriptor_count for holder in holders)
        assert plan.cost.blocks >= sum(
            holder.block_count() for holder in holders)
        assert [name for name, _ in record.stage_ns][:2] \
            == ["scan-merge[2]", "predicate[author=…]/sweep"]
        assert record.nodes_visited >= plan.cost.scan_rows

    def test_a_value_predicate_behind_a_probe_is_priced_walked(
            self, setup):
        engine, queries = setup
        book = queries.evaluate_naive("/library/book[author]")[0]
        year = engine.string_value(engine.attributes(book)[0])
        author = engine.string_value(
            queries.evaluate_naive("/library/book/author")[0])
        plan, record = self._explained(
            queries,
            f"/library/book[@year='{year}'][author='{author}']/title")
        assert plan.strategy == "index"
        assert plan.index_used == "value:library/book/@year"
        # The probe's few survivors walk to their own authors: one
        # residual test per survivor, no author text swept.
        assert plan.cost.residual == plan.cost.postings > 0
        assert plan.cost.scan_rows == 0
        assert [name for name, _ in record.stage_ns] == [
            "probe[eq]", "predicate[author=…]/walk", "step[title]/walk"]
