"""``read_hot`` and ``read_cold``: one read session, opposite cache use.

Both run on the same database (MemoryBackend, the scaled library with
a value index on ``book/@year``) and the same long-lived read session;
they differ only in the path strings they send.  ``read_hot`` draws
from 96 strings, which fit the 256-entry plan cache and the 512-entry
parse cache, so every request is a lookup plus a compiled execution.
``read_cold`` cycles round-robin through more distinct strings than
either LRU cache holds — the worst case for LRU: every request parses,
prices candidates and lowers a plan.  The query classes follow the
downward / predicate / positional fragments of Fletcher, Gyssens,
Paredaens, Van Gucht and Wu (PAPERS.md).
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product

from repro.query.cache import parse_cache_stats
from repro.query.engine import evaluate_store
from repro.server import DatabaseServer
from repro.storage import MemoryBackend
from repro.storage.store import StorageNodeStore

from benchmarks.e2e.library import (
    ANNEX_FIELDS,
    ANNEX_KINDS,
    WORKERS,
    YEAR_INDEX,
    YEARS,
    book_models,
    make_library,
)
from benchmarks.e2e.meter import Meter, Workload

SIZES = {
    "full": dict(books=1000, papers=1000, hot_ops=8000,
                 cold_paths=2048, wide_double=6, cold_ops=1280,
                 oracle_stride=1),
    "smoke": dict(books=60, papers=60, hot_ops=2000,
                  cold_paths=560, wide_double=6, cold_ops=345,
                  oracle_stride=4),
}

#: ``read_hot`` request mix: class -> share of requests.
HOT_MIX = {"probe": 0.4, "child": 0.3, "positional": 0.2,
           "conjunctive": 0.1}


class ReadWorkload(Workload):
    """One read session over a served library; hot or cold paths."""

    primary = "read"

    def __init__(self, name: str, seed: int, scale: str,
                 workdir) -> None:
        self.name = name
        self.seed = seed
        self.sizes = SIZES[scale]
        self.server = None
        self.session = None
        #: Distinct requests: (path, True for string values / False
        #: for node handles).
        self.requests: list[tuple[str, bool]] = []
        self.expected: list[list] = []
        self.strategies: Counter = Counter()

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        sizes = self.sizes
        document = make_library(sizes["books"], sizes["papers"],
                                self.seed)
        self.server = DatabaseServer(MemoryBackend(), document,
                                     workers=WORKERS)
        with self.server.open_session("write") as writer:
            writer.execute(
                lambda engine, session: engine.create_index(YEAR_INDEX))
        self.server.checkpoint_now()
        self.session = self.server.open_session("read")
        books = book_models(document)
        self.authors = sorted({name for book in books
                               for name in book.authors})
        self.titles = sorted({book.title for book in books})
        rng = random.Random(f"{self.seed}/{self.name}/paths")
        if self.name == "read_hot":
            self.pools = self._hot_pools(rng)
            self.requests = [request for pool in self.pools.values()
                             for request in pool]
        else:
            self.cold, self.wide = self._cold_pools(rng)
            self.requests = self.cold + self.wide

    def _hot_pools(self, rng: random.Random) -> dict[str, list]:
        books = self.sizes["books"]
        pairs = rng.sample(list(product(YEARS, self.authors)), 11)
        return {
            "probe": [(f"/library/book[@year='{year}']/title", True)
                      for year in YEARS],
            "child": [("/library", False)]
            + [(f"/library/{kind}", False) for kind in ANNEX_KINDS]
            + [(f"/library/{kind}/{name}", False)
               for kind in ANNEX_KINDS for name in ANNEX_FIELDS],
            "positional": [(f"/library/book[{index}]/title", True)
                           for index in rng.sample(
                               range(1, books + 1), 20)],
            "conjunctive": [
                (f"/library/book[@year='{year}'][author='{author}']"
                 "/title", True) for year, author in pairs],
        }

    def _cold_pools(self, rng: random.Random):
        """The narrow and the wide path strings.  Every family has a
        fixed share, so the seed picks *which* paths, not how costly
        the mix is."""
        sizes = self.sizes
        quota = sizes["cold_paths"] // 4
        narrow = []
        for kind, leaf in (("book", "title"), ("paper", "title"),
                           ("book", "author")):
            count = sizes["books" if kind == "book" else "papers"]
            narrow += [f"/library/{kind}[{index}]/{leaf}"
                       for index in rng.sample(range(1, count + 1),
                                               min(count, quota))]
        conjunctive = [
            f"/library/book[@year='{year}'][author='{author}']/{leaf}"
            for year, author, leaf in product(
                YEARS, self.authors, ("title", "author"))]
        narrow += rng.sample(conjunctive,
                             sizes["cold_paths"] - len(narrow))
        rng.shuffle(narrow)
        # Wide: a filter on a child value scans every book and paper.
        single = [f"[title='{title}']" for title in self.titles]
        single += [f"[author='{author}']" for author in self.authors]
        double = [f"[title='{title}'][author='{author}']"
                  for title, author in product(self.titles,
                                               self.authors)]
        wide = [f"/library/{kind}{test}/{leaf}"
                for kind, leaf in product(("book", "paper", "*"),
                                          ("title", "author"))
                for test in single + rng.sample(double,
                                                sizes["wide_double"])]
        rng.shuffle(wide)
        return ([(path, True) for path in narrow],
                [(path, True) for path in wide])

    # -- warm-up: record and check the expected answers -------------------

    def warm(self, meter: Meter) -> None:
        """Run every distinct request once, check it against the
        ``evaluate_store`` interpreter over the same snapshot, and keep
        the answer as what each timed read must return."""
        session = self.session
        engine = session.snapshot.engine
        store = StorageNodeStore(engine)
        queries = session.snapshot.queries()
        stride = self.sizes["oracle_stride"]
        offset = self.seed % stride
        self.expected = []
        self.strategies = Counter()
        for number, (path, values) in enumerate(self.requests):
            nodes = session.query(path)
            answer = session.query_values(path) if values else nodes
            self.expected.append(answer)
            self.strategies[queries.compile(path).strategy] += 1
            if number % stride != offset:
                continue
            oracle = evaluate_store(store, path)
            meter.verify(
                nodes == oracle and (
                    not values or answer
                    == [engine.string_value(node) for node in oracle]),
                f"oracle disagrees on {path}")
        if self.name == "read_cold":
            # Lead in with one full period of the round-robin order,
            # so segment 0 starts in its steady state: whatever comes
            # next is always the least recently used entry.
            period = 5 * max(len(self.cold) // 4 + 1, len(self.wide))
            for number in self._cold_order(range(-period, 0)):
                session.query_values(self.requests[number][0])

    # -- one measured segment ---------------------------------------------

    def segment(self, index: int, meter: Meter) -> int:
        if self.name == "read_hot":
            order = self._hot_order(index)
        else:
            ops = self.sizes["cold_ops"]
            order = self._cold_order(range(index * ops,
                                           (index + 1) * ops))
        session = self.session
        requests = self.requests
        expected = self.expected
        for number in order:
            path, values = requests[number]
            result = meter.request(
                "read",
                session.query_values if values else session.query,
                path)
            meter.check(result, expected[number], path)
        return len(order)

    def _hot_order(self, index: int) -> list[int]:
        rng = random.Random(f"{self.seed}/{self.name}/{index}")
        starts, start = {}, 0
        for cls, pool in self.pools.items():
            starts[cls] = start
            start += len(pool)
        classes = rng.choices(list(HOT_MIX), list(HOT_MIX.values()),
                              k=self.sizes["hot_ops"])
        return [starts[cls] + rng.randrange(len(self.pools[cls]))
                for cls in classes]

    def _cold_order(self, positions: range) -> list[int]:
        """Four narrow paths then one wide scan, both round-robin;
        position *p* of the endless sequence is the same request in
        whichever segment it falls."""
        narrow, wide = len(self.cold), len(self.wide)
        order = []
        for position in positions:
            group, slot = divmod(position, 5)
            if slot == 4:
                order.append(narrow + group % wide)
            else:
                order.append((group * 4 + slot) % narrow)
        return order

    # -- read from outside -------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Monotone counters the driver differences over a segment."""
        stats = self.session.snapshot.queries().cache_stats()
        parse = parse_cache_stats()
        return {"plan_evictions": stats["plan_evictions"],
                "parse_hits": parse.hits,
                "parse_misses": parse.misses}

    def facts(self) -> dict[str, float]:
        """Values reported as they stand at the end of the run."""
        engine = self.server.engine
        facts = {f"query.strategy.{name}": count
                 for name, count in self.strategies.items()}
        facts["storage.engine.blocks"] = engine.block_count()
        facts["storage.relabels"] = (engine.relabel_count
                                     + self.session.snapshot.relabels)
        facts["server.admission.shed"] = (
            self.server.admission.rejected_requests
            + self.server.admission.rejected_sessions)
        return facts

    def finish(self, meter: Meter) -> None:
        meter.verify(self.session.snapshot.relabels == 0,
                     "snapshot materialised with relabels")

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self.server is not None:
            self.server.close()
