"""``mixed_rw``: fsynced writes beside reads, through the request loop.

A FileBackend database opened with ``sync_wal=True``; every request is
``DatabaseServer.submit(thunk).wait()`` — admission, queue, worker
hop.  One *cycle* is::

    checkpoint_now()                      every CHECKPOINT_EVERY-th cycle
    open write session                    (lease acquire)
    WRITES x [ one write transaction,     insert author+text /
               READS reads ]              set_attribute year /
                                          delete earlier inserts;
                                          reads on the long-lived reader
    close write session                   (lease release)
    fresh_read                            reopen the long-lived reader
                                          and query: materialises the
                                          new horizon
    SHORT_READS x short_read              open read session -> query ->
                                          close, horizon unchanged

The short reads come after the fresh read because every commit moves
the snapshot key: only there is the horizon unchanged, so only there is
open -> query -> close a pin *hit*.

The driver keeps a model of every acknowledged commit.  Each fresh
read must return exactly the model's authors (and, checked right after
it, the model's years); the reads on the long-lived reader are checked
against the model as of the reader's snapshot.  :meth:`finish` is the
durability check: image plus the WAL *truncated to its length at the
last acknowledged commit* are copied to a fresh directory and
recovered there.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

from repro import obs
from repro.mapping import serialize_store
from repro.query.cache import parse_cache_stats
from repro.query.engine import StorageQueryEngine
from repro.server import DatabaseServer
from repro.storage import FileBackend, recover
from repro.storage.persist import dumps_engine
from repro.storage.store import StorageNodeStore

from benchmarks.e2e.library import (
    AUTHOR,
    WORKERS,
    YEAR,
    YEAR_INDEX,
    YEARS,
    book_models,
    make_library,
    paper_titles,
)
from benchmarks.e2e.meter import FAILED, Meter, Workload

#: What ``sync_wal=True`` means at HEAD, stated in every report.
FLUSH_POLICY = ("sync_wal=True: the WAL file is fsynced after every "
                "record (BEGIN, each operation, COMMIT)")

SIZES = {
    "full": dict(books=300, papers=300, cycles=5, writes=8, reads=20,
                 short_reads=16, checkpoint_every=5, pool=(12, 8, 4)),
    "smoke": dict(books=30, papers=30, cycles=2, writes=3, reads=5,
                  short_reads=4, checkpoint_every=2, pool=(6, 4, 2)),
}

#: Seconds a client waits for its reply before the request fails.
REPLY_TIMEOUT = 60.0

#: The writer's lease, in seconds.  The program's default (0.5 s) is
#: shorter than the stalls a shared host inflicts; with one writer the
#: term decides nothing but whether such a stall fails a request.
LEASE_TTL = 60.0

#: Earlier inserts one delete transaction takes out: 65 % inserts over
#: 15 % deletes.
DELETE_BATCH = 4

ALL_AUTHORS = "/library/book/author"
ALL_YEARS = "/library/book/@year"


class MixedWorkload(Workload):
    name = "mixed_rw"
    #: ``p50_us`` is the fresh read: the time from reopening the reader
    #: to its first answer that reflects the commits.  The committed
    #: write (``driver.write.p50_us``) is 230 us net of flushes, of
    #: which up to half is the two thread wake-ups of the worker hop —
    #: and what a wake-up costs is the host's to decide (12 or 50 us a
    #: round trip, changing by the hour), so it cannot carry a bound.
    primary = "fresh_read"

    def __init__(self, name: str, seed: int, scale: str,
                 workdir) -> None:
        self.seed = seed
        self.sizes = SIZES[scale]
        self.workdir = workdir
        self.dir = None
        self.server = None
        self.backend = None
        self.reader = None
        self.cycle = 0
        self.serial = 0
        #: Inserted authors still present: (book, name, descriptor).
        self.inserted: list[tuple] = []
        self.commits = 0
        self.wal_bytes = 0
        self.acked_wal_length = 0
        self.space_amp = 0.0
        self.recovered_relabels = 0

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        sizes = self.sizes
        self.dir = Path(tempfile.mkdtemp(prefix="mixed-",
                                         dir=self.workdir))
        document = make_library(sizes["books"], sizes["papers"],
                                self.seed)
        self.backend = FileBackend(self.dir / "db.img",
                                   self.dir / "db.wal")
        self.server = DatabaseServer(self.backend, document,
                                     workers=WORKERS, sync_wal=True,
                                     lease_ttl=LEASE_TTL, seed=self.seed)
        with self.server.open_session("write") as writer:
            writer.execute(
                lambda engine, session: engine.create_index(YEAR_INDEX))
        self.server.checkpoint_now()
        self.reader = self.server.open_session("read")
        self.acked_wal_length = self._wal_length()
        # The model, and live handles on the book elements so a write
        # transaction needs no navigation of its own.
        self.books = book_models(document)
        self.papers = paper_titles(document)
        engine = self.server.engine
        library = engine.children(engine.document)[0]
        self.handles = [child for child in engine.children(library)
                        if engine.node_name(child).local == "book"]
        rng = random.Random(f"{self.seed}/mixed_rw/paths")
        by_year, by_book, by_paper = sizes["pool"]
        self.pool = (
            [(f"/library/book[@year='{year}']/title", "year", year)
             for year in rng.sample(YEARS, by_year)]
            + [(f"/library/book[{index + 1}]/author", "authors", index)
               for index in rng.sample(range(len(self.books)), by_book)]
            + [(f"/library/paper[{index + 1}]/title", "paper", index)
               for index in rng.sample(range(len(self.papers)),
                                       by_paper)])
        self.view = self._answers()

    def _wal_length(self) -> int:
        return self.backend.wal_path.stat().st_size

    def _answers(self) -> list[list[str]]:
        """What each pool path returns on the committed state."""
        answers = []
        for _, kind, key in self.pool:
            if kind == "year":
                answers.append([book.title for book in self.books
                                if book.year == key])
            elif kind == "authors":
                answers.append(list(self.books[key].authors))
            else:
                answers.append([self.papers[key]])
        return answers

    def warm(self, meter: Meter) -> None:
        for (path, _, _), answer in zip(self.pool, self.view):
            meter.verify(self.reader.query_values(path) == answer,
                         f"model disagrees on {path}")

    # -- requests ---------------------------------------------------------

    def _call(self, thunk):
        return self.server.submit(thunk).wait(REPLY_TIMEOUT)

    def _reopen(self) -> list[str]:
        self.reader.close()
        self.reader = self.server.open_session("read")
        return self.reader.query_values(ALL_AUTHORS)

    def _short(self, path: str) -> list[str]:
        with self.server.open_session("read") as session:
            return session.query_values(path)

    def segment(self, index: int, meter: Meter) -> int:
        rng = random.Random(f"{self.seed}/mixed_rw/{index}")
        sizes = self.sizes
        # The same write mix in every segment of every seed, in an
        # order the seed picks: the seed decides what is written where,
        # not how costly a segment is.
        count = sizes["cycles"] * sizes["writes"]
        deletes, updates = round(count * 0.15), round(count * 0.20)
        kinds = (["delete"] * deletes + ["update"] * updates
                 + ["insert"] * (count - deletes - updates))
        rng.shuffle(kinds)
        before = meter.requests
        for cycle in range(sizes["cycles"]):
            self._cycle(rng, kinds[cycle * sizes["writes"]:
                                   (cycle + 1) * sizes["writes"]], meter)
        return meter.requests - before

    def _cycle(self, rng: random.Random, kinds: list[str],
               meter: Meter) -> None:
        sizes = self.sizes
        server = self.server
        pool = self.pool
        if self.cycle % sizes["checkpoint_every"] == 0:
            meter.request("checkpoint", self._call,
                          server.checkpoint_now)
        self.cycle += 1
        writer = meter.request("lease", self._call,
                               lambda: server.open_session("write"))
        if writer is FAILED:
            return
        for kind in kinds:
            self._write(rng, kind, writer, meter)
            reader = self.reader
            for _ in range(sizes["reads"]):
                number = rng.randrange(len(pool))
                path = pool[number][0]
                result = meter.request(
                    "read", self._call,
                    lambda: reader.query_values(path))
                meter.check(result, self.view[number], path)
        meter.request("lease", self._call, writer.close)
        result = meter.request("fresh_read", self._call, self._reopen)
        meter.check(result, [name for book in self.books
                             for name in book.authors],
                    "fresh read misses an acknowledged commit")
        meter.verify(self.reader.query_values(ALL_YEARS)
                     == [book.year for book in self.books],
                     "fresh read misses an acknowledged year")
        self.view = self._answers()
        for _ in range(sizes["short_reads"]):
            number = rng.randrange(len(pool))
            path = pool[number][0]
            result = meter.request("short_read", self._call,
                                   lambda: self._short(path))
            meter.check(result, self.view[number], path)

    def _write(self, rng: random.Random, kind: str, writer,
               meter: Meter) -> None:
        """One write transaction of *kind*; the model follows only
        when the commit is acknowledged.  15 % deletes, 20 % year
        updates, 65 % inserts: the median write is an insert, well
        inside that mode of the latencies.  A delete takes out as many
        earlier inserts as one delete's share of the mix put in, so
        the database keeps its size however long a run is."""
        number = rng.randrange(len(self.books))
        book, handle = self.books[number], self.handles[number]
        if kind == "delete" and self.inserted:
            chosen = sorted(rng.sample(
                range(len(self.inserted)),
                min(DELETE_BATCH, len(self.inserted))), reverse=True)
            doomed = [self.inserted[choice] for choice in chosen]

            def mutate(engine, session):
                for _, _, descriptor in doomed:
                    engine.delete_subtree(descriptor)

            def acknowledge(result) -> None:
                for choice, (owner, name, _) in zip(chosen, doomed):
                    self.inserted.pop(choice)
                    self.books[owner].authors.remove(name)
        elif kind == "update":
            year = rng.choice(YEARS)

            def mutate(engine, session):
                return engine.set_attribute(handle, YEAR, year,
                                            replace=True)

            def acknowledge(result) -> None:
                book.year = year
        else:  # an insert, or a delete with nothing to take out yet
            name = f"Writer {self.serial}"
            self.serial += 1
            position = 1 + len(book.authors)  # after title and authors

            def mutate(engine, session):
                author = engine.insert_child(handle, position,
                                             name=AUTHOR)
                engine.insert_child(author, 0, text=name)
                return author

            def acknowledge(result) -> None:
                book.authors.append(name)
                self.inserted.append((number, name, result))
        before = self._wal_length()
        result = meter.request("write", self._call,
                               lambda: writer.execute(mutate))
        if result is FAILED:
            return
        acknowledge(result)
        self.acked_wal_length = self._wal_length()
        self.wal_bytes += self.acked_wal_length - before
        self.commits += 1

    # -- the durability check ----------------------------------------------

    def finish(self, meter: Meter) -> None:
        """Recover a copy that holds only what was flushed when the
        last commit was acknowledged; every acknowledged commit must
        be there."""
        crash = self.dir / "crash"
        crash.mkdir()
        shutil.copyfile(self.backend.image_path, crash / "db.img")
        flushed = self.backend.wal_path.read_bytes()
        (crash / "db.wal").write_bytes(flushed[:self.acked_wal_length])
        backend = FileBackend(crash / "db.img", crash / "db.wal")
        try:
            result = meter.request("recover", recover, backend)
        finally:
            backend.close()
        if result is FAILED:
            return
        engine = result.engine
        queries = StorageQueryEngine(engine)

        def values(path: str) -> list[str]:
            return [engine.string_value(node)
                    for node in queries.evaluate(path)]

        meter.verify(values(ALL_AUTHORS)
                     == [name for book in self.books
                         for name in book.authors],
                     "recovered copy misses an acknowledged author")
        meter.verify(values(ALL_YEARS)
                     == [book.year for book in self.books],
                     "recovered copy misses an acknowledged year")
        self.recovered_relabels = result.relabels + engine.relabel_count
        meter.verify(self.recovered_relabels == 0,
                     "recovery relabelled nodes (Proposition 1)")
        xml = serialize_store(StorageNodeStore(engine))
        self.space_amp = (len(dumps_engine(engine))
                          / len(xml.encode("utf-8")))

    # -- read from outside -------------------------------------------------

    def counters(self) -> dict[str, float]:
        parse = parse_cache_stats()
        return {"parse_hits": parse.hits,
                "parse_misses": parse.misses,
                "lease_contended":
                    obs.REGISTRY.value("server.lease.contended")}

    def facts(self) -> dict[str, float]:
        server = self.server
        queries = self.reader.snapshot.queries()
        facts: dict[str, float] = {}
        for path, _, _ in self.pool:
            name = f"query.strategy.{queries.compile(path).strategy}"
            facts[name] = facts.get(name, 0) + 1
        facts["storage.engine.blocks"] = server.engine.block_count()
        facts["storage.relabels"] = (server.engine.relabel_count
                                     + self.reader.snapshot.relabels
                                     + self.recovered_relabels)
        facts["server.admission.shed"] = (
            server.admission.rejected_requests
            + server.admission.rejected_sessions)
        facts["storage.wal.bytes"] = self.wal_bytes
        facts["driver.wal_bytes_per_commit"] = (
            self.wal_bytes / self.commits if self.commits else 0.0)
        facts["driver.space_amp"] = self.space_amp
        return facts

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        if self.server is not None:
            self.server.close()
        if self.backend is not None:
            self.backend.close()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
