"""Advancing a reader snapshot by the committed WAL delta must be
indistinguishable from ``recover()`` at every key.

The property (a rule-based state machine per backend): after *every*
rule — inserts, attribute writes, deletes, index DDL, a rolled-back
transaction, a peek from inside an open one, a checkpoint, readers
opening and closing in any order — a fresh pin must present exactly
the document ``recover(backend)`` reconstructs: bisimilar stores,
equal labels, equal index contents, equal statistics, no relabel, and
the *full* §9 and index checks passing on the advanced engine (the
advance itself only ran the scoped ones).  The same rules carry a
second property: an image assembled through the writer's payload memo
is the image encoded afresh; and a third: the records the writer
published in memory — all a key or an advance ever folds — are the
records its store holds.

Beside it, the deterministic cases: which path a pin takes (hit,
advance, ``recover()`` fallback), that a pinned snapshot is never
touched, and the race the fallback's keying closes.

The example budget is the active hypothesis profile's; the CI
crash-matrix step raises it (``--hypothesis-profile=crash-matrix``,
registered in ``conftest.py``).
"""

import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import obs
from repro.errors import StorageError
from repro.server import DatabaseServer, SnapshotManager
from repro.server import snapshots as snapshots_module
from repro.storage import (
    Block,
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    StorageEngine,
    dumps_engine,
    faults,
    read_wal_store,
    recover,
)
from repro.storage.descriptor import NO_SLOT
from repro.storage.store import StorageNodeStore
from repro.storage.wal import BEGIN
from repro.workloads import make_library_document
from repro.xdm.store import bisimulate
from repro.xmlio.parser import parse_document
from repro.xmlio.qname import QName

LIBRARY = (
    '<library>'
    '<book year="2001"><title>Alpha</title><author>Ann</author></book>'
    '<book year="1999"><title>Beta</title><author>Bob</author>'
    '<author>Cy</author></book>'
    '<paper><title>Gamma</title></paper>'
    '</library>')

#: The indexes the DDL rule toggles: an attribute value index and an
#: element value index (keyed by string value, so text below it
#: re-keys it).
INDEXES = ("library/book/@year", "library/book/title")

NAMES = [QName("", name) for name in ("book", "author", "title", "note")]
ATTRIBUTES = [QName("", name) for name in ("year", "id")]
TEXTS = st.sampled_from(["", "x", "Ann", "2001", "zz top"])
PICK = st.integers(min_value=0, max_value=10_000)

#: One logged operation of a transaction that will abort: a write rule
#: of the machine by name, with the arguments that rule draws.
OPERATION = st.one_of(
    st.tuples(st.just("insert_element"), st.fixed_dictionaries(
        {"parent": PICK, "index": PICK, "name": st.sampled_from(NAMES)})),
    st.tuples(st.just("insert_text"), st.fixed_dictionaries(
        {"parent": PICK, "index": PICK, "text": TEXTS})),
    st.tuples(st.just("set_attribute"), st.fixed_dictionaries(
        {"pick": PICK, "name": st.sampled_from(ATTRIBUTES),
         "value": TEXTS})),
    st.tuples(st.just("delete_subtree"),
              st.fixed_dictionaries({"pick": PICK})),
    st.tuples(st.just("toggle_index"), st.fixed_dictionaries(
        {"which": st.sampled_from(INDEXES)})))

AUTHORS = "/library/book/author"

#: Asked of every fresh pin through its kept, warm plans: the
#: context-driven stages (pointer walk, block sweep, positional runs,
#: probe residuals) against the interpreter on the same engine.
PATHS = (AUTHORS, "/library/book[2]/author",
         "/library/book[last()]/title", "/library/book/author[last()]",
         "/library/book[@year='2001']/author",
         "/library/book[@year][author='Ann']/title",
         "/library/*[3]/title", "/library/book[title]/note")

#: Where the state machines keep their files: memory-backed when the
#: platform has it.  The sqlite WAL store commits — fsyncs — once per
#: record, and the property is about replay, not about the disk.
SCRATCH = "/dev/shm" if os.access("/dev/shm", os.W_OK) else None


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()
    faults.clear()
    faults.clear_local()


def make_backend(name, directory):
    if name == "file":
        return FileBackend(Path(directory) / "store.img",
                           wal_path=Path(directory) / "store.wal")
    if name == "sqlite":
        return SqliteBackend(Path(directory) / "store.db")
    return MemoryBackend()


def assert_equivalent(advanced, recovered):
    """*advanced* (a snapshot engine) is what recover() rebuilt."""
    bisimulate(StorageNodeStore(advanced), StorageNodeStore(recovered))
    assert [d.nid.symbols() for d in advanced.iter_document_order()] \
        == [d.nid.symbols() for d in recovered.iter_document_order()]
    assert advanced.indexes.snapshot() == recovered.indexes.snapshot()
    assert advanced.schema.statistics() == recovered.schema.statistics()
    assert advanced.relabel_count == 0
    advanced.check_invariants()
    advanced.indexes.verify_consistency()
    advanced.schema.verify_statistics()


def in_block_invariants_hold(block):
    """The in-block invariants walked from scratch, independently of
    ``Block.verify``: the order chain holds exactly ``count``
    descriptors of this block's schema node, stored here, in strictly
    increasing label order."""
    chain, slot = [], block.first_slot
    while slot != NO_SLOT and len(chain) <= block.count:
        descriptor = block.slots[slot]
        if descriptor is None:
            return False
        chain.append(descriptor)
        slot = descriptor.next_in_block
    keys = [d.nid.sort_key() for d in chain]
    return (len(chain) == block.count
            and keys == sorted(set(keys))
            and all(d.schema_node is block.schema_node
                    and d.block is block for d in chain))


class Abandon(Exception):
    """Raised inside a write transaction to roll it back."""


class AdvanceMachine(RuleBasedStateMachine):
    backend_name = "memory"

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="advance-",
                                          dir=SCRATCH)
        self.backend = make_backend(self.backend_name, self.directory)
        # Four descriptors to a block: a few inserts split blocks, a
        # few deletes leave them half empty.
        self.server = DatabaseServer(self.backend,
                                     parse_document(LIBRARY), workers=1,
                                     block_capacity=4)
        self.readers = []

    def teardown(self):
        for reader in self.readers:
            reader.close()
        self.server.close()
        self.backend.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers ----------------------------------------------------------

    def _write(self, mutate):
        with self.server.open_session("write") as writer:
            return writer.execute(mutate)

    @staticmethod
    def _elements(engine):
        return [d for d in engine.iter_document_order()
                if d.node_type == "element"]

    @staticmethod
    def _insert(engine, parent_pick, index_pick, **what):
        """``name=`` an element, ``text=`` a text node."""
        elements = AdvanceMachine._elements(engine)
        parent = elements[parent_pick % len(elements)]
        slots = len(engine.children(parent)) + 1
        return engine.insert_child(parent, index_pick % slots, **what)

    def _check_fresh_pin(self):
        with self.server.open_session("read") as fresh:
            snapshot = fresh.snapshot
            assert snapshot.key == self.server.snapshots.current_key()
            assert snapshot.relabels == 0
            assert_equivalent(snapshot.engine,
                              recover(self.backend).engine)
            queries = snapshot.queries()
            for path in PATHS:
                assert [d.nid for d in queries.evaluate(path)] \
                    == [d.nid for d in queries.evaluate_naive(path)], path

    # -- writes -----------------------------------------------------------

    @rule(parent=PICK, index=PICK, name=st.sampled_from(NAMES))
    def insert_element(self, parent, index, name):
        self._write(lambda engine, session: self._insert(
            engine, parent, index, name=name))

    @rule(parent=PICK, index=PICK, text=TEXTS)
    def insert_text(self, parent, index, text):
        self._write(lambda engine, session: self._insert(
            engine, parent, index, text=text))

    @rule(parent=PICK, index=PICK, name=st.sampled_from(NAMES),
          text=TEXTS)
    def insert_element_with_text(self, parent, index, name, text):
        """Two records in one transaction (the benchmark's insert)."""
        def mutate(engine, session):
            element = self._insert(engine, parent, index, name=name)
            engine.insert_child(element, 0, text=text)
        self._write(mutate)

    @rule(pick=PICK, name=st.sampled_from(ATTRIBUTES), value=TEXTS)
    def set_attribute(self, pick, name, value):
        """New where absent, replaced where present."""
        def mutate(engine, session):
            elements = self._elements(engine)
            engine.set_attribute(elements[pick % len(elements)], name,
                                 value, replace=True)
        self._write(mutate)

    @rule(pick=PICK)
    def delete_subtree(self, pick):
        def mutate(engine, session):
            root = engine.children(engine.document)[0]
            victims = [d for d in engine.iter_document_order(root)
                       if d is not root and d.node_type != "attribute"]
            if victims:
                engine.delete_subtree(victims[pick % len(victims)])
        self._write(mutate)

    @rule(which=st.sampled_from(INDEXES))
    def toggle_index(self, which):
        def mutate(engine, session):
            declared = {d.path for d in engine.indexes.definitions()}
            if which in declared:
                engine.drop_index(which)
            elif engine.schema.find_path(which) is not None:
                engine.create_index(which)
        self._write(mutate)

    @rule(operations=st.lists(OPERATION, min_size=1, max_size=4))
    def rolled_back_transaction(self, operations):
        """Logged operations, then ABORT: never visible — one to four
        bodies of the write rules above, run inside one transaction
        (``_write`` is shadowed while it is open), so the engine's
        pushed inverses undo inserts, new and replaced attributes,
        deleted subtrees and index DDL, newest first."""
        def mutate(engine, session):
            self._write = lambda body: body(engine, session)
            try:
                for name, arguments in operations:
                    getattr(self, name)(**arguments)
            finally:
                del self._write
            raise Abandon()
        with pytest.raises(Abandon):
            self._write(mutate)

    @rule(parent=PICK, index=PICK, name=st.sampled_from(NAMES),
          commit=st.booleans())
    def uncommitted_suffix(self, parent, index, name, commit):
        """A pin taken while the log ends in operations without a
        COMMIT stops at the last one — then the transaction commits
        or aborts and the next pin has to follow either way."""
        def mutate(engine, session):
            self._insert(engine, parent, index, name=name)
            self._check_fresh_pin()
            if not commit:
                raise Abandon()
        if commit:
            self._write(mutate)
        else:
            with pytest.raises(Abandon):
                self._write(mutate)

    @rule()
    def checkpoint(self):
        self.server.checkpoint_now()

    # -- readers ----------------------------------------------------------

    @rule()
    def open_reader(self):
        self.readers.append(self.server.open_session("read"))

    @precondition(lambda self: self.readers)
    @rule(pick=PICK)
    def close_reader(self, pick):
        self.readers.pop(pick % len(self.readers)).close()

    # -- the property -----------------------------------------------------

    @invariant()
    def fresh_pin_is_what_recover_rebuilds(self):
        self._check_fresh_pin()

    @invariant()
    def live_engine_is_what_recover_rebuilds(self):
        """The writer's own engine — after commits and after rollbacks
        ran their inverses — is the committed state, label for label,
        with its indexes and statistics."""
        assert_equivalent(self.server.engine,
                          recover(self.backend).engine)

    @invariant()
    def remembered_payloads_are_fresh_payloads(self):
        """Whatever the rules did since the blocks were last encoded
        — splits, relinked siblings, replaced values, dropped blocks,
        undone inserts, checkpoints on this backend — an image through
        the payload memo is the image with the memo cleared, and what
        the backend holds recovers to the live document."""
        engine = self.server.engine
        memoised = dumps_engine(engine)
        engine.payloads.clear()
        assert dumps_engine(engine) == memoised
        bisimulate(StorageNodeStore(engine),
                   StorageNodeStore(recover(self.backend).engine))

    @invariant()
    def remembered_verdicts_are_fresh_verdicts(self):
        """Whatever the rules did since a block last passed the chain
        check — inserts, deletes, splits, undone writes, advances — a
        block whose verdict stands, on the writer's engine and on every
        cached snapshot (pinned or spare), passes the in-block check
        walked from scratch."""
        engines = [self.server.engine] + [
            snapshot.engine
            for snapshot in self.server.snapshots._cache.values()]
        for engine in engines:
            for schema_node in engine.schema.iter_nodes():
                for block in schema_node.blocks():
                    if block.verified:
                        assert in_block_invariants_hold(block), block

    @invariant()
    def published_log_is_the_durable_log(self):
        """What the writer published — all the manager ever folds — is
        what its store holds: the same records, field by field, up to
        the same byte."""
        published = self.server.wal.scan
        durable = read_wal_store(self.backend.wal_store())
        assert len(published.records) == len(durable.records)
        for mine, theirs in zip(published.records, durable.records):
            assert mine._asdict() == theirs._asdict()
        assert published.valid_bytes == durable.valid_bytes

    @invariant()
    def pinned_readers_are_at_their_keys(self):
        """A held reader still answers from the horizon it pinned."""
        for reader in self.readers:
            assert reader.snapshot.pins >= 1
            assert reader.snapshot.engine.relabel_count == 0


def _machine_for(backend, quick):
    """The state machine's test case over *backend*.  Its example
    budget is the selected hypothesis profile's (CI runs
    ``--hypothesis-profile=crash-matrix``: 500), and *quick* — what
    tier-1 can afford on that medium — when none was selected."""
    machine = type(f"AdvanceMachine_{backend}", (AdvanceMachine,),
                   {"backend_name": backend})
    budget = settings().max_examples
    if budget == settings.get_profile("default").max_examples:
        budget = quick
    case = machine.TestCase
    case.settings = settings(max_examples=budget, deadline=None,
                             stateful_step_count=25)
    return case


TestAdvancedEqualsRecoveredMemory = _machine_for("memory", quick=20)
TestAdvancedEqualsRecoveredFile = _machine_for("file", quick=12)
TestAdvancedEqualsRecoveredSqlite = _machine_for("sqlite", quick=12)


# ----------------------------------------------------------------------
# Deterministic cases.


def add_author(name):
    def mutate(engine, session):
        library = engine.children(engine.document)[0]
        book = engine.children(library)[0]
        author = engine.insert_child(
            book, len(engine.children(book)), name=QName("", "author"))
        engine.insert_child(author, 0, text=name)
    return mutate


def commit(server, name):
    with server.open_session("write") as writer:
        writer.execute(add_author(name))


@pytest.fixture(params=["memory", "file", "sqlite"])
def server(request):
    directory = tempfile.mkdtemp(prefix="advance-", dir=SCRATCH)
    backend = make_backend(request.param, directory)
    with DatabaseServer(backend, parse_document(LIBRARY),
                        workers=1) as server:
        yield server
    backend.close()
    shutil.rmtree(directory, ignore_errors=True)


def counter(name):
    return obs.REGISTRY.value(f"server.snapshot.{name}")


class TestWhichPathAPinTakes:
    def test_a_released_snapshot_is_advanced_not_rebuilt(self, server):
        server.open_session("read").close()
        assert counter("materializations") == 1
        commit(server, "Dee")
        with server.open_session("read") as reader:
            assert "Dee" in reader.query_values(AUTHORS)
            assert reader.snapshot.relabels == 0
        assert counter("materializations") == 1
        assert counter("advances") == 1
        assert server.snapshots.cached() == 1

    def test_the_advanced_snapshot_keeps_its_engine_and_plans(
            self, server):
        with server.open_session("read") as first:
            engine = first.snapshot.engine
            queries = first.snapshot.queries()
            assert len(first.query_values(AUTHORS)) == 3
        commit(server, "Dee")
        with server.open_session("read") as second:
            assert second.snapshot.engine is engine
            assert second.snapshot.queries() is queries
            assert len(second.query_values(AUTHORS)) == 4

    def test_a_pinned_snapshot_stays_frozen_while_a_sibling_advances(
            self, server):
        held = server.open_session("read")
        server.open_session("read").close()  # same key: a cache hit
        commit(server, "Dee")
        # The only cached snapshot is pinned: this miss recovers ...
        spare = server.open_session("read")
        assert spare.snapshot is not held.snapshot
        assert counter("materializations") == 2
        spare.close()
        frozen = [d.nid.symbols() for d
                  in held.snapshot.engine.iter_document_order()]
        held_key = held.snapshot.key
        # ... and from now on the released sibling is the spare that
        # every new horizon advances, under the held reader's nose.
        for name in ("Eve", "Fay", "Gus"):
            commit(server, name)
            with server.open_session("read") as reader:
                assert name in reader.query_values(AUTHORS)
                assert reader.snapshot is spare.snapshot
        assert counter("materializations") == 2
        assert counter("advances") == 3
        assert held.snapshot.key == held_key
        assert [d.nid.symbols() for d
                in held.snapshot.engine.iter_document_order()] == frozen
        assert len(held.query_values(AUTHORS)) == 3
        held.close()

    def test_a_long_lived_reader_costs_one_recover_not_one_per_commit(
            self, server, monkeypatch):
        calls = []
        real = snapshots_module.recover
        monkeypatch.setattr(
            snapshots_module, "recover",
            lambda backend: calls.append(1) or real(backend))
        held = server.open_session("read")
        assert len(calls) == 1  # set-up: the first pin
        for round_number in range(6):
            commit(server, f"W{round_number}")
            with server.open_session("read") as short:
                assert f"W{round_number}" in short.query_values(AUTHORS)
        assert len(calls) == 2  # one spare beside the held reader
        assert counter("advances") == 5
        held.close()

    def test_advance_across_a_checkpoint(self, server):
        server.open_session("read").close()
        commit(server, "Dee")
        server.open_session("read").close()  # now at the log's end
        server.checkpoint_now()
        commit(server, "Eve")
        with server.open_session("read") as reader:
            values = reader.query_values(AUTHORS)
            assert "Dee" in values and "Eve" in values
            assert reader.snapshot.checkpoint_lsn > 0
            assert_equivalent(reader.snapshot.engine,
                              recover(server.backend).engine)
        assert counter("materializations") == 1
        assert counter("advances") == 2

    def test_back_to_back_checkpoints_still_advance(self, server):
        """No commit between two checkpoints: the second log's
        checkpoint LSN is the first one's marker, which carries no
        work — a snapshot taken in between is not behind it."""
        server.checkpoint_now()
        server.open_session("read").close()
        server.checkpoint_now()
        commit(server, "Dee")
        with server.open_session("read") as reader:
            assert "Dee" in reader.query_values(AUTHORS)
        assert counter("materializations") == 1
        assert counter("advances") == 1

    def test_a_base_older_than_the_checkpoint_falls_back(self, server):
        """The commit the base lacks went into the image and left the
        log with the reset: nothing to advance it by."""
        server.open_session("read").close()
        commit(server, "Dee")
        server.checkpoint_now()
        commit(server, "Eve")
        with server.open_session("read") as reader:
            values = reader.query_values(AUTHORS)
            assert "Dee" in values and "Eve" in values
        assert counter("materializations") == 2
        assert counter("advances") == 0

    def test_an_abort_before_the_checkpoint_falls_back_too(self, server):
        """Conservative: the checkpoint LSN lies beyond the base's
        horizon, and that the records in between were an aborted
        transaction's is no longer in the log to see."""
        server.open_session("read").close()

        def abandon(engine, session):
            add_author("never")(engine, session)
            raise Abandon()
        with server.open_session("write") as writer:
            with pytest.raises(Abandon):
                writer.execute(abandon)
        server.checkpoint_now()
        commit(server, "Dee")
        with server.open_session("read") as reader:
            values = reader.query_values(AUTHORS)
            assert "Dee" in values and "never" not in values
        assert counter("materializations") == 2
        assert counter("advances") == 0

    def test_a_torn_tail_is_invisible(self, server):
        server.open_session("read").close()
        commit(server, "Dee")
        store = server.backend.wal_store()
        # Half a frame, as a writer dying mid-append leaves it.
        store.append(b"\x40\x00\x00\x00\x12\x34")
        with server.open_session("read") as reader:
            key = reader.snapshot.key
            assert "Dee" in reader.query_values(AUTHORS)
        with server.open_session("read") as again:
            assert again.snapshot.key == key  # re-read, still torn
        assert counter("advances") == 1
        assert counter("cache_hits") == 1

    def test_a_failed_advance_drops_the_spare_and_recovers(
            self, server, monkeypatch):
        server.open_session("read").close()
        commit(server, "Dee")

        def broken(*args, **kwargs):
            raise StorageError("injected")
        monkeypatch.setattr(snapshots_module, "replay", broken)
        with server.open_session("read") as reader:
            assert "Dee" in reader.query_values(AUTHORS)
        assert counter("advances") == 0
        assert counter("materializations") == 2
        assert server.snapshots.cached() == 1

    def test_session_report_shows_both_paths(self, server):
        server.open_session("read").close()
        commit(server, "Dee")
        server.open_session("read").close()
        assert counter("materializations") == 1
        assert counter("advances") == 1
        records = obs.REGISTRY.histogram(
            "server.snapshot.advance.records").summary()
        assert records["count"] == 1
        assert records["max"] == 2


def swap_first_two(block):
    """Exchange the first two descriptors of *block*'s order chain by
    relinking their short pointers — behind the block's back, as a
    stray write would: count and owners stay right, the order breaks."""
    first = block.slots[block.first_slot]
    second = block.slots[first.next_in_block]
    after = second.next_in_block
    block.first_slot = second.slot
    second.prev_in_block, second.next_in_block = NO_SLOT, first.slot
    first.prev_in_block, first.next_in_block = second.slot, after
    if after == NO_SLOT:
        block.last_slot = first.slot
    else:
        block.slots[after].prev_in_block = first.slot


def add_author_to(book_number, index, name):
    """Insert an author named *name* at child *index* of the
    *book_number*-th book."""
    def mutate(engine, session):
        library = engine.children(engine.document)[0]
        book = engine.children(library)[book_number]
        author = engine.insert_child(book, index, name=QName("", "author"))
        engine.insert_child(author, 0, text=name)
    return mutate


def delete_first_author_of(book_number):
    def mutate(engine, session):
        library = engine.children(engine.document)[0]
        book = engine.children(library)[book_number]
        engine.delete_subtree(engine.children(book)[1])
    return mutate


class TestAdvanceCost:
    """The advance re-checks what its records changed: a block whose
    chain did not change keeps its verdict and is not walked again."""

    def test_one_insert_walks_only_the_blocks_it_changed(
            self, monkeypatch):
        """On a 300-book library a walk of every block of the touched
        schema nodes reads 1,186 descriptors here; the bound (278) is
        the changed blocks' capacity plus one per block."""
        document = make_library_document(books=300, papers=0, seed=7)
        with DatabaseServer(MemoryBackend(), document,
                            workers=1) as server:
            server.open_session("read").close()
            commit(server, "Dee")
            real_walk = Block.iter_in_order
            real_check = StorageEngine.check_invariants
            scopes, reads = [], []

            def walk(block):
                for descriptor in real_walk(block):
                    if scopes and scopes[-1] is not None:
                        reads.append(descriptor)
                    yield descriptor

            def check(engine, touched=None):
                scopes.append(touched)
                try:
                    real_check(engine, touched)
                finally:
                    scopes.pop()
            monkeypatch.setattr(Block, "iter_in_order", walk)
            monkeypatch.setattr(StorageEngine, "check_invariants", check)
            with server.open_session("read") as reader:
                assert "Dee" in reader.query_values(AUTHORS)
                engine = reader.snapshot.engine
            assert counter("advances") == 1
            touched = [d for d in engine.iter_document_order()
                       if engine.string_value(d) == "Dee"]
            schema_nodes = {d.schema_node for d in touched}
            assert len(touched) == len(schema_nodes) == 2
            changed = len({d.block for d in touched}) + engine.split_count
            blocks = sum(node.block_count() for node in schema_nodes)
            assert blocks >= 10
            assert 0 < len(reads) <= \
                engine.block_capacity * changed + blocks

    @pytest.mark.parametrize("change", ["insert", "delete", "split"])
    def test_a_changed_block_broken_before_the_check_refuses_the_advance(
            self, monkeypatch, change):
        """Between replay and check, the order inside one block the
        replay changed is broken: the advance must see it, drop the
        spare and leave the pin to recover().  Four descriptors to a
        block: the authors Ann (first book), Bob and Cy (second book)
        share one.  *insert* adds to it, *delete* takes Bob out,
        *split* inserts between Bob and Cy once Dee has filled the
        block — the new author lands in the new half, and the broken
        block is the old half, which only the split changed."""
        backend = MemoryBackend()
        with DatabaseServer(backend, parse_document(LIBRARY), workers=1,
                            block_capacity=4) as server:
            server.open_session("read").close()
            if change == "split":
                commit(server, "Dee")
                server.open_session("read").close()
            mutate = {"insert": add_author_to(0, 2, "Eve"),
                      "delete": delete_first_author_of(1),
                      "split": add_author_to(1, 2, "Eve")}[change]
            with server.open_session("write") as writer:
                writer.execute(mutate)
            advances = counter("advances")
            materializations = counter("materializations")
            real = snapshots_module.replay

            def breaking(engine, *args):
                done = real(engine, *args)
                authors = engine.schema.find_path("library/book/author")
                if change == "split":
                    assert authors.block_count() == 2
                swap_first_two(authors.first_block)
                return done
            monkeypatch.setattr(snapshots_module, "replay", breaking)
            with server.open_session("read") as reader:
                values = reader.query_values(AUTHORS)
                assert ("Bob" in values) == (change != "delete")
                assert ("Eve" in values) == (change != "delete")
                assert_equivalent(reader.snapshot.engine,
                                  recover(backend).engine)
            assert counter("advances") == advances
            assert counter("materializations") == materializations + 1

    def test_a_looping_sibling_chain_under_a_touched_parent(
            self, monkeypatch):
        """The scoped check bounds a touched parent's sibling chain by
        the descriptors of its schema children, not by a walk of the
        whole descriptive schema — and a chain that loops is still
        refused within that bound."""
        engine = StorageEngine(block_capacity=4)
        engine.load_document(parse_document(LIBRARY))
        library = engine.children(engine.document)[0]
        first, *_, last = engine.children(library)

        def forbidden(self):
            raise AssertionError("node_count() walked the schema")
        monkeypatch.setattr(StorageEngine, "node_count", forbidden)
        engine.check_invariants([last])
        last.right_sibling = first
        with pytest.raises(StorageError, match="does not end within"):
            engine.check_invariants([last])


class TestPinGauges:
    def test_the_gauges_are_the_summed_pins(self):
        """After every step of a random pin / release / commit
        sequence, the pinned gauge is the pins summed over the cached
        snapshots and the cached gauge their number."""
        rng = random.Random(11)
        with DatabaseServer(MemoryBackend(), parse_document(LIBRARY),
                            workers=1) as server:
            manager = server.snapshots
            held = []
            for step in range(200):
                roll = rng.random()
                if roll < 0.1:
                    commit(server, f"W{step}")
                elif roll < 0.55 or not held:
                    held.append(manager.pin())
                else:
                    manager.release(held.pop(rng.randrange(len(held))))
                pins = sum(s.pins for s in manager._cache.values())
                assert pins == len(held) == manager.pinned()
                assert obs.REGISTRY.value("server.snapshot.pinned") == pins
                assert obs.REGISTRY.value(
                    "server.snapshot.cached") == manager.cached()
            for snapshot in held:
                manager.release(snapshot)
            assert manager.pinned() == 0
            assert obs.REGISTRY.value("server.snapshot.pinned") == 0


class TestIncrementalKey:
    def test_key_follows_the_log_without_rescanning_it(self, server,
                                                       monkeypatch):
        """The server's manager follows the records the writer
        published: once the first pin has recovered, a pin hit, a
        commit and an advance neither load the log's store nor scan
        it.  A standalone manager, which scans the store for every
        key, agrees."""
        manager = server.snapshots
        manager.release(manager.pin())  # the first pin: recover()

        def forbidden(*args, **kwargs):
            raise AssertionError("the log was read back")
        monkeypatch.setattr(type(server.backend.wal_store()), "load",
                            forbidden)
        monkeypatch.setattr(snapshots_module, "read_wal_store",
                            forbidden)
        manager.release(manager.pin())
        assert counter("cache_hits") == 1
        commit(server, "Dee")   # BEGIN, 2 inserts, COMMIT
        snapshot = manager.pin()
        assert counter("advances") == 1
        assert counter("materializations") == 1
        key = manager.current_key()
        assert snapshot.key == key
        assert "Dee" in [snapshot.engine.string_value(d) for d
                         in snapshot.engine.iter_document_order()]
        manager.release(snapshot)
        monkeypatch.undo()
        assert SnapshotManager(server.backend).current_key() == key

    def test_a_reset_log_starts_the_scan_over(self, server):
        manager = server.snapshots
        commit(server, "Dee")
        before = manager.current_key()
        server.checkpoint_now()
        after = manager.current_key()
        assert after[0] == before[1]  # image covers the old horizon
        assert after == SnapshotManager(server.backend).current_key()

    def test_interleaved_transactions_fall_back(self):
        """Records of a transaction that commits *after* another one's
        COMMIT lie below the horizon a snapshot may be at; replaying
        beyond the horizon would miss them, so the spare is passed
        over and recover() — which orders by LSN — builds the view."""
        backend = MemoryBackend()
        with DatabaseServer(backend, parse_document(LIBRARY),
                            workers=1) as server:
            wal = server.wal
            engine = server.engine
            library = engine.children(engine.document)[0]
            # Hand-written log: T1 logs an insert, T2 commits, T1 commits.
            t1, t2 = 101, 102
            label_1 = engine.numbering.child_label(
                library.nid, engine.children(library)[-1].nid, None)
            wal.append_begin(t1)
            wal.append_insert_element(
                t1, library.nid, len(engine.children(library)),
                QName("", "late"), label_1)
            wal.append_begin(t2)
            wal.append_commit(t2)
            spare = SnapshotManager(backend)
            spare.release(spare.pin())  # at T2's COMMIT, without T1
            wal.append_commit(t1)
            snapshot = spare.pin()
            assert_equivalent(snapshot.engine, recover(backend).engine)
            assert counter("advances") == 0
            assert counter("materializations") == 2


    def test_committed_is_decided_by_id_exactly_as_recover_does(self):
        """recover() replays every record whose transaction *id* has a
        COMMIT in the log — also one logged under a reused id after
        it.  Whatever one thinks of that rule, key and advance follow
        it to the letter: the oracle is recover()."""
        backend = MemoryBackend()
        with DatabaseServer(backend, parse_document(LIBRARY),
                            workers=1) as server:
            manager = server.snapshots
            commit(server, "Dee")  # transaction id 1, committed
            manager.release(manager.pin())
            engine = server.engine
            library = engine.children(engine.document)[0]
            label = engine.numbering.child_label(
                library.nid, engine.children(library)[-1].nid, None)
            lsn = server.wal.append_insert_element(
                1, library.nid, len(engine.children(library)),
                QName("", "reused"), label)
            assert manager.current_key()[1] == lsn
            snapshot = manager.pin()
            assert_equivalent(snapshot.engine, recover(backend).engine)
            assert counter("advances") == 1


class TestReopenWithoutACheckpoint:
    """A server opened on a backend alone starts from ``recover()`` —
    the image plus the log's committed suffix — and numbers its
    transactions after the log's."""

    @pytest.mark.parametrize("name", ["memory", "file", "sqlite"])
    def test_reopen_replays_the_log_and_continues_its_ids(self, name):
        directory = tempfile.mkdtemp(prefix="reopen-", dir=SCRATCH)
        try:
            backend = make_backend(name, directory)
            with DatabaseServer(backend, parse_document(LIBRARY),
                                workers=1) as server:
                commit(server, "Dee")
                logged = server.wal.last_txn
                assert logged >= 1
            # Closed without a checkpoint: "Dee" is in the log only.
            if name != "memory":
                backend.close()
                backend = make_backend(name, directory)
            with DatabaseServer(backend, workers=1) as server:
                with server.open_session("read") as reader:
                    assert "Dee" in reader.query_values(AUTHORS)
                with server.open_session("write") as writer:
                    # An open transaction's records share no id with a
                    # committed one (its BEGIN carries the log's next
                    # id): invisible before their COMMIT ...
                    def check_then_add(engine, session):
                        assert [r.txn for r in server.wal.scan.records
                                if r.kind == BEGIN][-1] == logged + 1
                        add_author("Eve")(engine, session)
                        assert "Eve" not in [
                            engine.string_value(d) for d in
                            recover(backend).engine.iter_document_order()]
                        with server.open_session("read") as reader:
                            assert "Eve" not in \
                                reader.query_values(AUTHORS)
                    writer.execute(check_then_add)
                # ... and both commits after it.
                recovered = recover(backend)
                assert recovered.relabels == 0
                assert_equivalent(server.engine, recovered.engine)
                with server.open_session("read") as reader:
                    authors = reader.query_values(AUTHORS)
                assert authors.count("Dee") == 1 \
                    and authors.count("Eve") == 1
            backend.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestAdvanceRaces:
    """The advance reads one scan under the manager lock: a commit or
    checkpoint that lands around it changes the *next* pin, never the
    contents of this one."""

    def test_a_commit_racing_the_advance_is_not_in_it(self, server,
                                                      monkeypatch):
        server.open_session("read").close()
        commit(server, "Dee")
        real = snapshots_module.replay
        raced = []

        def racing(*args, **kwargs):
            if not raced:
                raced.append(1)
                commit(server, "RACER")  # lands mid-advance
            return real(*args, **kwargs)
        monkeypatch.setattr(snapshots_module, "replay", racing)
        with server.open_session("read") as reader:
            values = reader.query_values(AUTHORS)
            assert "Dee" in values and "RACER" not in values
            assert reader.snapshot.key != server.snapshots.current_key()
        with server.open_session("read") as later:
            assert "RACER" in later.query_values(AUTHORS)
            assert later.snapshot.key == server.snapshots.current_key()
            assert_equivalent(later.snapshot.engine,
                              recover(server.backend).engine)
        assert counter("materializations") == 1
        assert counter("advances") == 2

    def test_a_checkpoint_racing_the_advance_is_harmless(
            self, server, monkeypatch):
        server.open_session("read").close()
        commit(server, "Dee")
        real = snapshots_module.replay
        raced = []

        def racing(*args, **kwargs):
            if not raced:
                raced.append(1)
                # New image, reset log — under the advancing reader.
                server.checkpoint_now()
            return real(*args, **kwargs)
        monkeypatch.setattr(snapshots_module, "replay", racing)
        with server.open_session("read") as reader:
            assert "Dee" in reader.query_values(AUTHORS)
            assert reader.snapshot.relabels == 0
            advanced_key = reader.snapshot.key
        # The snapshot sits at the old log's last COMMIT, which is
        # what the new image covers: the next pin carries it across.
        with server.open_session("read") as later:
            assert later.snapshot.key == server.snapshots.current_key()
            assert later.snapshot.key != advanced_key
            assert_equivalent(later.snapshot.engine,
                              recover(server.backend).engine)
        assert counter("materializations") == 1
        assert counter("advances") == 2


class TestFallbackRace:
    def test_a_commit_stored_but_unpublished_is_not_keyed_below(
            self, server, monkeypatch):
        """Held at the ``wal.fsync`` point of its COMMIT, the writer has
        put the frame in the store and not yet published it.  A pin
        that must recover() on the writer's own thread (the write
        latch is re-entrant) reads that COMMIT from the store: keyed
        from the manager's view it would hold the transaction under
        the older key.  Keyed from the log recover() read, it holds
        the commit under the key the writer is about to publish."""
        manager = server.snapshots
        real_fire = faults.fire
        held = []

        def fire(point):
            real_fire(point)
            if point == "wal.commit":
                held.append(point)
            elif point == "wal.fsync" and held == ["wal.commit"]:
                held.append(manager.current_key())
                held.append(manager.pin())
        monkeypatch.setattr(faults, "fire", fire)
        commit(server, "Dee")
        monkeypatch.undo()
        _, before, pinned = held
        assert counter("materializations") == 1
        assert "Dee" in pinned.engine.string_values(
            pinned.queries().evaluate(AUTHORS))
        assert pinned.key == manager.current_key() != before
        manager.release(pinned)
        with server.open_session("read") as reader:
            assert reader.snapshot is pinned
            assert "Dee" in reader.query_values(AUTHORS)
        assert counter("cache_hits") == 1
        assert counter("materializations") == 1


class TestAdvanceUnderThreads:
    def test_no_pinned_snapshot_is_ever_advanced(self):
        """More reader threads than cores open, query, re-query and
        close while a writer commits, with the interpreter switching
        threads every 10 us.  Each commit appends one author, so a
        session's two answers differ exactly if its engine was moved
        forward under its pin — the lost update this would be."""
        readers, rounds = 6, 40
        torn, errors = [], []
        stop = threading.Event()

        def read(server):
            try:
                seen = 0
                while not stop.is_set():
                    with server.open_session("read") as session:
                        first = session.query_values(AUTHORS)
                        time.sleep(0)  # invite a switch mid-session
                        if session.query_values(AUTHORS) != first:
                            torn.append(session.snapshot.version)
                        if len(first) < seen:
                            torn.append("went backwards")
                        seen = len(first)
            except BaseException as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DatabaseServer(MemoryBackend(), parse_document(LIBRARY),
                                workers=1, max_sessions=64) as server:
                threads = [threading.Thread(target=read, args=(server,))
                           for _ in range(readers)]
                for thread in threads:
                    thread.start()
                try:
                    for number in range(rounds):
                        commit(server, f"W{number}")
                        if number % 10 == 9:
                            server.checkpoint_now()
                        # Paced, so that sessions open and close
                        # between commits and misses find a spare.
                        time.sleep(0.002)
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=30.0)
                assert not any(t.is_alive() for t in threads)
                assert errors == [] and torn == []
                with server.open_session("read") as final:
                    assert len(final.query_values(AUTHORS)) == 3 + rounds
                    assert_equivalent(final.snapshot.engine,
                                      recover(server.backend).engine)
                assert counter("advances") > 0
        finally:
            sys.setswitchinterval(interval)
