"""Scale and robustness checks: deep, wide and large documents."""

import sys

import pytest

from repro.mapping import (
    content_equal,
    tree_to_document,
    untyped_document_to_tree,
)
from repro.order import document_order
from repro.query import evaluate_tree
from repro.server import DatabaseServer
from repro.storage import (
    FileBackend,
    MemoryBackend,
    SqliteBackend,
    StorageEngine,
    recover,
)
from repro.storage.dschema import SchemaNode
from repro.xmlio import QName, parse_document, serialize_document
from repro.workloads import make_library_document


def _deep_document(depth: int) -> str:
    opening = "".join(f"<e{i}>" for i in range(depth))
    closing = "".join(f"</e{i}>" for i in reversed(range(depth)))
    return f"{opening}leaf{closing}"


def _wide_document(width: int) -> str:
    children = "".join(f"<c>{i}</c>" for i in range(width))
    return f"<r>{children}</r>"


class TestDeepDocuments:
    DEPTH = 400

    def test_parse_and_model(self):
        tree = untyped_document_to_tree(
            parse_document(_deep_document(self.DEPTH)))
        assert len(document_order(tree)) == self.DEPTH + 2

    def test_storage(self):
        engine = StorageEngine()
        engine.load_document(parse_document(_deep_document(self.DEPTH)))
        engine.check_invariants()
        assert engine.node_count() == self.DEPTH + 2
        # The deepest label has one component per level.
        deepest = max(engine.iter_document_order(),
                      key=lambda d: d.nid.depth)
        assert deepest.nid.depth == self.DEPTH + 2

    def test_roundtrip(self):
        document = parse_document(_deep_document(self.DEPTH))
        tree = untyped_document_to_tree(document)
        assert content_equal(tree_to_document(tree), document)

    # A chain deeper than the interpreter's recursion limit, committed
    # by one transaction: every durable and query step after it walks
    # with its own stack, so the committed store stays usable.

    CHAIN = 1200

    @pytest.fixture(params=["memory", "file", "sqlite"])
    def chain_server(self, request, tmp_path):
        assert sys.getrecursionlimit() < self.CHAIN
        backend = {
            "memory": MemoryBackend,
            "file": lambda: FileBackend(tmp_path / "deep.img",
                                        wal_path=tmp_path / "deep.wal"),
            "sqlite": lambda: SqliteBackend(tmp_path / "deep.db"),
        }[request.param]()
        server = DatabaseServer(backend, parse_document("<a/>"),
                                workers=1, lease_ttl=60.0)

        def insert_chain(engine, session):
            node = engine.children(engine.document)[0]
            for _ in range(self.CHAIN):
                node = engine.insert_child(node, 0, name=QName("", "a"))
            engine.insert_child(node, 0, text="leaf")

        with server.open_session("write") as writer:
            writer.execute(insert_chain)
        yield server
        server.close()

    @staticmethod
    def _chain_top(engine):
        """The first ``a`` the transaction inserted."""
        return engine.children(engine.children(engine.document)[0])[0]

    def _assert_chain(self, engine):
        assert engine.node_count() == self.CHAIN + 3
        assert engine.string_value(self._chain_top(engine)) == "leaf"
        engine.check_invariants()

    def test_deep_chain_checkpoints(self, chain_server):
        chain_server.checkpoint_now()
        self._assert_chain(recover(chain_server.backend).engine)

    def test_deep_chain_checkpoint_walks_each_path_once(
            self, chain_server, monkeypatch):
        """A schema path is built once, not walked up to the root on
        every ask: quadratic in depth, a checkpoint of the chain took
        about 1.44 M ``step`` calls."""
        calls = []
        step = SchemaNode.step.fget

        def counted(node):
            calls.append(node)
            return step(node)

        monkeypatch.setattr(SchemaNode, "step", property(counted))
        chain_server.checkpoint_now()
        monkeypatch.undo()
        assert len(calls) <= 2 * chain_server.engine.schema.node_count()

    def test_deep_chain_recovers(self, chain_server):
        result = recover(chain_server.backend)
        assert result.replayed == self.CHAIN + 1
        self._assert_chain(result.engine)

    def test_deep_chain_reopens(self, chain_server):
        chain_server.checkpoint_now()
        chain_server.close()
        with DatabaseServer(chain_server.backend, workers=1) as reopened:
            self._assert_chain(reopened.engine)

    def test_deep_chain_pinned_reader(self, chain_server):
        with chain_server.open_session("read") as reader:
            assert len(reader.query("//a")) == self.CHAIN + 1

    def test_deep_chain_string_value(self, chain_server):
        engine = chain_server.engine
        assert engine.string_value(self._chain_top(engine)) == "leaf"
        assert engine.string_value(engine.document) == "leaf"

    def test_deep_chain_deletes_and_recovers(self, chain_server):
        with chain_server.open_session("write") as writer:
            removed = writer.execute(lambda engine, session:
                                     engine.delete_subtree(
                                         self._chain_top(engine)))
        assert removed == self.CHAIN + 1
        engine = recover(chain_server.backend).engine
        assert engine.node_count() == 2
        engine.check_invariants()


class TestWideDocuments:
    WIDTH = 5000

    def test_parse_and_query(self):
        tree = untyped_document_to_tree(
            parse_document(_wide_document(self.WIDTH)))
        assert len(evaluate_tree(tree, "/r/c")) == self.WIDTH
        assert len(evaluate_tree(tree, "/r/c[5000]")) == 1

    def test_storage_blocks_chain(self):
        engine = StorageEngine(block_capacity=32)
        engine.load_document(parse_document(_wide_document(self.WIDTH)))
        engine.check_invariants()
        c = engine.schema.find_path("r/c")
        assert c.descriptor_count == self.WIDTH
        assert c.block_count() == (self.WIDTH + 31) // 32

    def test_sibling_labels_stay_single_digit_heavy(self):
        """Bulk-loaded labels spread evenly; with base 256 and 5000
        siblings the labels need two digits but stay short."""
        engine = StorageEngine()
        engine.load_document(parse_document(_wide_document(self.WIDTH)))
        r = engine.children(engine.document)[0]
        lengths = {len(child.nid) for child in engine.children(r)}
        assert max(lengths) <= 8


class TestLargeDocuments:
    def test_end_to_end_on_30k_nodes(self):
        document = make_library_document(books=1000, papers=1000, seed=1)
        text = serialize_document(document)
        reparsed = parse_document(text)
        tree = untyped_document_to_tree(reparsed)
        engine = StorageEngine()
        engine.load_document(reparsed)
        assert engine.schema.node_count() == 17
        titles_model = len(evaluate_tree(tree, "//title"))
        titles_storage = sum(
            1 for _ in engine.scan_schema_node(
                engine.schema.find_path("library/book/title")))
        titles_storage += sum(
            1 for _ in engine.scan_schema_node(
                engine.schema.find_path("library/paper/title")))
        assert titles_model == titles_storage == 2000

    def test_huge_text_node(self):
        payload = "x" * 1_000_000
        document = parse_document(f"<a>{payload}</a>")
        assert document.root.text_content() == payload
        engine = StorageEngine()
        engine.load_document(document)
        a = engine.children(engine.document)[0]
        assert len(engine.string_value(a)) == 1_000_000

    def test_many_attributes(self):
        attrs = " ".join(f'a{i}="{i}"' for i in range(500))
        document = parse_document(f"<e {attrs}/>")
        engine = StorageEngine()
        engine.load_document(document)
        e = engine.children(engine.document)[0]
        assert len(engine.attributes(e)) == 500
