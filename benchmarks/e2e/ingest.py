"""``ingest``: the paper's own pipeline, one document at a time.

Per document: ``parse_schema`` -> ``parse_document`` ->
``document_to_tree`` (the validating map *f*) ->
``ConformanceChecker.check`` (section 6.2, items 1-7) ->
``StorageEngine.load_tree`` (section 9 blocks and labels) ->
``backend.checkpoint`` -> ``recover(backend)`` -> ``tree_to_document``
plus ``serialize_document`` (*g*) -> ``content_equal`` (the section 8
theorem).  The backend is opened before and closed after the timed
pipeline.  A segment is six XML texts generated from ``seed`` and the
segment number: four Example-8 libraries of growing size, one
Example-7 bookstore (a namespace), and one invalid library that must
be rejected.  Even documents go to a FileBackend, odd ones to a
SqliteBackend.  No query or server code runs: this is the workload on
which every query- or server-side optimisation must show no change.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path

from repro.algebra import ConformanceChecker
from repro.errors import ValidationError
from repro.mapping import content_equal, document_to_tree, tree_to_document
from repro.schema import parse_schema
from repro.storage import FileBackend, SqliteBackend, StorageEngine, recover
from repro.workloads import make_bookstore_document, make_library_document
from repro.workloads.fixtures import EXAMPLE_7_SCHEMA, LIBRARY_SCHEMA
from repro.xmlio import parse_document, serialize_document

from benchmarks.e2e.meter import FAILED, Meter, Workload

_clock = time.perf_counter_ns

SIZES = {
    # books + papers of each library; books of the bookstore; the
    # invalid library's books + papers.
    "full": dict(libraries=(100, 200, 350, 500), bookstore=50,
                 invalid=100),
    "smoke": dict(libraries=(6, 10, 16, 24), bookstore=6, invalid=8),
}

#: Ways to break a valid library text; each must be refused.
DEFECTS = (
    ("<title>", "<author>Misplaced</author><title>"),  # order (5.4.2)
    ("<year>", "<year>x"),                             # gYear (5.1.1)
    ("</book>", "<isbn>0</isbn></book>"),              # undeclared child
)


class IngestWorkload(Workload):
    name = "ingest"
    primary = "ingest_doc"

    def __init__(self, name: str, seed: int, scale: str,
                 workdir) -> None:
        self.seed = seed
        self.sizes = SIZES[scale]
        self.workdir = workdir
        self.dir = None
        self.first: list[tuple] = []
        #: Per valid document: (nodes, ingest ns, export ns, total ns).
        self.documents: list[tuple[int, int, int, int]] = []
        self.image_bytes = 0
        self.text_bytes = 0
        self.blocks = 0
        self.relabels = 0

    def setup(self) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="ingest-",
                                         dir=self.workdir))
        self.first = self._texts(0)

    def _texts(self, index: int) -> list[tuple[str, str, bool]]:
        """The segment's inputs: (schema text, XML text, valid?)."""
        seed = self.seed + index
        rng = random.Random(f"{self.seed}/ingest/{index}")
        texts = []
        for entries in self.sizes["libraries"]:
            document = make_library_document(
                books=entries // 2, papers=entries // 2,
                seed=seed + entries)
            texts.append((LIBRARY_SCHEMA,
                          serialize_document(document), True))
        texts.append((EXAMPLE_7_SCHEMA, serialize_document(
            make_bookstore_document(books=self.sizes["bookstore"],
                                    seed=seed)), True))
        entries = self.sizes["invalid"]
        valid = serialize_document(make_library_document(
            books=entries // 2, papers=entries // 2, seed=seed))
        find, replace = rng.choice(DEFECTS)
        places = valid.count(find)
        cut = _nth(valid, find, rng.randrange(places // 2, places))
        texts.append((LIBRARY_SCHEMA,
                      valid[:cut] + replace + valid[cut + len(find):],
                      False))
        return texts

    def warm(self, meter: Meter) -> None:
        """Nothing is cached between documents; the two smallest run
        once, one per backend, so the first timed document pays
        neither for lazy imports nor for a heap that has never grown."""
        for number, (schema, text, _) in enumerate(self.first[:2]):
            backend = self._backend(self.dir / f"warm{number}", number)
            try:
                self._pipeline(schema, text, backend)
            finally:
                backend.close()

    @staticmethod
    def _backend(stem: Path, number: int):
        """Even documents go to a file image, odd ones to SQLite."""
        return (SqliteBackend(stem.with_suffix(".db")) if number % 2
                else FileBackend(stem.with_suffix(".img")))

    # -- one document -------------------------------------------------------

    def _pipeline(self, schema_text: str, text: str, backend):
        """Text to durable image and back.  Returns what the driver
        checks after the timestamp, or — for a document that *f* or
        the section 6.2 check refuses — the list of reasons."""
        started = _clock()
        schema = parse_schema(schema_text)
        document = parse_document(text)
        try:
            tree = document_to_tree(document, schema)
        except ValidationError as refusal:
            return [refusal]
        violations = ConformanceChecker(schema).check(tree)
        if violations:
            return violations
        engine = StorageEngine()
        engine.load_tree(tree)
        info = backend.checkpoint(engine)
        durable = _clock()
        recovered = recover(backend)
        recovered_at = _clock()
        exported = tree_to_document(tree)
        serialize_document(exported)
        same = content_equal(exported, document)
        done = _clock()
        return (engine, recovered, info.bytes, same,
                durable - started, done - recovered_at)

    def segment(self, index: int, meter: Meter) -> int:
        texts = self.first if index == 0 else self._texts(index)
        nodes_durable = 0
        for number, (schema, text, valid) in enumerate(texts):
            backend = self._backend(self.dir / f"s{index}d{number}",
                                    number)
            before = meter.busy_ns
            try:
                result = meter.request("ingest_doc", self._pipeline,
                                       schema, text, backend)
            finally:
                backend.close()
            if result is FAILED:
                continue
            refused = isinstance(result, list)
            meter.check(refused, not valid,
                        f"document {number}: "
                        + (f"refused: {result[0]}" if refused
                           else "the invalid document was accepted"))
            if refused:
                continue
            engine, recovered, image, same, ingest_ns, export_ns = result
            nodes = engine.node_count()
            meter.check(same, True, "g(f(X)) is not content-equal to X")
            meter.check(recovered.engine.node_count(), nodes,
                        "recovered node count")
            meter.check(recovered.relabels, 0,
                        "recovery relabelled nodes (Proposition 1)")
            self.documents.append((nodes, ingest_ns, export_ns,
                                   meter.busy_ns - before))
            self.image_bytes += image
            self.text_bytes += len(text.encode("utf-8"))
            self.blocks += engine.block_count()
            self.relabels += recovered.relabels
            nodes_durable += nodes
        for leftover in self.dir.iterdir():
            if leftover.is_dir():
                shutil.rmtree(leftover)
            else:
                leftover.unlink()
        return nodes_durable

    def facts(self) -> dict[str, float]:
        ingest = sum(d[1] for d in self.documents)
        export = sum(d[2] for d in self.documents)
        nodes = sum(d[0] for d in self.documents)
        return {
            "driver.ingest.nodes_per_s":
                nodes * 1e9 / ingest if ingest else 0.0,
            "driver.export.nodes_per_s":
                nodes * 1e9 / export if export else 0.0,
            "driver.space_amp":
                self.image_bytes / self.text_bytes
                if self.text_bytes else 0.0,
            "storage.engine.blocks": self.blocks,
            "storage.relabels": self.relabels,
        }

    def primary_count(self, meter: Meter) -> int:
        return len(self.documents)

    def primary_latencies_us(self, meter: Meter,
                             start: int) -> list[float]:
        """Per valid document, the pipeline's time per node (the
        workload's operation is one node made durable)."""
        return [total / nodes / 1e3
                for nodes, _, _, total in self.documents[start:]]

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


def _nth(text: str, find: str, n: int) -> int:
    """Offset of the *n*-th (0-based) occurrence of *find*."""
    position = -1
    for _ in range(n + 1):
        position = text.index(find, position + 1)
    return position
