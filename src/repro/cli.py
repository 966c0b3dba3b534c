"""Command-line interface.

Usage::

    python -m repro validate SCHEMA.xsd DOCUMENT.xml
    python -m repro lint SCHEMA.xsd
    python -m repro normalize SCHEMA.xsd
    python -m repro query DOCUMENT.xml PATH [--schema SCHEMA.xsd] [--json]
    python -m repro xquery DOCUMENT.xml QUERY [--schema SCHEMA.xsd]
    python -m repro inspect DOCUMENT.xml [--json]
    python -m repro explain DOCUMENT.xml PATH [--trace FILE] [--json]
    python -m repro metrics DOCUMENT.xml [--path PATH ...]
                            [--prom | --json]
    python -m repro checkpoint DOCUMENT.xml TARGET [--backend file|sqlite]
                               [--wal WAL] [--json]
    python -m repro recover TARGET [--backend file|sqlite] [--wal WAL]
                                   [--schema SCHEMA.xsd] [--strict] [--json]
    python -m repro snapshots TARGET [--backend file|sqlite]
                                     [--restore VERSION] [--json]
    python -m repro index DOCUMENT.xml PATH [--type TYPE]
                          [--eq V | --low L --high H]
                          [--query PATH] [--json]
    python -m repro session DOCUMENT.xml PATH [--mode read|write]
                            [--timeout SEC] [--json]

``validate`` applies the mapping f (Section 8) and reports the first
Section 6.2 requirement the document violates; ``lint`` runs the
static schema diagnostics; ``normalize`` prints the canonical form;
``query`` evaluates a path; ``inspect`` loads the document into the
Sedna-style storage and prints its descriptive schema as one
per-schema-node table (kind, rows, bytes, distinct values, min/max —
the statistics the cost-based planner prices from).

The observability views show one thing each: ``metrics`` scrapes
the metrics registry after a load-and-query run with diagnostics on
— readable, the Prometheus text exposition format (``--prom``) or
structured JSON with counters, gauges and histogram percentiles;
``explain`` evaluates a path twice — cold, then through the warmed
plan cache — and reports both plans, with ``--trace`` also writing
the spans of those two evaluations as Chrome-trace-viewer JSON.

``checkpoint`` loads a document and persists it atomically through a
storage backend — the historical image file (plus an empty
write-ahead log with ``--wal``) or a SQLite database whose
checkpoints are incremental; ``recover`` rebuilds the engine from a
backend's snapshot + WAL, replaying committed transactions and
discarding torn tails and uncommitted suffixes; ``snapshots`` lists
the fingerprinted snapshot versions a backend retains (and optionally
verifies one restores); ``index`` declares a secondary typed-value
index over a loaded document, reports its statistics, and optionally
probes it or EXPLAINs a query through it; ``session`` opens one
session of the multi-session layer (DESIGN §14) and evaluates a path.

Input errors (a missing, unreadable or non-UTF-8 file) exit 2 like
every other failure.  With ``--json``, every command reports failures
as ``{"error": {"type", "kind", "message", ...}}`` where ``kind`` is
the stable machine-readable discriminator (``io`` for input errors).
A reader that closes the output early (``| head``) ends the command
quietly with exit status 141, as SIGPIPE would.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro import obs
from repro.errors import ReproError, StorageError
from repro.mapping.doc_to_tree import (
    document_to_tree,
    untyped_document_to_tree,
)
from repro.query.engine import StorageQueryEngine, evaluate_tree
from repro.xquery.evaluator import execute as xquery_execute
from repro.xdm.node import Node
from repro.mapping.tree_to_doc import serialize_tree
from repro.schema.normalize import normalize_schema
from repro.schema.parser import parse_schema
from repro.schema.wellformed import lint_schema
from repro.schema.writer import write_schema
from repro.server import DatabaseServer
from repro.storage import FileBackend, MemoryBackend, SqliteBackend
from repro.storage.engine import StorageEngine
from repro.storage.recovery import recover
from repro.xmlio.parser import parse_document


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_engine(args: argparse.Namespace) -> StorageEngine:
    """``args.document`` parsed and loaded into a fresh engine."""
    engine = StorageEngine()
    engine.load_document(parse_document(_read(args.document)))
    return engine


def _load_tree(args: argparse.Namespace):
    """``args.document`` as a data-model tree: validated and typed
    against ``--schema`` when one is given, untyped otherwise."""
    document = parse_document(_read(args.document))
    if args.schema:
        return document_to_tree(document, parse_schema(_read(args.schema)))
    return untyped_document_to_tree(document)


@contextmanager
def _obs_scope(diagnostics: bool = False) -> Iterator[None]:
    """One command's observability scope: the registry and the logs
    start empty, the diagnostics tier (EXPLAIN collection, spans) is
    switched on if asked, and everything is switched off and emptied
    again on the way out."""
    obs.reset()
    if diagnostics:
        obs.enable()
    try:
        yield
    finally:
        obs.disable()
        obs.reset()


def _cmd_validate(args: argparse.Namespace) -> int:
    schema = parse_schema(_read(args.schema))
    try:
        document_to_tree(parse_document(_read(args.document)), schema)
    except ReproError as error:
        print(f"INVALID: {error}")
        return 1
    print(f"VALID: {args.document} conforms to {args.schema}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    issues = lint_schema(parse_schema(_read(args.schema)))
    for issue in issues:
        print(issue)
    if not issues:
        print("clean: no diagnostics")
    return 1 if any(i.severity == "error" for i in issues) else 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    schema = normalize_schema(parse_schema(_read(args.schema)))
    print(write_schema(schema))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    values = [node.string_value()
              for node in evaluate_tree(_load_tree(args), args.path)]
    if args.json:
        print(json.dumps({"path": args.path, "count": len(values),
                          "values": values}, indent=2))
        return 0
    for value in values:
        print(value)
    return 0


def _cmd_xquery(args: argparse.Namespace) -> int:
    for item in xquery_execute(_load_tree(args), args.query):
        if isinstance(item, Node) and item.node_kind() == "element":
            print(serialize_tree(item))
        elif isinstance(item, Node):
            print(item.string_value())
        else:
            print(item)
    return 0


def _schema_table(engine: StorageEngine) -> list[dict]:
    """One row per descriptive-schema node: the Example 8 listing
    joined with the statistics the cost-based planner prices from."""
    return [{"path": node.path or "#document", "type": node.node_type,
             **node.statistics()}
            for node in engine.schema.iter_nodes()]


def _cell(value) -> str:
    """A min/max cell of the schema table: '-' for none, clipped."""
    if value is None:
        return "-"
    text = str(value)
    return text if len(text) <= 12 else text[:11] + "…"


def _cmd_inspect(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    table = _schema_table(engine)
    if args.json:
        print(json.dumps({
            "document_nodes": engine.node_count(),
            "schema_nodes": engine.schema.node_count(),
            "blocks": engine.block_count(),
            "modelled_bytes": engine.size_bytes(),
            "descriptive_schema": table,
        }, indent=2))
        return 0
    print(f"document nodes:    {engine.node_count()}")
    print(f"schema nodes:      {engine.schema.node_count()}")
    print(f"blocks:            {engine.block_count()}")
    print(f"modelled bytes:    {engine.size_bytes()}")
    print("descriptive schema (per-schema-node statistics):")
    print(f"  {'path':44s} {'kind':9s} {'rows':>7s} {'bytes':>9s} "
          f"{'distinct':>8s} {'min':>12s} {'max':>12s}")
    for row in table:
        print(f"  {row['path']:44s} {row['type']:9s} "
              f"{row['descriptors']:>7d} {row['bytes']:>9d} "
              f"{row['distinct_values']:>8d} "
              f"{_cell(row['min_value']):>12s} "
              f"{_cell(row['max_value']):>12s}")
    return 0


def _format_instrument(value) -> str:
    """One metrics line: scalars verbatim, histogram summaries compact."""
    if isinstance(value, dict):
        return (f"n={value['count']} mean={value['mean']:.0f} "
                f"p50={value['p50']:.0f} p95={value['p95']:.0f} "
                f"p99={value['p99']:.0f}")
    return str(value)


def _cmd_explain(args: argparse.Namespace) -> int:
    """Evaluate a path twice — a cold compile, then the warmed plan
    cache — and report the EXPLAIN record of each run; with
    ``--trace``, also write both runs' spans as Chrome-trace JSON
    (chrome://tracing, Perfetto)."""
    with _obs_scope(diagnostics=True):
        queries = StorageQueryEngine(_load_engine(args))
        queries.evaluate(args.path)
        cold = obs.EXPLAINS.last()
        queries.evaluate(args.path)
        warm = obs.EXPLAINS.last()
        if args.trace:
            trace = obs.TRACER.chrome_trace()
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(trace, indent=2) + "\n")
        if args.json:
            print(json.dumps({"cold": cold.as_dict(),
                              "warm": warm.as_dict()}, indent=2))
            return 0
        print("-- cold (first evaluation) --")
        print(cold.render())
        print("-- warm (plan cache hit) --")
        print(warm.render())
        if args.trace:
            print(f"wrote {len(trace['traceEvents'])} span(s) to "
                  f"{args.trace}")
        return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape the metrics registry after a load-and-query run with
    diagnostics on, so the EXPLAIN-gated counters are there too —
    Prometheus text exposition, structured JSON, or readable."""
    with _obs_scope(diagnostics=True):
        queries = StorageQueryEngine(_load_engine(args))
        for path in args.path or ():
            queries.evaluate(path)
        if args.prom:
            print(obs.render_prometheus(obs.REGISTRY))
            return 0
        structured = obs.REGISTRY.structured()
        if args.json:
            print(json.dumps({"document": args.document, **structured},
                             indent=2))
            return 0
        print(f"telemetry for {args.document}:")
        for group in ("counters", "gauges", "histograms"):
            if not structured[group]:
                continue
            print(f"  [{group}]")
            for name in sorted(structured[group]):
                print(f"    {name:40s} "
                      f"{_format_instrument(structured[group][name])}")
        return 0


def _make_backend(args: argparse.Namespace):
    """Build the backend the durability commands operate on."""
    if args.backend == "sqlite":
        if getattr(args, "wal", None):
            raise StorageError(
                "the sqlite backend keeps its write-ahead log inside "
                "the database; --wal applies to the file backend only")
        return SqliteBackend(args.image)
    return FileBackend(args.image, wal_path=getattr(args, "wal", None))


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Load a document and persist it through a storage backend."""
    engine = _load_engine(args)
    backend = _make_backend(args)
    wal = backend.open_wal() if (args.wal or args.backend == "sqlite") \
        else None
    info = backend.checkpoint(engine, wal=wal)
    if wal is not None:
        wal.close()
    if args.json:
        print(json.dumps({"image": args.image, "wal": args.wal,
                          "backend": backend.name,
                          "snapshot_version": info.version,
                          "fingerprint": info.fingerprint,
                          "nodes": engine.node_count(),
                          "blocks": engine.block_count(),
                          "checkpoint_lsn": info.lsn}, indent=2))
        return 0
    print(f"checkpointed {args.document} -> {args.image} "
          f"({engine.node_count()} nodes, {engine.block_count()} blocks, "
          f"lsn {info.lsn})")
    print(f"  backend {backend.name}, snapshot version {info.version}")
    if args.wal:
        print(f"write-ahead log at {args.wal}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild an engine from a backend's snapshot + write-ahead log."""
    schema = parse_schema(_read(args.schema)) if args.schema else None
    result = recover(_make_backend(args), schema=schema,
                     strict=args.strict)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
        return 0
    print(f"recovered {args.image}: {result.engine.node_count()} nodes, "
          f"{result.engine.block_count()} blocks")
    print(f"  backend:          {result.backend}")
    print(f"  snapshot version: {result.snapshot_version}")
    print(f"  checkpoint lsn:   {result.checkpoint_lsn}")
    print(f"  replayed records: {result.replayed}")
    print(f"  skipped records:  {result.skipped}")
    print(f"  discarded:        {result.discarded} "
          f"(txns {result.discarded_txns})")
    print(f"  torn bytes:       {result.torn_bytes}")
    print(f"  relabels:         {result.relabels}")
    if schema is not None:
        print("  conformance:      ok (Section 6.2)")
    return 0


def _cmd_snapshots(args: argparse.Namespace) -> int:
    """List the fingerprinted snapshot versions a backend retains."""
    backend = _make_backend(args)
    snapshots = backend.list_snapshots()
    report: dict = {
        "target": args.image,
        "backend": backend.name,
        "snapshots": [info.as_dict() for info in snapshots],
    }
    if args.restore:
        engine = backend.restore(args.restore)
        report["restored"] = {"version": args.restore,
                              "nodes": engine.node_count(),
                              "blocks": engine.block_count()}
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    if not snapshots:
        print(f"no snapshots at {args.image} ({backend.name} backend)")
        return 0
    print(f"snapshots at {args.image} ({backend.name} backend):")
    for info in snapshots:
        print(f"  {info.seq:3d}  {info.version}  lsn {info.lsn:<6d} "
              f"{info.bytes} bytes")
    if args.restore:
        restored = report["restored"]
        print(f"restored {restored['version']}: {restored['nodes']} "
              f"nodes, {restored['blocks']} blocks")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    """Declare a secondary index over a loaded document, report its
    statistics, and optionally probe it or EXPLAIN a query through it."""
    engine = _load_engine(args)
    index = engine.create_index(args.path, value_type=args.type)
    report: dict = {"definition": index.definition.as_dict(),
                    "stats": index.stats()}
    probing = (args.eq is not None or args.low is not None
               or args.high is not None)
    if probing:
        if args.eq is not None:
            matches = index.probe_eq(index.parse_key(args.eq))
            report["probe"] = {"mode": "eq", "value": args.eq,
                               "count": len(matches)}
        else:
            low = (index.parse_key(args.low)
                   if args.low is not None else None)
            high = (index.parse_key(args.high)
                    if args.high is not None else None)
            matches = index.probe_range(low, high)
            report["probe"] = {"mode": "range", "low": args.low,
                               "high": args.high,
                               "count": len(matches)}
    if args.query:
        with _obs_scope(diagnostics=True):
            result = StorageQueryEngine(engine).evaluate(args.query)
            report["query"] = {
                "path": args.query, "count": len(result),
                "explain": obs.EXPLAINS.last().as_dict()}
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    definition = index.definition
    print(f"index {definition.kind}:{definition.path} "
          f"({definition.value_type})")
    for name, value in report["stats"].items():
        if name in ("kind", "path", "value_type"):
            continue
        print(f"  {name + ':':22s}{value}")
    if "probe" in report:
        probe = report["probe"]
        if probe["mode"] == "eq":
            print(f"  probe eq {probe['value']!r}: "
                  f"{probe['count']} match(es)")
        else:
            print(f"  probe range [{probe['low']!r}, {probe['high']!r}]: "
                  f"{probe['count']} match(es)")
    if "query" in report:
        explain = report["query"]["explain"]
        print(f"  query {args.query}: {report['query']['count']} "
              f"node(s), strategy {explain['strategy']}"
              + (f" via {explain['index_used']}"
                 if explain["index_used"] else ""))
    return 0


@_obs_scope()
def _cmd_session(args: argparse.Namespace) -> int:
    """Open one session against a fresh server and evaluate a path —
    the smallest end-to-end exercise of the session layer."""
    server = DatabaseServer(MemoryBackend(),
                            parse_document(_read(args.document)))
    try:
        with server.open_session(args.mode,
                                 timeout=args.timeout) as session:
            values = session.query_values(args.path)
            report = {
                "session": session.session_id,
                "mode": session.mode,
                "path": args.path,
                "count": len(values),
                "values": values,
            }
            if session.snapshot is not None:
                report["snapshot"] = session.snapshot.version
                report["relabels"] = session.snapshot.relabels
            if session.lease is not None:
                report["lease"] = session.lease.as_dict()
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            origin = report.get("snapshot", "live engine")
            print(f"session {report['session']} ({report['mode']}) "
                  f"over {origin}: {report['count']} node(s)")
            for value in values:
                print(value)
        return 0
    finally:
        server.close()


def _add_target_arguments(command: argparse.ArgumentParser) -> None:
    """What the durability commands operate on (see _make_backend)."""
    command.add_argument("image", metavar="target",
                         help="image path (file) or database (sqlite)")
    command.add_argument("--backend", choices=("file", "sqlite"),
                         default="file",
                         help="storage backend (default: file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A formal model of XML Schema (ICDE 2005) — "
                    "validator, linter and storage inspector.")
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser(
        "validate", help="validate a document against a schema")
    validate.add_argument("schema")
    validate.add_argument("document")
    validate.set_defaults(handler=_cmd_validate)

    lint = commands.add_parser(
        "lint", help="static schema diagnostics (UPA and friends)")
    lint.add_argument("schema")
    lint.set_defaults(handler=_cmd_lint)

    normalize = commands.add_parser(
        "normalize", help="print the canonical form of a schema")
    normalize.add_argument("schema")
    normalize.set_defaults(handler=_cmd_normalize)

    query = commands.add_parser(
        "query", help="evaluate a path over a document")
    query.add_argument("document")
    query.add_argument("path")
    query.add_argument("--schema", default=None,
                       help="validate and type the document first")
    query.add_argument("--json", action="store_true",
                       help="emit {path, count, values} as JSON")
    query.set_defaults(handler=_cmd_query)

    xquery = commands.add_parser(
        "xquery", help="evaluate an XQuery-lite FLWOR expression")
    xquery.add_argument("document")
    xquery.add_argument("query")
    xquery.add_argument("--schema", default=None,
                        help="validate and type the document first")
    xquery.set_defaults(handler=_cmd_xquery)

    inspect = commands.add_parser(
        "inspect", help="load into Sedna-style storage and report")
    inspect.add_argument("document")
    inspect.add_argument("--json", action="store_true",
                         help="emit the report as JSON")
    inspect.set_defaults(handler=_cmd_inspect)

    explain = commands.add_parser(
        "explain", help="EXPLAIN a path query (cold + warm plan)")
    explain.add_argument("document")
    explain.add_argument("path")
    explain.add_argument("--trace", default=None, metavar="FILE",
                         help="also write both runs' spans to FILE "
                              "as Chrome-trace JSON")
    explain.add_argument("--json", action="store_true",
                         help="emit both EXPLAIN records as JSON")
    explain.set_defaults(handler=_cmd_explain)

    metrics = commands.add_parser(
        "metrics", help="scrape the metrics registry")
    metrics.add_argument("document")
    metrics.add_argument("--path", action="append", default=None,
                         help="also evaluate PATH (repeatable)")
    group = metrics.add_mutually_exclusive_group()
    group.add_argument("--prom", action="store_true",
                       help="Prometheus text exposition format")
    group.add_argument("--json", action="store_true",
                       help="structured JSON: counters, gauges, "
                            "histogram percentiles")
    metrics.set_defaults(handler=_cmd_metrics)

    checkpoint = commands.add_parser(
        "checkpoint", help="persist a document through a storage backend")
    checkpoint.add_argument("document")
    _add_target_arguments(checkpoint)
    checkpoint.add_argument("--wal", default=None,
                            help="also start a write-ahead log at WAL "
                                 "(file backend)")
    checkpoint.add_argument("--json", action="store_true",
                            help="emit the checkpoint report as JSON")
    checkpoint.set_defaults(handler=_cmd_checkpoint)

    recover = commands.add_parser(
        "recover", help="rebuild an engine from snapshot + write-ahead log")
    _add_target_arguments(recover)
    recover.add_argument("--wal", default=None,
                         help="replay committed transactions from WAL "
                              "(file backend)")
    recover.add_argument("--schema", default=None,
                         help="verify Section 6.2 conformance after replay")
    recover.add_argument("--strict", action="store_true",
                         help="also verify global label order")
    recover.add_argument("--json", action="store_true",
                         help="emit the recovery report as JSON")
    recover.set_defaults(handler=_cmd_recover)

    snapshots = commands.add_parser(
        "snapshots", help="list a backend's fingerprinted snapshots")
    _add_target_arguments(snapshots)
    snapshots.add_argument("--restore", default=None, metavar="VERSION",
                           help="also restore VERSION and report it")
    snapshots.add_argument("--json", action="store_true",
                           help="emit the snapshot list as JSON")
    snapshots.set_defaults(handler=_cmd_snapshots)

    index = commands.add_parser(
        "index", help="declare a secondary index and report/probe it")
    index.add_argument("document")
    index.add_argument("path",
                       help="schema path of an attribute or element")
    index.add_argument("--type", default="string",
                       help="XML Schema simple type of the keys")
    index.add_argument("--eq", default=None,
                       help="probe: count owners with this typed value")
    index.add_argument("--low", default=None,
                       help="probe: inclusive lower range bound")
    index.add_argument("--high", default=None,
                       help="probe: inclusive upper range bound")
    index.add_argument("--query", default=None,
                       help="also EXPLAIN this query through the index")
    index.add_argument("--json", action="store_true",
                       help="emit the index report as JSON")
    index.set_defaults(handler=_cmd_index)

    session = commands.add_parser(
        "session", help="open one session and evaluate a path")
    session.add_argument("document")
    session.add_argument("path")
    session.add_argument("--mode", choices=("read", "write"),
                         default="read",
                         help="snapshot reader or lease-holding writer")
    session.add_argument("--timeout", type=float, default=None,
                         help="lease acquire timeout (write mode)")
    session.add_argument("--json", action="store_true",
                         help="emit the session report as JSON")
    session.set_defaults(handler=_cmd_session)

    return parser


def _fail(args: argparse.Namespace, error: Exception, kind: str) -> int:
    """Report *error* and return exit code 2.  Machine consumers asked
    for JSON get it for failures too: ``kind`` is the stable wire-format
    discriminator (the class name is a Python detail); errors carrying
    extra structure (corruption location, Overloaded retry_after) merge
    it in via their as_dict()."""
    if getattr(args, "json", False):
        payload = {"type": type(error).__name__, "kind": kind,
                   "message": str(error)}
        as_dict = getattr(error, "as_dict", None)
        if as_dict is not None:
            payload.update(as_dict())
        print(json.dumps({"error": payload}, indent=2))
    else:
        print(f"error: {error}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        # A reader that went away shows here, not in the flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # ``| head``: the reader has all it wants.  Write nothing more,
        # to stdout (whose exit flush goes to the null device) or to
        # stderr, and exit as a process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (OSError, UnicodeDecodeError) as error:
        return _fail(args, error, "io")
    except ReproError as error:
        return _fail(args, error, getattr(error, "kind", "error"))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
