"""Command-line interface.

Usage::

    python -m repro validate SCHEMA.xsd DOCUMENT.xml
    python -m repro lint SCHEMA.xsd
    python -m repro normalize SCHEMA.xsd
    python -m repro query DOCUMENT.xml PATH [--schema SCHEMA.xsd] [--json]
    python -m repro xquery DOCUMENT.xml QUERY [--schema SCHEMA.xsd]
    python -m repro inspect DOCUMENT.xml [--json]
    python -m repro stats DOCUMENT.xml [--path PATH ...] [--json]
    python -m repro explain DOCUMENT.xml PATH [--json]
    python -m repro metrics DOCUMENT.xml [--path PATH ...]
                            [--prom | --json]
    python -m repro top DOCUMENT.xml [--path PATH ...] [--repeat N]
                        [--slow-ms MS] [--json]
    python -m repro trace DOCUMENT.xml PATH [--out FILE]
    python -m repro checkpoint DOCUMENT.xml TARGET [--backend file|sqlite]
                               [--wal WAL] [--json]
    python -m repro recover TARGET [--backend file|sqlite] [--wal WAL]
                                   [--schema SCHEMA.xsd] [--strict] [--json]
    python -m repro snapshots TARGET [--backend file|sqlite]
                                     [--restore VERSION] [--json]
    python -m repro index DOCUMENT.xml PATH [--type TYPE]
                          [--eq V | --low L --high H]
                          [--query PATH] [--json]
    python -m repro serve DOCUMENT.xml [--readers N] [--writers M]
                          [--requests R] [--max-sessions S]
                          [--lease-ttl SEC] [--timeout SEC]
                          [--seed SEED] [--prom | --json]
    python -m repro session DOCUMENT.xml PATH [--mode read|write]
                            [--timeout SEC] [--json]

``validate`` applies the mapping f (Section 8) and reports the first
Section 6.2 requirement the document violates; ``lint`` runs the
static schema diagnostics; ``normalize`` prints the canonical form;
``query`` evaluates a path; ``inspect`` loads the document into the
Sedna-style storage and prints its descriptive schema and statistics;
``stats`` loads (and optionally queries) with observability on and
prints the metrics registry; ``explain`` evaluates a path twice —
cold, then through the warmed plan cache — and reports both plans;
``checkpoint`` loads a document and persists it atomically through a
storage backend — the historical image file (plus an empty
write-ahead log with ``--wal``) or a SQLite database whose
checkpoints are incremental; ``recover`` rebuilds the engine from a
backend's snapshot + WAL, replaying committed transactions and
discarding torn tails and uncommitted suffixes; ``snapshots`` lists
the fingerprinted snapshot versions a backend retains (and optionally
verifies one restores); ``index`` declares a
secondary index (typed-value or path) over a loaded document, reports
its statistics, and optionally probes it or EXPLAINs a query through
it.

The operator surfaces ride on the always-on telemetry tier:
``metrics`` scrapes the registry after a load-and-query run — as the
Prometheus text exposition format (``--prom``) or structured JSON with
counters, gauges and histogram percentiles; ``top`` runs a repeated
query workload and prints the aggregated live view (query rates and
latency percentiles, cache hit rates, WAL/checkpoint latencies), with
``--slow-ms`` arming the slow-query log and appending its JSON-lines
events; ``trace`` records a cold+warm evaluation with span tracing on
and exports Chrome-trace-viewer JSON.

``serve`` and ``session`` exercise the resilient multi-session layer
(DESIGN §14): ``serve`` runs a bounded N-reader/M-writer workload —
readers on pinned MVCC-lite snapshots, writers handing off the
single-writer lease under timeout/backoff, overload shed with typed
``Overloaded`` responses — and reports isolation evidence (torn reads,
relabels, dead letters) plus the ``server.*`` telemetry; ``session``
opens one session and evaluates a path.  With ``--json``, every
command reports failures as ``{"error": {"type", "kind", "message",
...}}`` where ``kind`` is the stable machine-readable discriminator.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
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
from repro.server import DatabaseServer, server_report
from repro.server.session import LeaseTimeout, Overloaded
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
def _obs_scope(diagnostics: bool = False,
               slow_ms: float | None = None) -> Iterator[None]:
    """One command's observability scope: the registry and the logs
    start empty, the diagnostics tier (EXPLAIN collection, spans) and
    the slow-query log are switched on as asked, and everything is
    switched off and emptied again on the way out."""
    obs.reset()
    if diagnostics:
        obs.enable()
    if slow_ms is not None:
        obs.set_slow_query_threshold(slow_ms / 1000.0)
    try:
        yield
    finally:
        obs.set_slow_query_threshold(None)
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


def _cmd_inspect(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    if args.json:
        print(json.dumps({
            "document_nodes": engine.node_count(),
            "schema_nodes": engine.schema.node_count(),
            "blocks": engine.block_count(),
            "modelled_bytes": engine.size_bytes(),
            "descriptive_schema": [
                {"path": path, "type": node_type,
                 "descriptors":
                     engine.schema.find_path(path).descriptor_count}
                for path, node_type in engine.schema.paths()],
        }, indent=2))
        return 0
    print(f"document nodes:    {engine.node_count()}")
    print(f"schema nodes:      {engine.schema.node_count()}")
    print(f"blocks:            {engine.block_count()}")
    print(f"modelled bytes:    {engine.size_bytes()}")
    print("descriptive schema:")
    for path, node_type in engine.schema.paths():
        schema_node = engine.schema.find_path(path)
        print(f"  {path:44s} {node_type:9s} "
              f"x{schema_node.descriptor_count}")
    return 0


def _format_instrument(value) -> str:
    """One metrics line: scalars verbatim, histogram summaries compact."""
    if isinstance(value, dict):
        return (f"n={value['count']} mean={value['mean']:.0f} "
                f"p50={value['p50']:.0f} p95={value['p95']:.0f} "
                f"p99={value['p99']:.0f}")
    return str(value)


def _print_statistics_table(statistics: dict) -> None:
    """The per-schema-node statistics table the cost-based planner
    prices candidates from (``repro stats`` / ``repro top``)."""
    if not statistics:
        return
    print("per-schema-node statistics (cost-model inputs):")
    print(f"  {'schema path':44s} {'rows':>7s} {'bytes':>9s} "
          f"{'distinct':>8s} {'min':>12s} {'max':>12s}")
    for path, digest in statistics.items():
        def _cell(value) -> str:
            if value is None:
                return "-"
            text = str(value)
            return text if len(text) <= 12 else text[:11] + "…"
        print(f"  {path:44s} {digest['descriptors']:>7d} "
              f"{digest['bytes']:>9d} {digest['distinct_values']:>8d} "
              f"{_cell(digest['min_value']):>12s} "
              f"{_cell(digest['max_value']):>12s}")


def _cmd_stats(args: argparse.Namespace) -> int:
    """Load (and optionally query) with observability on, then print
    every instrument the instrumented layers recorded."""
    with _obs_scope(diagnostics=True):
        engine = _load_engine(args)
        queries = StorageQueryEngine(engine)
        for path in args.path or ():
            queries.evaluate(path)
        snapshot = obs.snapshot()
        if args.json:
            print(json.dumps({"document": args.document,
                              "metrics": snapshot,
                              "instruments": obs.REGISTRY.structured(),
                              "statistics": engine.stats.export()},
                             indent=2))
            return 0
        print(f"metrics for {args.document}:")
        section = None
        for name in sorted(snapshot):
            prefix = name.split(".", 1)[0]
            if prefix != section:
                section = prefix
                print(f"  [{section}]")
            print(f"    {name:40s} "
                  f"{_format_instrument(snapshot[name])}")
        _print_statistics_table(engine.stats.export())
        return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Evaluate a path twice — a cold compile, then the warmed plan
    cache — and report the EXPLAIN record of each run."""
    with _obs_scope(diagnostics=True):
        queries = StorageQueryEngine(_load_engine(args))
        queries.evaluate(args.path)
        cold = obs.EXPLAINS.last()
        queries.evaluate(args.path)
        warm = obs.EXPLAINS.last()
        if args.json:
            print(json.dumps({"cold": cold.as_dict(),
                              "warm": warm.as_dict()}, indent=2))
            return 0
        print("-- cold (first evaluation) --")
        print(cold.render())
        print("-- warm (plan cache hit) --")
        print(warm.render())
        return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape the always-on telemetry registry after a load-and-query
    run — Prometheus text exposition, structured JSON, or readable."""
    with _obs_scope():
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


def _cmd_top(args: argparse.Namespace) -> int:
    """Run a repeated query workload and print the aggregated live
    view: query rates and latency percentiles, cache hit rates,
    WAL/checkpoint latencies — plus slow-query events if armed."""
    with _obs_scope(slow_ms=args.slow_ms):
        engine = _load_engine(args)
        queries = StorageQueryEngine(engine)
        paths = args.path or ["/"]
        for _ in range(args.repeat):
            for path in paths:
                queries.evaluate(path)
        registry = obs.REGISTRY
        latency = registry.histogram("query.latency.ns").summary()
        caches = queries.cache_stats()
        evaluated = registry.value("query.evaluations")
        rate = (evaluated / (latency["sum"] / 1e9)
                if latency["sum"] else 0.0)
        report = {
            "document": args.document,
            "paths": paths,
            "repeat": args.repeat,
            "queries": {
                "evaluations": evaluated,
                "per_second": round(rate, 1),
                "latency_ns": latency,
                "slow": registry.value("query.slow"),
            },
            "caches": caches,
            "wal": {
                "append_ns":
                    registry.histogram("wal.append.ns").summary(),
                "sync_ns":
                    registry.histogram("wal.sync.ns").summary(),
            },
            "checkpoints": {
                name.split(".", 1)[1]: value
                for name, value in registry.snapshot().items()
                if name.startswith("checkpoint.")
            },
            "storage": {
                "descriptors": engine.stats.total_descriptors(),
                "bytes": engine.stats.total_bytes(),
                "blocks": engine.block_count(),
            },
            "statistics": engine.stats.export(),
        }
        # When a session-layer workload ran in-process (repro serve,
        # embedding apps), surface its server.* instruments too.
        server_stats = {
            name: value for name, value in registry.snapshot().items()
            if name.startswith("server.")}
        if server_stats:
            report["server"] = server_stats
        slow_events = obs.EVENTS.find("query.slow")
        if args.json:
            if slow_events:
                report["slow_events"] = [e.as_dict()
                                         for e in slow_events]
            print(json.dumps(report, indent=2))
            return 0
        print(f"top — {args.document} "
              f"({args.repeat}x {len(paths)} path(s))")
        print(f"  queries:     {evaluated} evaluated, "
              f"{report['queries']['per_second']}/s, "
              f"{report['queries']['slow']} slow")
        print(f"  latency:     {_format_instrument(latency)}")
        print(f"  plan cache:  {caches['plan_hit_rate']:.1%} hit rate "
              f"({caches['plan_hits']} hits, "
              f"{caches['plan_misses']} misses)")
        print(f"  parse cache: {caches['parse_hit_rate']:.1%} hit rate")
        wal_append = report["wal"]["append_ns"]
        if wal_append["count"]:
            print(f"  wal append:  {_format_instrument(wal_append)}")
        for name, value in report["checkpoints"].items():
            print(f"  checkpoint {name:10s} {_format_instrument(value)}")
        print(f"  storage:     {report['storage']['descriptors']} "
              f"descriptors, {report['storage']['bytes']} bytes, "
              f"{report['storage']['blocks']} blocks")
        _print_statistics_table(report["statistics"])
        if slow_events:
            print("slow queries (JSON lines):")
            print(obs.EVENTS.to_jsonl())
        return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record a cold+warm evaluation with span tracing on and export
    Chrome-trace-viewer JSON (chrome://tracing, Perfetto)."""
    with _obs_scope(diagnostics=True):
        queries = StorageQueryEngine(_load_engine(args))
        queries.evaluate(args.path)  # cold: compile + execute
        queries.evaluate(args.path)  # warm: plan cache hit
        trace = obs.TRACER.chrome_trace()
        payload = json.dumps(trace, indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {len(trace['traceEvents'])} span(s) to "
                  f"{args.out}")
        else:
            print(payload)
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
def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a bounded N-reader/M-writer workload through the session
    layer and report isolation + degradation evidence.

    Readers pin MVCC-lite snapshots and re-query to prove stability;
    writers hand off the single-writer lease under timeout/backoff;
    load past the admission caps sheds with typed ``Overloaded``.
    The exit code is 1 unless every reader saw a frozen snapshot
    (torn_reads == 0), a reader opened after the last commit sees it,
    and final recovery relabelled nothing.
    """
    document = parse_document(_read(args.document))
    server = DatabaseServer(MemoryBackend(), document,
                            max_sessions=args.max_sessions,
                            lease_ttl=args.lease_ttl,
                            acquire_timeout=args.timeout,
                            seed=args.seed)
    path = args.path or f"/{document.root.name.local}"
    counters = {"reads": 0, "writes": 0, "overloaded": 0,
                "lease_timeouts": 0, "torn_reads": 0, "errors": 0}
    tally = threading.Lock()

    def _count(key: str, by: int = 1) -> None:
        with tally:
            counters[key] += by

    def _mutate(engine, session) -> None:
        # Clone the first child element's name under the root — a
        # schema-preserving insertion that works for any document.
        root = engine.children(engine.document)[0]
        kids = [k for k in engine.children(root)
                if engine.node_kind(k) == "element"]
        name = (engine.node_name(kids[0]) if kids
                else engine.node_name(root))
        engine.insert_child(root, 0, name=name)

    def _read_twice(session) -> None:
        first = session.query_values(path)
        if session.query_values(path) != first:
            _count("torn_reads")
        _count("reads", 2)

    def _write_once(session) -> None:
        session.execute(_mutate)
        _count("writes")

    def _worker(mode: str, owner: str, request) -> None:
        for _ in range(args.requests):
            try:
                with server.open_session(mode, owner=owner) as session:
                    request(session)
            except LeaseTimeout:
                _count("lease_timeouts")
            except Overloaded:
                _count("overloaded")
            except ReproError:
                _count("errors")

    threads = [threading.Thread(target=_worker,
                                args=("read", f"reader-{i}", _read_twice))
               for i in range(args.readers)]
    threads += [threading.Thread(target=_worker,
                                 args=("write", f"writer-{i}",
                                       _write_once))
                for i in range(args.writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Fresh-read probe, alone on the server: a reader at the final
    # horizon, the closing checkpoint, then a reader opened after it
    # must see what the live engine holds.  Nothing is pinned in
    # between, so the second pin carries the first one's snapshot
    # across the checkpoint (server.snapshot.advances) instead of
    # recovering the image.
    server.open_session("read", owner="probe").close()
    server.checkpoint_now()
    with server.open_session("read", owner="probe") as session:
        fresh_read_current = (session.snapshot.engine.node_count()
                              == server.engine.node_count())
    final = recover(server.backend)
    report = {
        "document": args.document,
        "config": {"readers": args.readers, "writers": args.writers,
                   "requests": args.requests,
                   "max_sessions": args.max_sessions,
                   "seed": args.seed},
        "results": dict(counters),
        "fresh_read_current": fresh_read_current,
        "recovery": {"relabels": final.relabels,
                     "nodes": final.engine.node_count()},
        "dead_letters": [letter.as_dict() for letter
                         in server.leases.drain_dead_letters()],
        "server": server_report(),
        "admission": server.admission.snapshot(),
    }
    healthy = (counters["torn_reads"] == 0 and final.relabels == 0
               and counters["errors"] == 0 and fresh_read_current)
    report["healthy"] = healthy
    try:
        if args.prom:
            print(obs.render_prometheus(obs.REGISTRY))
        elif args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"serve — {args.document} "
                  f"({args.readers} reader(s) + {args.writers} "
                  f"writer(s) x {args.requests})")
            print(f"  reads:        {counters['reads']} "
                  f"({counters['torn_reads']} torn)")
            print(f"  writes:       {counters['writes']} committed, "
                  f"{counters['lease_timeouts']} lease timeout(s)")
            print(f"  shed:         {counters['overloaded']} overloaded")
            print(f"  lease:        "
                  f"{report['server']['lease']['grants']} grant(s), "
                  f"{report['server']['lease']['expirations']} "
                  f"expiration(s), {len(report['dead_letters'])} "
                  f"dead letter(s)")
            snapshots = report["server"]["snapshots"]
            print(f"  snapshots:    "
                  f"{snapshots['materializations']} recovered, "
                  f"{snapshots['advances']} advanced, "
                  f"{snapshots['cache_hits']} cache hit(s)")
            print(f"  recovery:     {final.relabels} relabel(s), "
                  f"{final.engine.node_count()} nodes")
            print(f"  healthy:      {healthy}")
        return 0 if healthy else 1
    finally:
        server.close()


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

    stats = commands.add_parser(
        "stats", help="load with observability on and print metrics")
    stats.add_argument("document")
    stats.add_argument("--path", action="append", default=None,
                       help="also evaluate PATH (repeatable)")
    stats.add_argument("--json", action="store_true",
                       help="emit the metrics snapshot as JSON")
    stats.set_defaults(handler=_cmd_stats)

    explain = commands.add_parser(
        "explain", help="EXPLAIN a path query (cold + warm plan)")
    explain.add_argument("document")
    explain.add_argument("path")
    explain.add_argument("--json", action="store_true",
                         help="emit both EXPLAIN records as JSON")
    explain.set_defaults(handler=_cmd_explain)

    metrics = commands.add_parser(
        "metrics", help="scrape the always-on telemetry registry")
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

    top = commands.add_parser(
        "top", help="repeated workload: rates, percentiles, caches")
    top.add_argument("document")
    top.add_argument("--path", action="append", default=None,
                     help="workload path (repeatable; default '/')")
    top.add_argument("--repeat", type=int, default=100,
                     help="evaluations per path (default: 100)")
    top.add_argument("--slow-ms", type=float, default=None,
                     dest="slow_ms", metavar="MS",
                     help="arm the slow-query log at MS milliseconds")
    top.add_argument("--json", action="store_true",
                     help="emit the aggregated view as JSON")
    top.set_defaults(handler=_cmd_top)

    trace = commands.add_parser(
        "trace", help="export a cold+warm trace as Chrome-trace JSON")
    trace.add_argument("document")
    trace.add_argument("path")
    trace.add_argument("--out", default=None,
                       help="write the trace JSON to FILE")
    trace.set_defaults(handler=_cmd_trace)

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

    serve = commands.add_parser(
        "serve", help="run a bounded multi-session workload and "
                      "report isolation + degradation evidence")
    serve.add_argument("document")
    serve.add_argument("--path", default=None,
                       help="reader query path (default '/')")
    serve.add_argument("--readers", type=int, default=4,
                       help="concurrent reader threads (default: 4)")
    serve.add_argument("--writers", type=int, default=2,
                       help="concurrent writer threads (default: 2)")
    serve.add_argument("--requests", type=int, default=8,
                       help="sessions opened per thread (default: 8)")
    serve.add_argument("--max-sessions", type=int, default=32,
                       dest="max_sessions",
                       help="admission cap on open sessions")
    serve.add_argument("--lease-ttl", type=float, default=0.5,
                       dest="lease_ttl",
                       help="writer lease TTL in seconds")
    serve.add_argument("--timeout", type=float, default=2.0,
                       help="writer lease acquire timeout in seconds")
    serve.add_argument("--seed", type=int, default=0,
                       help="backoff-jitter RNG seed")
    group = serve.add_mutually_exclusive_group()
    group.add_argument("--prom", action="store_true",
                       help="Prometheus text exposition format")
    group.add_argument("--json", action="store_true",
                       help="emit the workload report as JSON")
    serve.set_defaults(handler=_cmd_serve)

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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        if getattr(args, "json", False):
            # Machine consumers asked for JSON; errors honour that too.
            # ``kind`` is the stable wire-format discriminator (the
            # class name is a Python detail); errors carrying extra
            # structure (corruption location, Overloaded retry_after)
            # merge it in via their as_dict().
            payload = {"type": type(error).__name__,
                       "kind": getattr(error, "kind", "error"),
                       "message": str(error)}
            as_dict = getattr(error, "as_dict", None)
            if as_dict is not None:
                payload.update(as_dict())
            print(json.dumps({"error": payload}, indent=2))
        else:
            print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
