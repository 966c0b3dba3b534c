"""Standalone query-benchmark runner: oracle vs uncached vs cached.

Times the navigating oracle (``evaluate_naive``) and the one query
pipeline without (``evaluate_schema_driven``) and with (``evaluate``)
its parse and plan caches over the scaled library workload with
``time.perf_counter`` (no pytest-benchmark dependency in the timed
loop, so the numbers are comparable across runs and machines) and
reports plan/parse cache hit rates.

Usage::

    PYTHONPATH=src python -m benchmarks.run_all            # print table
    PYTHONPATH=src python -m benchmarks.run_all --json     # + BENCH_query.json
    PYTHONPATH=src python -m benchmarks.run_all --smoke    # tiny, for tests

The ``--json`` report lands in ``BENCH_query.json`` at the repository
root (or ``--output PATH``): one record per (path, scale) with ops/sec
for each route, the cached/uncached and cached/naive speedups, and the
cache counters;
plus one conformance-checking record per scale comparing the §6.2
checker over the two NodeStore backends (tree vs. storage).
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import io
import json
import platform
import pstats
import subprocess
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.algebra import ConformanceChecker
from repro.mapping import document_to_tree
from repro.numbering import SednaAdapter, UpdateWorkload
from repro.query import StorageQueryEngine, clear_parse_cache
from repro.schema import parse_schema
from repro.storage import (
    FileBackend,
    SqliteBackend,
    StorageEngine,
    StorageNodeStore,
    TransactionManager,
    WriteAheadLog,
    bulk_load,
    checkpoint,
    recover,
)
from repro.workloads import make_library_document
from repro.workloads.fixtures import LIBRARY_SCHEMA
from repro.xdm import TreeNodeStore
from repro.xmlio.nodes import XmlDocument, XmlElement, XmlText
from repro.xmlio.qname import QName

#: Paths covering the planner's strategies: plain scans, a multi-node
#: merge, a hybrid inner predicate, and a structurally pruned query.
QUERY_PATHS = (
    "/library/book/title",
    "//author",
    "/library/book[@year]/title",
    "//title/text()",
)

#: Bumped when the report layout changes shape; ``benchmarks.compare``
#: refuses to diff reports with different format numbers.
BENCH_FORMAT = 2

DEFAULT_SCALES = (10, 100, 1000)
SMOKE_SCALES = (10,)
#: The indexes section must include a scale >= 100 even in smoke mode
#: (CI gates on the value-probe speedup at that scale).
INDEX_SCALES = (10, 100, 1000)
INDEX_SMOKE_SCALES = (10, 100)


def _build_engines(scales):
    engines = {}
    for scale in scales:
        engine = StorageEngine()
        engine.load_document(
            make_library_document(books=scale, papers=scale, seed=scale,
                                  year_attrs=True))
        engines[scale] = engine
    return engines


def _elapsed(call, rounds):
    """Seconds per call over one batch of *rounds* calls."""
    start = time.perf_counter()
    for _ in range(rounds):
        call()
    return (time.perf_counter() - start) / rounds


def _time_route(call, repeats, min_rounds):
    """Best-of-*repeats* timing of *min_rounds* calls → ops/sec."""
    best = float("inf")
    for _ in range(repeats):
        best = min(best, _elapsed(call, min_rounds))
    return 1.0 / best if best > 0 else float("inf")


def _median_ratio(fast_call, slow_call, repeats, rounds):
    """Median-of-*repeats* *interleaved* speedup of *fast_call* over
    *slow_call* (``> 1`` means *fast_call* wins).

    Two best-of measurements taken back to back see different machine
    states (CPU frequency, cache pressure from the other route), so a
    ratio of two best-of numbers is noisy exactly when the gate on it
    is tight.  Each repeat therefore samples in an **ABBA pattern**
    (fast, slow, slow, fast) and takes the per-route minimum: the
    first batch of a pair doubles as frequency/cache warmup for the
    second, so a plain AB interleave systematically penalizes
    whichever route runs first — measured at up to 24% on two
    *identical* compiled plans.  ABBA gives each route one
    already-warm slot per repeat, and the median across repeats throws
    away the outlier repeats (GC pauses, scheduler preemption) that
    best-of would keep.
    """
    ratios = []
    for _ in range(repeats):
        fast = _elapsed(fast_call, rounds)
        slow = min(_elapsed(slow_call, rounds),
                   _elapsed(slow_call, rounds))
        fast = min(fast, _elapsed(fast_call, rounds))
        ratios.append(slow / fast if fast > 0 else float("inf"))
    ratios.sort()
    return ratios[len(ratios) // 2]


def cached_vs_naive_floor(scale):
    """The least ``cached_vs_naive`` every query must reach at *scale*:
    3x where fixed per-call overheads dominate both routes, 10x from
    scale 100 on (measured minima: 5.8x at scale 10, 13.1x above)."""
    return 3.0 if scale < 100 else 10.0


def run(scales=DEFAULT_SCALES, repeats=5, rounds=20):
    """All (path, scale) measurements as a list of plain dicts."""
    engines = _build_engines(scales)
    records = []
    for scale in scales:
        engine = engines[scale]
        for path in QUERY_PATHS:
            clear_parse_cache()
            queries = StorageQueryEngine(engine)
            expected = [d.nid for d in queries.evaluate_naive(path)]
            if not expected:
                raise SystemExit(
                    f"benchmark query {path!r} returned 0 results at "
                    f"scale {scale}: the workload no longer exercises "
                    "it — fix the fixture instead of timing a no-op")
            assert [d.nid for d in queries.evaluate(path)] == expected
            naive_ops = _time_route(
                lambda: queries.evaluate_naive(path), repeats, rounds)
            uncached_ops = _time_route(
                lambda: queries.evaluate_schema_driven(path),
                repeats, rounds)
            cached_ops = _time_route(
                lambda: queries.evaluate(path), repeats, rounds)
            # Split accounting: the cached route is (plan-cache lookup)
            # + (closure-chain execution).  Timing each part alone
            # shows where the time goes — earlier revisions folded the
            # lookup into the execution number, which at large scales
            # hid it.
            plan = queries.compile(path)
            lookup_ops = _time_route(
                lambda: queries.compile(path), repeats, rounds)
            exec_ops = _time_route(
                lambda: plan.execute_compiled(queries), repeats, rounds)
            stats = queries.cache_stats()
            records.append({
                "path": path,
                "scale": scale,
                "results": len(expected),
                "ops_naive": round(naive_ops, 1),
                "ops_schema_driven": round(uncached_ops, 1),
                "ops_cached_plan": round(cached_ops, 1),
                "ops_plan_lookup": round(lookup_ops, 1),
                "ops_compiled_exec": round(exec_ops, 1),
                "lookup_share": round(
                    (1.0 / lookup_ops) / (1.0 / cached_ops), 4),
                "cached_vs_uncached": round(cached_ops / uncached_ops, 2),
                "cached_vs_naive": round(cached_ops / naive_ops, 2),
                "plan_hit_rate": round(stats["plan_hit_rate"], 4),
                "parse_hit_rate": round(stats["parse_hit_rate"], 4),
                "plan_invalidations": stats["plan_invalidations"],
            })
    return records


def run_profile(scale=1000, rounds=50, top=20):
    """cProfile the warm cached route, one dump per query group.

    Each benchmark path gets its own profile (the executor is warmed
    first, so the dump shows the steady-state closure chain, not the
    one-time lowering) with the top-*top* functions by cumulative time
    — the tool that found the per-step dispatch this layer removed.
    """
    engine = _build_engines((scale,))[scale]
    queries = StorageQueryEngine(engine)
    for path in QUERY_PATHS:
        queries.evaluate(path)  # warm: lower the closure chain
        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(rounds):
            queries.evaluate(path)
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        print(f"\nprofile [{path}] scale {scale}, {rounds} warm "
              f"evaluations, top {top} by cumulative time:")
        for line in stream.getvalue().splitlines():
            if line.strip():
                print(f"  {line}")


def run_indexes(scales=INDEX_SCALES, repeats=5, rounds=20):
    """Secondary-index speedups: typed-value probes and the path-index
    merge against the same queries on an index-free engine.

    Each scale loads the identical document twice — once plain, once
    with a ``@year`` integer value index and an ``//author`` path
    index — and times the cached ``evaluate`` route on both.  Parity
    with the naive evaluator is asserted per case, and each record
    captures the EXPLAIN strategy (``index``) and the index it used.

    The gated ``index_vs_scan`` ratio is a **median of interleaved
    repeats** (:func:`_median_ratio`), not a quotient of the two
    best-of ops numbers: the ``index_speedup_3x_met`` gate sits right
    at 3x on the smallest gated scale, and back-to-back best-of
    quotients flapped it on noisy CI machines.  The best-of ops/sec
    columns are kept for display.
    """
    records = []
    for scale in scales:
        document = make_library_document(books=scale, papers=scale,
                                         seed=scale, year_attrs=True)
        scan_engine = StorageEngine()
        scan_engine.load_document(document)
        indexed_engine = StorageEngine()
        indexed_engine.load_document(document)
        indexed_engine.create_index("library/book/@year",
                                    value_type="integer")
        indexed_engine.create_index("//author", kind="path")
        # The generator's deterministic year of book 0 at this scale.
        year = 1970 + scale % 36
        cases = (
            ("value-eq", f"/library/book[@year='{year}']/title"),
            ("value-exists", "/library/book[@year]"),
            ("path-merge", "//author"),
        )
        scan_queries = StorageQueryEngine(scan_engine)
        indexed_queries = StorageQueryEngine(indexed_engine)
        for case, path in cases:
            clear_parse_cache()
            expected = [d.nid.symbols()
                        for d in indexed_queries.evaluate_naive(path)]
            if not expected:
                raise SystemExit(
                    f"index benchmark case {case!r} ({path!r}) returned "
                    f"0 results at scale {scale} — fix the fixture")
            assert [d.nid.symbols()
                    for d in indexed_queries.evaluate(path)] == expected
            assert [d.nid.symbols()
                    for d in scan_queries.evaluate(path)] == expected
            ops_scan = _time_route(
                lambda: scan_queries.evaluate(path), repeats, rounds)
            ops_index = _time_route(
                lambda: indexed_queries.evaluate(path), repeats, rounds)
            ratio = _median_ratio(
                lambda: indexed_queries.evaluate(path),
                lambda: scan_queries.evaluate(path),
                max(repeats, 5), max(rounds, 20))
            obs.reset()
            obs.enable()
            try:
                indexed_queries.evaluate(path)
                explain = obs.EXPLAINS.last().as_dict()
            finally:
                obs.disable()
                obs.reset()
            records.append({
                "case": case,
                "path": path,
                "scale": scale,
                "results": len(expected),
                "ops_scan": round(ops_scan, 1),
                "ops_index": round(ops_index, 1),
                "index_vs_scan": round(ratio, 2),
                "strategy": explain["strategy"],
                "index_used": explain["index_used"],
            })
    return records


#: The cost section's corpus: the fixed structural precedence and the
#: cost-based choice agree on most of these (the "never slower" side
#: of the gate) and disagree on the two-predicate showcase, where the
#: structural planner probes the unselective ``[@year]`` exists-
#: predicate while the cost model prices the second predicate's
#: eq-probe far cheaper (the "beats every fixed policy" side).
COST_QUERY_PATHS = (
    "/library/book/title",
    "//author",
    "/library/book[@year]/title",
    "/library/book[@year='{year}']/title",
    "/library/book[@year][@year='{year}']/title",
)

#: Every fixed planning policy the cost-based planner races against.
COST_FIXED_POLICIES = ("structural", "scan", "naive")


def run_cost(scales=INDEX_SCALES, repeats=5, rounds=20):
    """Cost-based planning vs every fixed policy, on one store.

    Per (path, scale): four engines share one indexed
    :class:`StorageEngine`, differing only in ``planner_policy`` —
    ``cost`` (the default) against each of
    :data:`COST_FIXED_POLICIES`.  Parity is asserted, then the cached
    route is timed per policy, and the per-policy speedups of the
    cost route are taken as medians of interleaved repeats
    (:func:`_median_ratio`) because the ``cost_beats_fixed`` gate
    reads them directly.
    """
    records = []
    for scale in scales:
        document = make_library_document(books=scale, papers=scale,
                                         seed=scale, year_attrs=True)
        engine = StorageEngine()
        engine.load_document(document)
        engine.create_index("library/book/@year", value_type="integer")
        engine.create_index("//author", kind="path")
        # The generator's deterministic year of book 0 at this scale.
        year = 1970 + scale % 36
        cost_queries = StorageQueryEngine(engine)
        fixed_queries = {
            policy: StorageQueryEngine(engine, planner_policy=policy)
            for policy in COST_FIXED_POLICIES}
        for template in COST_QUERY_PATHS:
            path = template.format(year=year)
            clear_parse_cache()
            expected = [d.nid.symbols()
                        for d in cost_queries.evaluate_naive(path)]
            if not expected:
                raise SystemExit(
                    f"cost benchmark query {path!r} returned 0 results "
                    f"at scale {scale} — fix the fixture")
            assert [d.nid.symbols()
                    for d in cost_queries.evaluate(path)] == expected
            for queries in fixed_queries.values():
                assert [d.nid.symbols()
                        for d in queries.evaluate(path)] == expected
            ops = {"cost": _time_route(
                lambda: cost_queries.evaluate(path), repeats, rounds)}
            ratios = {}
            for policy, queries in fixed_queries.items():
                ops[policy] = _time_route(
                    lambda: queries.evaluate(path), repeats, rounds)
                # The structural ratio feeds the tight (>= 0.9) side
                # of the gate, so its samples get a floor of 20
                # rounds; the scan/naive ratios sit far from any
                # threshold and keep the cheap sampling.
                ratios[policy] = _median_ratio(
                    lambda: cost_queries.evaluate(path),
                    lambda: queries.evaluate(path),
                    max(repeats, 5),
                    max(rounds, 20) if policy == "structural"
                    else rounds)
            plan = cost_queries.compile(path)
            records.append({
                "path": path,
                "scale": scale,
                "results": len(expected),
                "ops_cost": round(ops["cost"], 1),
                "ops_structural": round(ops["structural"], 1),
                "ops_scan_policy": round(ops["scan"], 1),
                "ops_naive_policy": round(ops["naive"], 1),
                "cost_vs_structural": round(ratios["structural"], 2),
                "cost_vs_scan_policy": round(ratios["scan"], 2),
                "cost_vs_naive_policy": round(ratios["naive"], 2),
                "beats_every_fixed": all(
                    ratio > 1.0 for ratio in ratios.values()),
                "strategy": plan.strategy,
                "index_used": plan.index_used,
                "cost_total": (round(plan.cost.total, 1)
                               if plan.cost is not None else None),
                "candidates_priced": len(plan.cost_table),
            })
    return records


def cost_gate(records):
    """The two-sided ``cost_beats_fixed`` contract over the cost
    section's records: the cost-based planner must win outright
    somewhere, and it must never be materially (>10%) slower than the
    fixed structural precedence it replaced — anywhere.

    Both sides read only records at scale >= 100, mirroring
    ``benchmarks.compare.MIN_COMPARE_SCALE``: sub-100 workloads run in
    microseconds, where a 10% margin on two *identical* compiled
    plans is pure scheduler weather."""
    gated = [r for r in records if r["scale"] >= 100]
    any_win = any(r["beats_every_fixed"] for r in gated)
    never_slower = all(r["cost_vs_structural"] >= 0.9 for r in gated)
    return {
        "any_query_beats_every_fixed": any_win,
        "never_slower_than_structural_10pct": never_slower,
        "cost_beats_fixed": any_win and never_slower,
    }


def ddl_invalidation_check(scale=50):
    """CREATE INDEX must invalidate exactly the cached plans whose
    decision it changes and restamp (keep) every other plan."""
    clear_parse_cache()
    engine = StorageEngine()
    engine.load_document(make_library_document(
        books=scale, papers=0, seed=7, year_attrs=True))
    queries = StorageQueryEngine(engine)
    affected = "/library/book[@year]/title"
    unaffected = "/library/book/title"
    queries.evaluate(affected)
    queries.evaluate(unaffected)
    before = queries.cache_stats()
    engine.create_index("library/book/@year", value_type="integer")
    affected_plan = queries.compile(affected)
    unaffected_plan = queries.compile(unaffected)
    after = queries.cache_stats()
    invalidations = (after["plan_invalidations"]
                     - before["plan_invalidations"])
    hits = after["plan_hits"] - before["plan_hits"]
    return {
        "affected_path": affected,
        "unaffected_path": unaffected,
        "affected_strategy": affected_plan.strategy,
        "unaffected_strategy": unaffected_plan.strategy,
        "invalidations_delta": invalidations,
        "hits_delta": hits,
        # Exactness, both directions: the one affected plan was
        # invalidated, the one unaffected plan survived as a hit.
        "exactly_affected_invalidated": (
            invalidations == 1 and affected_plan.strategy == "index"),
        "unaffected_restamped": (
            hits == 1 and unaffected_plan.strategy == "scan"),
    }


def run_conformance(scales=DEFAULT_SCALES, repeats=3, rounds=3):
    """§6.2 conformance checking through the NodeStore protocol, over
    both backends: the state-algebra tree vs. the Sedna storage (with
    per-schema-node type annotations).  One record per scale."""
    schema = parse_schema(LIBRARY_SCHEMA)
    records = []
    for scale in scales:
        document = make_library_document(books=scale, papers=scale,
                                         seed=scale)
        tree = document_to_tree(document, schema)
        engine = StorageEngine()
        engine.load_tree(tree)
        tree_store = TreeNodeStore(tree)
        storage_store = StorageNodeStore.typed(engine, schema)
        checker = ConformanceChecker(schema)
        assert checker.check_store(tree_store) == []
        assert checker.check_store(storage_store) == []
        ops_tree = _time_route(
            lambda: checker.check_store(tree_store), repeats, rounds)
        ops_storage = _time_route(
            lambda: checker.check_store(storage_store), repeats, rounds)
        records.append({
            "scale": scale,
            "nodes": engine.node_count(),
            "ops_tree_store": round(ops_tree, 1),
            "ops_storage_store": round(ops_storage, 1),
            "tree_vs_storage": round(ops_tree / ops_storage, 2),
        })
    return records


def run_metrics(scale=10, workload_operations=100):
    """One instrumented (untimed) pass with observability on: the
    benchmark queries evaluated cold + warm for their EXPLAIN records,
    plus a Sedna-scheme update workload whose relabel counter the
    report asserts is zero (Proposition 1)."""
    obs.reset()
    obs.enable()
    try:
        clear_parse_cache()
        engine = StorageEngine()
        engine.load_document(
            make_library_document(books=scale, papers=scale, seed=scale,
                                  year_attrs=True))
        queries = StorageQueryEngine(engine)
        explains = []
        for path in QUERY_PATHS:
            queries.evaluate(path)   # cold: plan-cache miss
            queries.evaluate(path)   # warm: plan-cache hit
            explains.append(obs.EXPLAINS.last().as_dict())
        stats = UpdateWorkload(operations=workload_operations,
                               seed=0).run(SednaAdapter, verify=False)
        snapshot = obs.snapshot()
        return {
            "scale": scale,
            "registry": snapshot,
            "query_explains": explains,
            "numbering_workload": {
                "scheme": stats.scheme,
                "operations": stats.operations,
                "inserts": stats.inserts,
                "deletes": stats.deletes,
                "relabels": stats.relabels,
                "relabels_per_op": stats.relabels_per_op,
            },
        }
    finally:
        obs.disable()
        obs.reset()


def run_metadata(scales, smoke):
    """Provenance stamp for the JSON report: ``benchmarks.compare``
    refuses to diff raw numbers across interpreters or machines, and
    refuses entirely across report formats."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            cwd=Path(__file__).resolve().parent).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "format": BENCH_FORMAT,
        "git_sha": sha or "unknown",
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "host": platform.node(),
        "scales": list(scales),
        "smoke": bool(smoke),
    }


def run_obs_overhead(scale=1000, repeats=5, rounds=20):
    """Measured cost of the always-on telemetry tier.

    The cached (plan-cache hit) route is timed twice per benchmark
    path — with ``repro.obs.TELEMETRY`` forced off, then restored on —
    and the report gates on the aggregate slowdown staying under 5%.
    This is the number that justifies shipping telemetry enabled by
    default."""
    engine = _build_engines((scale,))[scale]
    clear_parse_cache()
    queries = StorageQueryEngine(engine)
    records = []
    total_off = 0.0
    total_on = 0.0
    for path in QUERY_PATHS:
        queries.evaluate(path)  # warm the plan cache
        # Interleave the off/on passes so machine drift (frequency
        # scaling, background load) hits both sides, not one.
        best_off = float("inf")
        best_on = float("inf")
        try:
            for _ in range(repeats):
                obs.set_telemetry(False)
                start = time.perf_counter()
                for _ in range(rounds):
                    queries.evaluate(path)
                best_off = min(best_off,
                               (time.perf_counter() - start) / rounds)
                obs.set_telemetry(True)
                start = time.perf_counter()
                for _ in range(rounds):
                    queries.evaluate(path)
                best_on = min(best_on,
                              (time.perf_counter() - start) / rounds)
        finally:
            obs.set_telemetry(True)
        ops_off = 1.0 / best_off
        ops_on = 1.0 / best_on
        total_off += best_off
        total_on += best_on
        records.append({
            "path": path,
            "ops_telemetry_off": round(ops_off, 1),
            "ops_telemetry_on": round(ops_on, 1),
            "overhead_pct": round((ops_off / ops_on - 1.0) * 100, 2),
        })
    overhead = total_on / total_off - 1.0
    obs.reset()  # drop the samples this untracked pass accumulated
    return {
        "scale": scale,
        "records": records,
        "overhead_pct": round(overhead * 100, 2),
        "under_5pct": overhead < 0.05,
    }


def _durability_workload(engine, operations):
    """Insert *operations* text-bearing ``author`` elements across the
    library's books — every insert is a logged engine mutation."""
    root = engine.children(engine.document)[0]
    books = [child for child in engine.children(root)
             if engine.node_name(child) is not None
             and engine.node_name(child).local == "book"]
    for op in range(operations):
        book = books[op % len(books)]
        author = engine.insert_child(book, 1, name=QName("", "author"))
        engine.insert_child(author, 0, text=f"Writer {op}")


def _insert_subtree(engine, parent_descriptor, element):
    """Reproduce *element*'s content through the logged per-node
    mutation paths (the incremental contrast to ``bulk_load``)."""
    for name, value in element.attributes.items():
        engine.set_attribute(parent_descriptor, name, value)
    for index, child in enumerate(element.children):
        if isinstance(child, XmlText):
            engine.insert_child(parent_descriptor, index,
                                text=child.text)
        else:
            descriptor = engine.insert_child(parent_descriptor, index,
                                             name=child.name)
            _insert_subtree(engine, descriptor, child)


def _bulk_load_comparison(tmp, scale):
    """The bulk-load fast path (one logical LOAD record + implicit
    checkpoint, deferred index build) vs building the same document
    through per-node autocommitted WAL records + a checkpoint."""
    document = make_library_document(books=scale, papers=scale,
                                     seed=scale)

    incremental_engine = StorageEngine()
    incremental_engine.load_document(
        XmlDocument(XmlElement(QName("", "library"))))
    incremental_wal = WriteAheadLog(tmp / "incr.wal", sync=False)
    TransactionManager(incremental_engine, incremental_wal)

    def incremental():
        root = incremental_engine.children(
            incremental_engine.document)[0]
        for index, child in enumerate(document.root.children):
            descriptor = incremental_engine.insert_child(
                root, index, name=child.name)
            _insert_subtree(incremental_engine, descriptor, child)
        checkpoint(incremental_engine, tmp / "incr.img",
                   wal=incremental_wal)

    start = time.perf_counter()
    incremental()
    incremental_seconds = time.perf_counter() - start
    incremental_records = incremental_wal.appends
    incremental_wal.close()

    bulk_engine = StorageEngine()
    bulk_wal = WriteAheadLog(tmp / "bulk.wal", sync=False)
    TransactionManager(bulk_engine, bulk_wal)
    start = time.perf_counter()
    stats = bulk_load(bulk_engine, document, tmp / "bulk.img", bulk_wal)
    bulk_seconds = time.perf_counter() - start
    bulk_wal.close()

    assert bulk_engine.node_count() == incremental_engine.node_count()
    result = recover(tmp / "bulk.img", tmp / "bulk.wal")
    assert result.engine.node_count() == bulk_engine.node_count()
    assert result.relabels == 0
    return {
        "nodes": stats["nodes"],
        "incremental_seconds": round(incremental_seconds, 6),
        "bulk_seconds": round(bulk_seconds, 6),
        "bulk_vs_incremental": round(
            incremental_seconds / bulk_seconds, 2),
        "incremental_wal_records": incremental_records,
        "bulk_wal_records": stats["wal_records"],
    }


def _checkpoint_mode_comparison(tmp, scale, batches=5, operations=10):
    """Incremental checkpoints (dirty-block upsert into SQLite) vs
    monolithic ones (full-image rewrite) over the same mutation stream.

    Both backends seed a full snapshot of the scale-*scale* library,
    then each small mutation batch is checkpointed both ways.  The
    incremental path rewrites only the touched blocks, so its cost
    tracks the batch size while the monolithic path re-serializes
    every descriptor; the ratio is the point of the SQLite backend."""
    engine = StorageEngine()
    engine.load_document(make_library_document(books=scale,
                                               papers=scale,
                                               seed=scale))
    sqlite_backend = SqliteBackend(tmp / "ckpt.db")
    monolithic_backend = FileBackend(tmp / "ckpt.img")
    sqlite_backend.checkpoint(engine)
    monolithic_backend.checkpoint(engine)

    incremental_s = 0.0
    monolithic_s = 0.0
    dirty_blocks = 0
    for _ in range(batches):
        _durability_workload(engine, operations)
        dirty_blocks += engine.checkpoints.dirty_count
        start = time.perf_counter()
        sqlite_backend.checkpoint(engine)
        incremental_s += time.perf_counter() - start
        start = time.perf_counter()
        monolithic_backend.checkpoint(engine)
        monolithic_s += time.perf_counter() - start

    # The incremental snapshots must restore to the same state the
    # monolithic image holds — the speedup is worthless otherwise.
    restored = sqlite_backend.restore(
        sqlite_backend.list_snapshots()[-1].version)
    assert restored.node_count() == engine.node_count()
    restored.check_invariants()
    sqlite_backend.close()
    return {
        "scale": scale,
        "batches": batches,
        "operations_per_batch": operations,
        "blocks_total": engine.block_count(),
        "dirty_blocks_per_batch": round(dirty_blocks / batches, 1),
        "checkpoint_incremental_seconds": round(incremental_s, 6),
        "checkpoint_monolithic_seconds": round(monolithic_s, 6),
        "checkpoint_incremental_vs_monolithic": round(
            monolithic_s / incremental_s, 2),
    }


def run_durability(scale=100, operations=200, checkpoint_scale=None):
    """WAL overhead and recovery time over the library workload.

    The same autocommitted insert workload runs three ways — no log,
    WAL without per-record fsync, WAL with fsync — then a checkpoint +
    post-checkpoint mutations + :func:`recover` measure the restart
    path, and the bulk-load fast path is compared against the
    equivalent per-node logged build.  One record."""

    def fresh():
        engine = StorageEngine()
        engine.load_document(make_library_document(
            books=scale, papers=scale, seed=scale))
        return engine

    def timed(call):
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)

        plain_engine = fresh()
        plain_s = timed(lambda: _durability_workload(plain_engine,
                                                     operations))

        wal_engine = fresh()
        wal = WriteAheadLog(tmp / "nosync.wal", sync=False)
        TransactionManager(wal_engine, wal)
        wal_s = timed(lambda: _durability_workload(wal_engine,
                                                   operations))
        wal_records, wal_bytes = wal.appends, wal.bytes_written
        wal.close()

        fsync_engine = fresh()
        fsync_wal = WriteAheadLog(tmp / "sync.wal", sync=True)
        TransactionManager(fsync_engine, fsync_wal)
        fsync_s = timed(lambda: _durability_workload(fsync_engine,
                                                     operations))
        fsync_wal.close()

        rec_engine = fresh()
        rec_wal = WriteAheadLog(tmp / "rec.wal", sync=False)
        TransactionManager(rec_engine, rec_wal)
        image = tmp / "rec.img"
        checkpoint_s = timed(lambda: checkpoint(rec_engine, image,
                                                wal=rec_wal))
        image_bytes = image.stat().st_size
        _durability_workload(rec_engine, operations)
        rec_wal.close()
        start = time.perf_counter()
        result = recover(image, tmp / "rec.wal")
        recovery_s = time.perf_counter() - start
        assert result.relabels == 0
        assert result.engine.node_count() == rec_engine.node_count()

        bulk = _bulk_load_comparison(tmp, scale)
        modes = _checkpoint_mode_comparison(tmp,
                                            checkpoint_scale or scale)

    return {
        "bulk_load": bulk,
        "checkpoint_modes": modes,
        "scale": scale,
        "operations": operations,
        "ops_plain": round(operations / plain_s, 1),
        "ops_wal": round(operations / wal_s, 1),
        "ops_wal_fsync": round(operations / fsync_s, 1),
        "wal_overhead": round(wal_s / plain_s, 2),
        "wal_fsync_overhead": round(fsync_s / plain_s, 2),
        "wal_records": wal_records,
        "wal_bytes": wal_bytes,
        "checkpoint_seconds": round(checkpoint_s, 6),
        "image_bytes": image_bytes,
        "recovery_seconds": round(recovery_s, 6),
        "recovery_replayed": result.replayed,
        "recovery_relabels": result.relabels,
    }


def _concurrency_mutation(engine, session):
    """One logged insert per write transaction (the serve workload)."""
    root = engine.children(engine.document)[0]
    book = next(child for child in engine.children(root)
                if engine.node_name(child) is not None
                and engine.node_name(child).local == "book")
    author = engine.insert_child(book, 1, name=QName("", "author"))
    engine.insert_child(author, 0,
                        text=f"session {session.session_id}")


def run_concurrency(readers=4, writers=2, rounds=20, scale=30):
    """N snapshot readers + M lease-handoff writers over a served
    MemoryBackend (the resilient multi-session layer, DESIGN §14).

    Reports per-mode latency percentiles from the windowed histograms,
    a solo-reader baseline for the contention-retention ratio (the
    machine-independent number ``benchmarks.compare`` tracks), the
    typed ``Overloaded`` shed at the session cap, and a final recovery
    that must relabel nothing.  One record."""
    import threading

    from repro.server import DatabaseServer, Overloaded
    from repro.storage import MemoryBackend

    path = "/library/book/title"
    errors = []

    def build_server(**kwargs):
        kwargs.setdefault("acquire_timeout", 30.0)
        return DatabaseServer(
            MemoryBackend(),
            make_library_document(books=scale, papers=scale,
                                  seed=scale),
            **kwargs)

    def reader_pass(server, torn_counts, index):
        torn = 0
        try:
            for _ in range(rounds):
                with server.open_session(
                        "read", owner=f"bench-r{index}") as session:
                    first = session.query_values(path)
                    if session.query_values(path) != first:
                        torn += 1
        except Exception as exc:  # noqa: BLE001 — a bench must not hang
            errors.append(repr(exc))
        torn_counts[index] = torn

    def writer_pass(server, index):
        try:
            for _ in range(rounds):
                with server.open_session(
                        "write", owner=f"bench-w{index}") as session:
                    session.execute(_concurrency_mutation)
        except Exception as exc:  # noqa: BLE001
            errors.append(repr(exc))

    def summary(name):
        instrument = obs.REGISTRY.get(name)
        return instrument.summary() if instrument is not None else {
            "count": 0, "p50": 0, "p99": 0}

    # Solo baseline: one reader, nobody else on the box.
    obs.reset()
    solo_server = build_server()
    solo_torn = {}
    reader_pass(solo_server, solo_torn, 0)
    solo_read = summary("server.read.latency.ns")
    solo_server.close()

    # The contended run.
    obs.reset()
    cap = readers + writers + 2
    server = build_server(max_sessions=cap)
    torn_counts = {}
    threads = [threading.Thread(target=reader_pass,
                                args=(server, torn_counts, i))
               for i in range(readers)]
    threads += [threading.Thread(target=writer_pass, args=(server, i))
                for i in range(writers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    read_latency = summary("server.read.latency.ns")
    write_latency = summary("server.write.latency.ns")
    lease_wait = summary("server.lease.wait.ns")

    # Overload: fill every admission slot, then the N+1-th must shed
    # with the typed refusal (bounded degradation, not a hang).
    held = [server.open_session("read") for _ in range(cap)]
    overload_typed, retry_after = False, 0.0
    try:
        server.open_session("read")
    except Overloaded as exc:
        overload_typed, retry_after = True, exc.retry_after
    for session in held:
        session.close()

    server.checkpoint_now()
    result = recover(server.backend)
    dead_letters = len(server.leases.drain_dead_letters())
    registry = obs.REGISTRY
    record = {
        "readers": readers,
        "writers": writers,
        "rounds": rounds,
        "scale": scale,
        "elapsed_seconds": round(elapsed, 4),
        "read_latency_ns": read_latency,
        "write_latency_ns": write_latency,
        "lease_wait_ns": lease_wait,
        "solo_read_latency_ns": solo_read,
        # Solo p50 over contended p50: 1.0 means snapshot readers kept
        # their solo latency under writer load.  Machine-independent.
        "reader_p50_retention": round(
            solo_read["p50"] / max(read_latency["p50"], 1), 3),
        "lease_grants": registry.value("server.lease.grants"),
        "lease_contended": registry.value("server.lease.contended"),
        "lease_expirations":
            registry.value("server.lease.expirations"),
        "dead_letters": dead_letters,
        "snapshot_materializations":
            registry.value("server.snapshot.materializations"),
        "snapshot_advances":
            registry.value("server.snapshot.advances"),
        "snapshot_cache_hits":
            registry.value("server.snapshot.cache_hits"),
        "torn_reads": sum(torn_counts.values()) +
            sum(solo_torn.values()),
        "errors": len(errors),
        "error_samples": errors[:3],
        "overload_typed": overload_typed,
        "overload_retry_after": retry_after,
        "committed_writes": writers * rounds,
        "recovery_relabels": result.relabels,
        "recovery_nodes": result.engine.node_count(),
    }
    server.close()
    obs.reset()
    return record


def _print_concurrency(record):
    print(f"\nconcurrency (sessions: {record['readers']} readers + "
          f"{record['writers']} writers x {record['rounds']}, "
          f"scale {record['scale']}):")
    read, write = record["read_latency_ns"], record["write_latency_ns"]
    print(f"  read latency:  p50 {read['p50']/1000:.1f} us, "
          f"p99 {read['p99']/1000:.1f} us ({read['count']} requests)")
    print(f"  write latency: p50 {write['p50']/1000:.1f} us, "
          f"p99 {write['p99']/1000:.1f} us ({write['count']} commits)")
    print(f"  reader p50 retention vs solo: "
          f"{record['reader_p50_retention']:.2f}x")
    print(f"  lease: {record['lease_grants']} grants "
          f"({record['lease_contended']} contended, "
          f"{record['lease_expirations']} expirations, "
          f"{record['dead_letters']} dead letters)")
    print(f"  snapshots: {record['snapshot_materializations']} "
          f"recovered, {record['snapshot_advances']} advanced, "
          f"{record['snapshot_cache_hits']} cache hits")
    print(f"  isolation: {record['torn_reads']} torn reads, "
          f"{record['recovery_relabels']} relabels on recovery, "
          f"{record['errors']} errors")
    print(f"  overload: typed shed "
          f"{'yes' if record['overload_typed'] else 'NO'} "
          f"(retry_after {record['overload_retry_after']:.3f}s)")


def _print_durability(record):
    print(f"\ndurability (WAL + recovery, scale {record['scale']}, "
          f"{record['operations']} ops):")
    print(f"  inserts/sec plain      {record['ops_plain']:>12.0f}")
    print(f"  inserts/sec wal        {record['ops_wal']:>12.0f} "
          f"({record['wal_overhead']:.2f}x of plain)")
    print(f"  inserts/sec wal+fsync  {record['ops_wal_fsync']:>12.0f} "
          f"({record['wal_fsync_overhead']:.2f}x of plain)")
    print(f"  wal: {record['wal_records']} records, "
          f"{record['wal_bytes']} bytes")
    print(f"  checkpoint: {record['checkpoint_seconds']*1000:.1f} ms "
          f"({record['image_bytes']} bytes)")
    print(f"  recovery:   {record['recovery_seconds']*1000:.1f} ms "
          f"({record['recovery_replayed']} records replayed, "
          f"{record['recovery_relabels']} relabels)")
    bulk = record["bulk_load"]
    print(f"  bulk load ({bulk['nodes']} nodes): "
          f"{bulk['bulk_seconds']*1000:.1f} ms with "
          f"{bulk['bulk_wal_records']} wal records vs "
          f"{bulk['incremental_seconds']*1000:.1f} ms / "
          f"{bulk['incremental_wal_records']} records incremental "
          f"({bulk['bulk_vs_incremental']:.2f}x)")
    modes = record["checkpoint_modes"]
    print(f"  checkpoint modes (scale {modes['scale']}, "
          f"{modes['batches']}x{modes['operations_per_batch']} ops, "
          f"~{modes['dirty_blocks_per_batch']}/"
          f"{modes['blocks_total']} blocks dirty): "
          f"incremental {modes['checkpoint_incremental_seconds']*1000:.1f} "
          f"ms vs monolithic "
          f"{modes['checkpoint_monolithic_seconds']*1000:.1f} ms "
          f"({modes['checkpoint_incremental_vs_monolithic']:.1f}x)")


def _print_indexes(records, ddl):
    header = (f"\n{'indexes (case)':14} {'path':34} {'scale':>5} "
              f"{'scan':>10} {'index':>10} {'speedup':>8}")
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{r['case']:14} {r['path']:34} {r['scale']:>5} "
              f"{r['ops_scan']:>10.0f} {r['ops_index']:>10.0f} "
              f"{r['index_vs_scan']:>7.2f}x")
    print(f"  ddl invalidation: affected plan "
          f"{'invalidated' if ddl['exactly_affected_invalidated'] else 'NOT invalidated'}, "
          f"unaffected plan "
          f"{'restamped' if ddl['unaffected_restamped'] else 'NOT restamped'}")


def _print_cost(records, gate):
    header = (f"\n{'cost model (path)':40} {'scale':>5} "
              f"{'strategy':>9} {'vs struct':>9} {'vs scan':>8} "
              f"{'vs naive':>9} {'wins':>5}")
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{r['path']:40} {r['scale']:>5} "
              f"{r['strategy']:>9} {r['cost_vs_structural']:>8.2f}x "
              f"{r['cost_vs_scan_policy']:>7.2f}x "
              f"{r['cost_vs_naive_policy']:>8.2f}x "
              f"{'yes' if r['beats_every_fixed'] else '-':>5}")
    print(f"  cost_beats_fixed: "
          f"{'MET' if gate['cost_beats_fixed'] else 'NOT MET'} "
          f"(outright win somewhere: "
          f"{gate['any_query_beats_every_fixed']}, never >10% slower "
          f"than structural: "
          f"{gate['never_slower_than_structural_10pct']})")


def _print_metrics(metrics):
    registry = metrics["registry"]
    workload = metrics["numbering_workload"]
    print(f"\nmetrics (observability pass, scale {metrics['scale']}):")
    for name in sorted(registry):
        print(f"  {name:44s} {registry[name]}")
    print(f"  numbering workload: {workload['operations']} ops on "
          f"{workload['scheme']} -> {workload['relabels']} relabels")


def _print_obs_overhead(overhead):
    print(f"\nobs overhead (telemetry on vs off, cached route, "
          f"scale {overhead['scale']}):")
    for r in overhead["records"]:
        print(f"  {r['path']:32} {r['ops_telemetry_off']:>10.0f} -> "
              f"{r['ops_telemetry_on']:>10.0f} ops/sec "
              f"({r['overhead_pct']:+.2f}%)")
    print(f"  aggregate: {overhead['overhead_pct']:+.2f}% "
          f"({'under' if overhead['under_5pct'] else 'OVER'} "
          f"the 5% budget)")


def _print_table(records):
    header = (f"{'path':32} {'scale':>5} {'naive':>10} "
              f"{'uncached':>10} {'cached':>10} {'exec':>10} "
              f"{'lookup%':>8} {'vs unc.':>8} {'vs naive':>9}")
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{r['path']:32} {r['scale']:>5} "
              f"{r['ops_naive']:>10.0f} {r['ops_schema_driven']:>10.0f} "
              f"{r['ops_cached_plan']:>10.0f} "
              f"{r['ops_compiled_exec']:>10.0f} "
              f"{r['lookup_share'] * 100:>7.1f}% "
              f"{r['cached_vs_uncached']:>7.2f}x "
              f"{r['cached_vs_naive']:>8.2f}x")


def _print_conformance_table(records):
    header = (f"\n{'conformance (VAL, §6.2)':24} {'scale':>6} "
              f"{'nodes':>7} {'tree':>10} {'storage':>10} {'ratio':>7}")
    print(header)
    print("-" * len(header))
    for r in records:
        print(f"{'check_store ops/sec':24} {r['scale']:>6} "
              f"{r['nodes']:>7} {r['ops_tree_store']:>10.0f} "
              f"{r['ops_storage_store']:>10.0f} "
              f"{r['tree_vs_storage']:>6.2f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_query.json")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON report")
    parser.add_argument("--smoke", action="store_true",
                        help="single tiny scale, few rounds (for CI)")
    parser.add_argument("--profile", action="store_true",
                        help="dump cProfile top-20 per query group")
    args = parser.parse_args(argv)

    if args.smoke:
        records = run(scales=SMOKE_SCALES, repeats=2, rounds=5)
        indexes = run_indexes(scales=INDEX_SMOKE_SCALES,
                              repeats=2, rounds=5)
        cost = run_cost(scales=INDEX_SMOKE_SCALES, repeats=2, rounds=5)
        conformance = run_conformance(scales=SMOKE_SCALES,
                                      repeats=2, rounds=2)
        metrics = run_metrics(scale=SMOKE_SCALES[0],
                              workload_operations=50)
        durability = run_durability(scale=SMOKE_SCALES[0],
                                    operations=40,
                                    checkpoint_scale=100)
        overhead = run_obs_overhead(scale=100, repeats=2, rounds=5)
        concurrency = run_concurrency(readers=2, writers=1,
                                      rounds=5, scale=10)
        scales = SMOKE_SCALES
    else:
        records = run()
        indexes = run_indexes()
        cost = run_cost()
        conformance = run_conformance()
        metrics = run_metrics(scale=100)
        durability = run_durability(scale=100, operations=400,
                                    checkpoint_scale=1000)
        overhead = run_obs_overhead(scale=1000)
        concurrency = run_concurrency(readers=4, writers=2,
                                      rounds=25, scale=50)
        scales = DEFAULT_SCALES
    ddl = ddl_invalidation_check()
    cost_summary = cost_gate(cost)
    _print_table(records)
    _print_indexes(indexes, ddl)
    _print_cost(cost, cost_summary)
    _print_conformance_table(conformance)
    _print_durability(durability)
    _print_concurrency(concurrency)
    _print_metrics(metrics)
    _print_obs_overhead(overhead)
    if args.profile:
        run_profile(scale=SMOKE_SCALES[0] if args.smoke else 1000,
                    rounds=10 if args.smoke else 50)

    if args.json or args.output is not None:
        output = args.output or \
            Path(__file__).resolve().parent.parent / "BENCH_query.json"
        speedups = [r["cached_vs_uncached"] for r in records]
        naive_floors = {
            str(scale): min(r["cached_vs_naive"] for r in records
                            if r["scale"] == scale)
            >= cached_vs_naive_floor(scale)
            for scale in sorted({r["scale"] for r in records})}
        value_speedups = [r["index_vs_scan"] for r in indexes
                          if r["case"].startswith("value")
                          and r["scale"] >= 100]
        report = {
            "experiment": "query plan compilation + caching (XP/§9.2)",
            "meta": run_metadata(scales, args.smoke),
            "query_paths": list(QUERY_PATHS),
            "records": records,
            "indexes": {
                "records": indexes,
                "ddl_invalidation": ddl,
            },
            "cost_model": {
                "records": cost,
                "gate": cost_summary,
            },
            "conformance_records": conformance,
            "durability": durability,
            "concurrency": concurrency,
            "metrics": metrics,
            "obs_overhead": overhead,
            "summary": {
                # The always-on telemetry tier must stay invisible on
                # the hot path: <5% slowdown on the cached route.
                "obs_overhead_under_5pct": overhead["under_5pct"],
                # Typed-value probes must beat the schema-driven scan
                # by >= 3x on the value-predicate cases at scale >= 100
                # (the path-merge case is gated separately: it only has
                # to win, since the scan baseline is already block-
                # local).
                "index_speedup_3x_met": bool(value_speedups) and
                    min(value_speedups) >= 3.0,
                # The cost-based planner must pay for itself: at least
                # one corpus query where it outruns every fixed policy
                # (structural / scan / naive), and no corpus query
                # where it is more than 10% slower than the structural
                # precedence it replaced.  Both sides read median-of-k
                # interleaved ratios, not best-of quotients.
                "cost_beats_fixed": cost_summary["cost_beats_fixed"],
                "ddl_invalidation_exact": (
                    ddl["exactly_affected_invalidated"]
                    and ddl["unaffected_restamped"]),
                "bulk_load_faster": (
                    durability["bulk_load"]["bulk_vs_incremental"]
                    > 1.0),
                # Incremental (dirty-block) checkpoints into SQLite
                # must leave monolithic full-image rewrites far
                # behind; the 10x floor applies to the full run's
                # scale-1000 comparison (smoke runs a smaller scale
                # and merely has to win).
                "checkpoint_incremental_vs_monolithic": (
                    durability["checkpoint_modes"]
                    ["checkpoint_incremental_vs_monolithic"]),
                "checkpoint_incremental_10x_met": (
                    durability["checkpoint_modes"]
                    ["checkpoint_incremental_vs_monolithic"] >= 10.0),
                # The session layer's isolation contract under an
                # N-reader/M-writer storm: every pinned view frozen,
                # recovery relabel-free, and load past the admission
                # caps shed with the typed refusal.
                "concurrency_zero_relabels": (
                    concurrency["recovery_relabels"] == 0),
                "concurrency_no_torn_reads": (
                    concurrency["torn_reads"] == 0
                    and concurrency["errors"] == 0),
                "concurrency_overload_typed": (
                    concurrency["overload_typed"]),
                # Cached vs uncached is the same pipeline with and
                # without the parse and plan caches, so it prices the
                # two caches alone: large where planning dominates
                # (small scales — somewhere the campaign must show at
                # least 2x), tending to 1x as execution takes over.
                "max_cached_vs_uncached": max(speedups),
                "min_cached_vs_uncached": min(speedups),
                "speedup_2x_met": max(speedups) >= 2.0,
                # The floor sits on the planned pipeline vs the one
                # oracle (per-descriptor navigation), per scale.
                "min_cached_vs_naive": min(
                    r["cached_vs_naive"] for r in records),
                "cached_vs_naive_floor_per_scale": naive_floors,
                "cached_vs_naive_floors_met": all(naive_floors.values()),
            },
        }
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {output}")
    return records


if __name__ == "__main__":
    main()
