"""Path evaluation over both representations of a document.

One interpreter.  The navigational semantics is written **once**,
against the :class:`~repro.xdm.store.NodeStore` accessor protocol
(:func:`evaluate_store`); the representations differ only in which
store interprets the node references:

* :func:`evaluate_tree` — the formal node model, via
  :class:`~repro.xdm.store.TreeNodeStore` (the semantics reference);
* :meth:`StorageQueryEngine.evaluate_naive` — the Sedna storage, via
  :class:`~repro.storage.store.StorageNodeStore` (descriptor chasing):
  the oracle the production route is tested against.

One order.  A path result is a sequence in document order — ``<<``,
total by §7 — and the interpreter says so once, through the store's
:meth:`~repro.xdm.store.NodeStore.in_document_order`: the tree, the
storage oracle and every planner policy return the same list, not just
the same set.

One production route.  :meth:`StorageQueryEngine.evaluate` is Sedna's
trick (Section 9.1-9.2) as a pipeline: parse, match the path against
the *descriptive schema* and enumerate the candidate plans
(:mod:`repro.query.planner`), select one by policy, lower it to a
closure chain (:mod:`repro.query.compiled`) and run that — scanning
the blocks of only the matching schema nodes, in document order.
Plans are cached by the request as the caller sent it, so a repeated
string is one lock-free lookup and never parses; a miss on a path
shape the planner knows (a new literal) builds its path and plan from
the shape's entry without a parse, and only the rest visit the parse
cache.  Every cache evicts the least recently used entry
(:mod:`repro.query.cache`).  :meth:`StorageQueryEngine.
evaluate_schema_driven` forces the same pipeline with every cache
bypassed.

The route agreeing node-for-node, in order, with the interpreter is an
integration test of the whole Section 9 layer against the Section 5/6
model; how many fewer descriptors it visits is the XP claim of
``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro import obs
from repro.obs import explain as _explain
from repro.xdm.node import Node
from repro.xdm.store import TREE_STORE, NodeStore, Ref
from repro.storage.dschema import SchemaNode
from repro.storage.engine import NodeDescriptor, StorageEngine
from repro.storage.store import StorageNodeStore
from repro.query.cache import (
    PLAN_CACHE_CAPACITY,
    cached_parse_path,
    parse_cache_stats,
)
from repro.query.planner import CompiledPlan, QueryPlanner, match_schema_nodes
from repro.query.paths import (
    AttributePredicate,
    ChildPredicate,
    Path,
    PositionPredicate,
    Step,
    parse_path,
)


def _as_path(path: "Path | str") -> Path:
    return cached_parse_path(path) if isinstance(path, str) else path


# ----------------------------------------------------------------------
# The one navigational semantics, over any NodeStore


def evaluate_store(store: NodeStore, path: "Path | str",
                   root: Ref = None) -> list[Ref]:
    """Evaluate *path* over *store*, starting at *root* (default: the
    store's document reference).

    ``a//x`` is ``a/descendant-or-self::node()/child::x``, as in
    XPath: the context is never a match of its own ``//`` step (its
    attributes are, for ``//@a``).  Predicates are applied per parent,
    so ``book[2]`` and ``//book[2]`` both mean "the second book child
    of each parent"; the result is a sequence in document order
    (``<<``, §7), whatever the store.
    """
    path = _as_path(path)
    if root is None:
        root = store.root()
    return navigate_steps(store, [root], path.steps)


def navigate_steps(store: NodeStore, current: list[Ref],
                   steps: "tuple[Step, ...]") -> list[Ref]:
    """Per-step navigation from the *current* context references,
    deduplicated on the store's stable node keys; the result is a
    sequence in ``<<`` (:meth:`NodeStore.in_document_order`).

    EXPLAIN accounting rides on the calling thread's collecting
    record — one ``is None`` test per parent when no explain is
    collecting, so the kernel stays within the no-op overhead budget.
    """
    context = _explain.current() if _explain.COLLECTING else None
    for step in steps:
        if context is not None:
            context.axis_steps += 1
        bucket: list[Ref] = []
        seen: set = set()
        for ref in current:
            for candidates in _step_candidates(store, ref, step):
                matched = [candidate for candidate in candidates
                           if _step_accepts(store, candidate, step)]
                if context is not None:
                    context.nodes_visited += len(matched)
                for candidate in apply_step_predicates(store, matched,
                                                       step.predicates):
                    key = store.node_key(candidate)
                    if key not in seen:
                        seen.add(key)
                        bucket.append(candidate)
        current = bucket
    return store.in_document_order(current)


def apply_step_predicates(store: NodeStore, candidates: list[Ref],
                          predicates) -> list[Ref]:
    for predicate in predicates:
        if isinstance(predicate, PositionPredicate):
            if predicate.index is None:
                candidates = candidates[-1:]
            elif predicate.index <= len(candidates):
                candidates = [candidates[predicate.index - 1]]
            else:
                candidates = []
        else:
            candidates = [ref for ref in candidates
                          if predicate_holds(store, ref, predicate)]
    return candidates


def predicate_holds(store: NodeStore, ref: Ref, predicate) -> bool:
    if isinstance(predicate, AttributePredicate):
        for attribute in store.attributes(ref):
            if store.local_name(attribute) == predicate.name:
                return (predicate.value is None
                        or store.string_value(attribute)
                        == predicate.value)
        return False
    if isinstance(predicate, ChildPredicate):
        for child in store.children(ref):
            if store.local_name(child) == predicate.name:
                if (predicate.value is None
                        or store.string_value(child) == predicate.value):
                    return True
        return False
    raise TypeError(f"unknown predicate {predicate!r}")


def _step_candidates(store: NodeStore, ref: Ref,
                     step: Step) -> "Iterable[list[Ref]]":
    """The nodes *step* tests from *ref*, one list per parent — what a
    position counts over.  ``//`` is
    ``descendant-or-self::node()/child::``: the children (attributes,
    for ``//@a``) of *ref* and of every node below it."""
    axis = store.attributes if step.kind == "attribute" else store.children
    if step.axis == "child":
        return (axis(ref),)
    return map(axis, store.descendants_of(ref))


def _step_accepts(store: NodeStore, ref: Ref, step: Step) -> bool:
    kind = store.node_kind(ref)
    if step.kind == "text":
        return kind == "text"
    if step.kind == "attribute":
        return (kind == "attribute"
                and step.matches_name(store.local_name(ref)))
    if kind != "element":
        return False
    return step.matches_name(store.local_name(ref))


# ----------------------------------------------------------------------
# Evaluation over the formal node model


def evaluate_tree(root: Node, path: "Path | str") -> list[Node]:
    """Evaluate *path* against a tree; *root* is the document node (or
    the element standing in for it)."""
    return evaluate_store(TREE_STORE, path, root)


# ----------------------------------------------------------------------
# Evaluation over the storage engine


class StorageQueryEngine:
    """Path queries over a loaded :class:`StorageEngine`.

    The engine owns a
    :class:`~repro.query.planner.QueryPlanner` whose plan cache makes
    repeated queries skip parsing and schema matching entirely:
    :meth:`evaluate` is the cached entry point, and :meth:`cache_stats`
    surfaces hit/miss/invalidation counters next to the storage
    engine's split/insert instrumentation.
    """

    def __init__(self, engine: StorageEngine,
                 plan_cache_capacity: int = PLAN_CACHE_CAPACITY,
                 planner_policy: str = "cost") -> None:
        self._engine = engine
        self._store = StorageNodeStore(engine)
        #: *planner_policy* selects how strategies are chosen (see
        #: :data:`repro.query.planner.POLICIES`): ``cost`` (default)
        #: prices candidates from the engine statistics; the forced
        #: policies exist for benchmarks and parity testing.
        self._planner = QueryPlanner(engine, plan_cache_capacity,
                                     policy=planner_policy)
        # Held directly so the hot path skips the registry lookups;
        # obs.reset() zeroes instruments in place, so these stay live.
        self._evaluations = obs.REGISTRY.counter("query.evaluations")
        self._latency = obs.REGISTRY.histogram("query.latency.ns")

    @property
    def engine(self) -> StorageEngine:
        return self._engine

    @property
    def store(self) -> StorageNodeStore:
        """The accessor-protocol view of the underlying engine."""
        return self._store

    # -- compiled-plan entry points -------------------------------------

    def compile(self, path: "Path | str") -> CompiledPlan:
        """The cached compiled plan for *path* (compiling on miss)."""
        return self._planner.compile(path)

    def evaluate(self, path: "Path | str") -> list[NodeDescriptor]:
        """Evaluate through the plan cache — the hot entry point.

        Every call is counted and timed into the ``query.latency.ns``
        histogram.  With diagnostics enabled (or the slow-query log
        armed) it also records a
        :class:`~repro.obs.explain.QueryExplain` (plan strategy, cache
        hit/miss, axis steps, nodes visited vs. returned), which
        diagnostics append to :data:`repro.obs.EXPLAINS`; otherwise
        nothing per-query is allocated.
        """
        record = None
        if obs.ENABLED or obs.SLOW_QUERY_NS is not None:
            record = _explain.begin(str(path))
        try:
            started = time.perf_counter_ns()
            result = self._planner.compile(path).execute_compiled(self)
            elapsed_ns = time.perf_counter_ns() - started
        finally:
            # try/finally, not ``with``: the hot path (nothing
            # collecting) then pays for no context manager.
            if record is not None:
                _explain.end(record)
        self._evaluations.inc()
        self._latency.observe(elapsed_ns)
        if record is not None:
            self._report_explained(record, len(result), elapsed_ns)
        return result

    def _report_explained(self, record: _explain.QueryExplain,
                          nodes_returned: int, elapsed_ns: int) -> None:
        record.elapsed_s = elapsed_ns / 1e9
        record.nodes_returned = nodes_returned
        registry = obs.REGISTRY
        if obs.ENABLED:
            obs.EXPLAINS.append(record)
            if record.compiled:
                registry.counter("query.exec.compiled.hits").inc()
            registry.counter("query.axis_steps").inc(record.axis_steps)
            registry.counter("query.nodes_visited").inc(
                record.nodes_visited)
            registry.counter("query.nodes_returned").inc(
                record.nodes_returned)
        threshold = obs.SLOW_QUERY_NS
        if threshold is not None and elapsed_ns >= threshold:
            # The complete EXPLAIN rides in the event record — the
            # slow-query log needs no second evaluation to diagnose.
            registry.counter("query.slow").inc()
            obs.EVENTS.emit("query.slow", severity="warn",
                            **record.as_dict())

    def cache_stats(self) -> dict[str, float]:
        """Plan- and parse-cache counters for the benchmark harness."""
        plan = self._planner.stats()
        parse = parse_cache_stats()
        return {
            "plan_hits": plan.hits,
            "plan_misses": plan.misses,
            "plan_invalidations": plan.invalidations,
            "plan_evictions": plan.evictions,
            "plan_size": plan.size,
            "plan_hit_rate": plan.hit_rate,
            "parse_hits": parse.hits,
            "parse_misses": parse.misses,
            "parse_hit_rate": parse.hit_rate,
        }

    def clear_caches(self) -> None:
        """Drop the plan cache and zero its counters."""
        self._planner.clear()

    # -- the oracle: navigate descriptors -------------------------------

    def evaluate_naive(self, path: "Path | str") -> list[NodeDescriptor]:
        """:func:`evaluate_store` over the storage — the one
        interpreter, kept as the oracle the pipeline is tested against
        (and what a ``naive`` plan runs).  Parses afresh: it models the
        engine *without* the caching layer and must not borrow its
        parse cache."""
        if isinstance(path, str):
            path = parse_path(path)
        if self._engine.document is None:
            return []
        return evaluate_store(self._store, path)

    # -- Sedna's way: match the descriptive schema first -----------------

    def matching_schema_nodes(self, path: "Path | str") -> list[SchemaNode]:
        """Schema nodes whose root path matches *path*."""
        path = _as_path(path)
        return match_schema_nodes(self._engine.schema.root, path.steps)

    def evaluate_schema_driven(self, path: "Path | str"
                               ) -> list[NodeDescriptor]:
        """:meth:`evaluate` with every cache bypassed.

        Because every document path has exactly one schema path (the
        defining property of Section 9.1), scanning the block lists of
        the matching schema nodes yields exactly the query result — no
        per-node navigation.  This forces the whole of that pipeline on
        every call — fresh parse, candidate enumeration and selection
        under the engine's policy, lowering, execution — where
        :meth:`evaluate` skips all but the last while the engine's
        plan epoch has not moved.
        """
        if isinstance(path, str):
            path = parse_path(path)
        return self._planner.compile_uncached(path).execute_compiled(self)
