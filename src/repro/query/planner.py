"""Query plan compilation against the descriptive schema.

Section 9's pitch is that the descriptive schema lets the engine
answer a path query by scanning only the blocks of the matching schema
nodes.  This module is the planning half of the one query pipeline
(parse → **enumerate candidates → select by policy** → lower →
execute): it compiles a path **once** into a :class:`CompiledPlan` —
the matched schema nodes plus an execution strategy — and caches the
plan keyed by the request as the caller passed it.  A plan has one
way to run, the closure chain :mod:`repro.query.compiled` lowers it
to (:meth:`CompiledPlan.execute_compiled`).  Because every
document path has exactly one schema path (the defining property of
Section 9.1), a plan stays valid until the schema itself grows: pure
data inserts add descriptors to existing block lists, which the plan's
live block scan picks up for free.

That stability is what a cache hit costs: one compare of the plan's
:attr:`~CompiledPlan.epoch` with the engine's ``plan_epoch``, the
single integer every source of staleness (schema growth, index DDL,
statistics drift) bumps.  It is the only freshness stamp a plan
carries: a plan whose epoch fell behind is compiled afresh and
replaces its cache entry.

Strategies, from fastest to slowest:

* ``empty`` — no schema node can match (including structural pruning:
  a predicate like ``[@isbn]`` on a schema node with no ``@isbn``
  schema child can never hold, Section 9.1 again), so the result is
  ``[]`` with no data access at all;
* ``scan`` — scan the block lists of the matched schema nodes and
  apply final-step predicates per instance;
* ``hybrid`` — the path has predicates on an *inner* step: scan the
  blocks for the prefix ending at that step, filter instances, then
  navigate only the remaining steps;
* ``naive`` — per-descriptor navigation by the one interpreter
  (:func:`repro.query.engine.evaluate_store`); required only for
  positional predicates on ``//`` steps, whose whole-selection
  grouping a flat block scan cannot reproduce.

With declared value indexes (:mod:`repro.storage.indexes`) one more
strategy slots in above ``scan``:

* ``index`` — one value predicate of the decisive step is answered by
  a typed-value index probe (equality or existence) instead of
  scanning and testing every instance.  Remaining predicates and
  suffix steps run exactly as in ``scan``/``hybrid``.

The planner enumerates **every** applicable candidate exactly once
(:func:`_candidate_plans`) — the scan/hybrid baseline, one value-index
probe per eligible predicate, and priced-naive — and a policy
(:data:`POLICIES`) is a selection rule over that list.  The default
rule is ``cost``: the cheapest under the :mod:`repro.query.cost`
model, priced from the schema nodes' own statistics.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Optional

from repro import obs
from repro.errors import TypeSystemError
from repro.obs import explain as _explain
from repro.query.cache import (
    LRUCache,
    PLAN_CACHE_CAPACITY,
    CacheStats,
    cached_parse_path,
)
from repro.query.paths import (
    AttributePredicate,
    Path,
    PositionPredicate,
    Step,
)
from repro.storage.dschema import SchemaNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.engine import StorageQueryEngine
    from repro.storage.dschema import DescriptiveSchema
    from repro.storage.engine import NodeDescriptor


# ----------------------------------------------------------------------
# Schema matching (shared by the planner and the public
# ``matching_schema_nodes`` of the query engine).


def _schema_candidates(schema_node: SchemaNode,
                       step: Step) -> Iterable[SchemaNode]:
    if step.axis == "child":
        return schema_node.children
    return schema_node.subtree()


def _schema_accepts(schema_node: SchemaNode, step: Step) -> bool:
    if step.kind == "text":
        return schema_node.node_type == "text"
    if step.kind == "attribute":
        return (schema_node.node_type == "attribute"
                and step.matches_name(schema_node.name.local))
    if schema_node.node_type != "element":
        return False
    return step.matches_name(schema_node.name.local)


def match_step(schema_nodes: "list[SchemaNode]",
               step: Step) -> "list[SchemaNode]":
    """Schema nodes one *step* below *schema_nodes* (predicates are
    ignored — this is the pure Section 9.1 path match), in first-reached
    order.

    Deduplication holds the schema nodes themselves (identity hash),
    not their transient ``id()``s.
    """
    bucket: list[SchemaNode] = []
    seen: set[SchemaNode] = set()
    for schema_node in schema_nodes:
        for candidate in _schema_candidates(schema_node, step):
            if candidate not in seen and _schema_accepts(candidate,
                                                         step):
                seen.add(candidate)
                bucket.append(candidate)
    return bucket


def schema_frontiers(root: SchemaNode, steps: "tuple[Step, ...]"
                     ) -> "list[list[SchemaNode]]":
    """The schema frontier after every step: entry 0 is ``[root]``,
    entry ``k + 1`` the schema nodes reached along ``steps[:k + 1]``."""
    frontiers = [[root]]
    for step in steps:
        frontiers.append(match_step(frontiers[-1], step))
    return frontiers


def match_schema_nodes(root: SchemaNode,
                       steps: "tuple[Step, ...]") -> list[SchemaNode]:
    """Schema nodes reached from *root* along *steps*."""
    return schema_frontiers(root, steps)[-1]


def predicate_carriers(schema_node: SchemaNode, predicate
                       ) -> "list[tuple[int, SchemaNode]]":
    """The ``(slot, schema child)`` pairs whose instances can satisfy a
    value *predicate* on instances of *schema_node*, in schema-children
    order: ``[@name…]`` is carried by the ``@name`` attribute schema
    children, ``[name…]`` by the element schema children ``name``."""
    node_type = ("attribute" if isinstance(predicate, AttributePredicate)
                 else "element")
    return [(slot, child)
            for slot, child in enumerate(schema_node.children)
            if child.node_type == node_type and child.name is not None
            and child.name.local == predicate.name]


def structurally_feasible(schema_node: SchemaNode, predicates) -> bool:
    """Can *any* instance of this schema node satisfy the predicates?

    If the descriptive schema has no child carrying a value predicate
    (:func:`predicate_carriers`), no instance anywhere has one (the
    node→schema-node mapping is surjective), so the schema node can be
    pruned without touching a single block.  Only the value predicates
    *before* the first positional one prune: a position counts the
    instances of every matched schema node, so a node whose instances
    fail a later test still has to be counted (``*[last()][@year]``).
    """
    for predicate in predicates:
        if isinstance(predicate, PositionPredicate):
            break
        if not predicate_carriers(schema_node, predicate):
            return False
    return True


# ----------------------------------------------------------------------
# Compiled plans.


class CompiledPlan:
    """One path compiled against one state of the engine's plan
    inputs (descriptive schema, indexes, statistics)."""

    __slots__ = ("path", "strategy", "scan_nodes", "split",
                 "pruned_schema_nodes", "probe", "rest_predicates",
                 "index_used", "executor", "not_lowerable_reason",
                 "cost", "cost_table", "epoch")

    def __init__(self, path: Path, strategy: str,
                 scan_nodes: tuple[SchemaNode, ...],
                 split: Optional[int],
                 pruned_schema_nodes: int,
                 probe: Optional[tuple] = None,
                 rest_predicates: tuple = (),
                 index_used: str = "") -> None:
        self.path = path
        #: "empty" | "index" | "scan" | "hybrid" | "naive".
        self.strategy = strategy
        #: Schema nodes whose block lists the plan scans ("scan": the
        #: full path; "hybrid": the prefix ending at the predicate
        #: step).
        self.scan_nodes = scan_nodes
        #: For "hybrid": index of the first inner step with predicates.
        self.split = split
        #: Schema nodes discarded by structural predicate pruning.
        self.pruned_schema_nodes = pruned_schema_nodes
        #: "index" strategy: ("eq", index, literal, via_parent) or
        #: ("exists", index, None, via_parent).
        self.probe = probe
        #: Predicates of the probed step still tested per instance.
        self.rest_predicates = rest_predicates
        #: "value:<path>" (EXPLAIN), "" otherwise.
        self.index_used = index_used
        #: Lazily lowered closure chain (:mod:`repro.query.compiled`);
        #: built on the first execution, it lives and dies with the plan.
        self.executor = None
        #: "naive" plans: why the path is handed to the navigator
        #: instead of a block scan ("" for every other strategy).
        self.not_lowerable_reason = ""
        #: The chosen candidate's :class:`~repro.query.cost.CostEstimate`
        #: (None when the plan was picked structurally).
        self.cost = None
        #: Every priced candidate, chosen one flagged — the EXPLAIN
        #: cost table.
        self.cost_table: tuple = ()
        #: The engine's ``plan_epoch`` read before this plan compiled —
        #: its only freshness stamp, the one compare of a cache hit
        #: (-1: not cached yet; the engine's epoch is never negative).
        self.epoch = -1

    def execute_compiled(self, queries: "StorageQueryEngine"
                         ) -> "list[NodeDescriptor]":
        """Run the plan over the engine's *current* data, through its
        lowered closure chain.

        Lowering happens once, on the first execution, and the
        resulting :class:`~repro.query.compiled.CompiledExecutor` is
        pinned to the plan: the cache replaces the whole plan once the
        engine's plan epoch moves, so a live executor is always
        consistent with the bindings it closed over.  The block scans
        are live, so descriptors inserted after compilation are found
        as long as the schema has not grown (which the plan cache
        checks before handing out a plan).
        """
        executor = self.executor
        if executor is None:
            from repro.query.compiled import lower
            executor = self.executor = lower(self, queries)
        if _explain.COLLECTING:
            context = _explain.current()
            if context is not None:
                return executor.run_explained(queries, context)
        return executor.run(queries)

    def __repr__(self) -> str:
        return (f"CompiledPlan({self.path!r}, {self.strategy}, "
                f"{len(self.scan_nodes)} schema nodes)")


#: Deterministic tie-break when candidates price equal: the historical
#: structural precedence (probe > scan/hybrid > naive).
_STRATEGY_RANK = {"empty": 0, "index": 1, "scan": 2, "hybrid": 3,
                  "naive": 4}

#: Planner policies — four selection rules over the one candidate
#: enumeration (:func:`_candidate_plans`): ``cost`` prices every
#: candidate and takes the cheapest; ``structural`` takes the
#: historical fixed precedence
#: (a probe on the first predicate > scan/hybrid); ``scan`` takes the
#: scan/hybrid base candidate and never probes an index; ``naive``
#: takes the navigating candidate.  Where the enumeration has a single
#: entry (the schema proves the path empty, or only the navigator is
#: sound) every rule selects it.  The forced policies exist for the
#: benchmark harness and the parity tests — every policy returns the
#: same rows.
POLICIES = ("cost", "structural", "scan", "naive")


def compile_plan(path: Path, schema: "DescriptiveSchema",
                 indexes=None, block_capacity: int = 64,
                 policy: str = "cost") -> CompiledPlan:
    """Compile *path* against the current schema (no caching here).

    *indexes* is the engine's :class:`IndexManager` (or None: no probe
    candidates).  Under the ``cost`` *policy* every candidate is
    priced under :mod:`repro.query.cost` and the cheapest wins.
    """
    with obs.TRACER.span("query.plan.compile", path=path):
        plan = _select_plan(path, schema, indexes, block_capacity,
                            policy)
    obs.REGISTRY.counter("query.plan.compiles").inc()
    obs.REGISTRY.counter(f"query.plan.strategy.{plan.strategy}").inc()
    if plan.pruned_schema_nodes:
        obs.REGISTRY.counter("query.plan.pruned_schema_nodes").inc(
            plan.pruned_schema_nodes)
    return plan


def _select_plan(path: Path, schema: "DescriptiveSchema", indexes,
                 block_capacity: int, policy: str) -> CompiledPlan:
    """Enumerate the candidates once, then apply *policy*'s rule."""
    candidates, structural_pick, frontiers = _candidate_plans(
        path, schema, indexes)
    if policy == "cost":
        pick = _cheapest(candidates, structural_pick, frontiers,
                         block_capacity)
    elif policy == "scan":
        pick = 0
    elif policy == "naive":
        pick = len(candidates) - 1
    else:
        pick = structural_pick
    return candidates[pick]


def _naive_plan(path: Path, reason: str) -> CompiledPlan:
    plan = CompiledPlan(path, "naive", (), None, 0)
    plan.not_lowerable_reason = reason
    return plan


def _candidate_plans(path: Path, schema: "DescriptiveSchema", indexes
                     ) -> "tuple[list[CompiledPlan], int, list]":
    """Every strategy that can answer *path*, the index of the
    candidate the historical structural precedence picks, and the
    per-step schema frontiers (:func:`schema_frontiers`) the cost model
    prices from.

    What a block scan can answer is a property of the path fragment
    (Fletcher, Gyssens, Paredaens, Van Gucht, Wu — PAPERS.md): downward
    steps with per-node predicates lower to scans, probes and sweeps;
    a positional predicate on a ``//`` step selects over the *whole*
    descendant selection, which no flat scan (or probe) reproduces, so
    such a path has one candidate — the navigator.  A path the schema
    proves unmatchable likewise has one candidate, ``empty``.

    Otherwise the list holds, in order, the scan/hybrid base, one
    ``index`` candidate per eligible value-index probe (any prefix of
    non-positional predicates may be probed, not just the first — the
    remaining predicates commute as pure filters), and last the priced
    ``naive`` — all shapes :mod:`repro.query.compiled` lowers.
    """
    steps = path.steps
    frontiers = schema_frontiers(schema.root, steps)
    for step in steps:
        if (step.axis == "descendant-or-self"
                and any(isinstance(p, PositionPredicate)
                        for p in step.predicates)):
            return [_naive_plan(
                path, "positional predicate on a descendant step needs "
                "whole-selection navigation")], 0, frontiers
    split: Optional[int] = None
    for index, step in enumerate(steps[:-1]):
        if step.predicates:
            split = index
            break
    predicates = steps[-1 if split is None else split].predicates
    matched = frontiers[-1 if split is None else split + 1]
    pruned = 0
    if predicates:
        feasible = [node for node in matched
                    if structurally_feasible(node, predicates)]
        pruned = len(matched) - len(feasible)
        matched = feasible
    if not matched:
        empty = CompiledPlan(path, "empty", (), split, pruned)
        return [empty], 0, frontiers
    candidates = [CompiledPlan(path, "scan" if split is None else "hybrid",
                               tuple(matched), split, pruned)]
    structural_pick = 0
    if indexes is not None and indexes.active and predicates \
            and len(matched) == 1:
        for position, predicate in enumerate(predicates):
            if isinstance(predicate, PositionPredicate):
                # A probe answers its predicate *first*; value
                # predicates commute around it, positional ones do not
                # — stop at the first positional.
                break
            probe = _plan_probe(indexes, matched[0], predicate)
            if probe is None:
                continue
            rest = predicates[:position] + predicates[position + 1:]
            candidates.append(CompiledPlan(
                path, "index", tuple(matched), split, pruned,
                probe=probe, rest_predicates=rest,
                index_used=f"value:{probe[1].definition.path}"))
            if position == 0:
                # Structural precedence probed the first predicate.
                structural_pick = len(candidates) - 1
    candidates.append(_naive_plan(path, "naive candidate navigates"))
    return candidates, structural_pick, frontiers


def _plan_probe(indexes, schema_node: SchemaNode, predicate
                ) -> Optional[tuple]:
    """A value-index probe answering *predicate* on instances of
    *schema_node*, or None.

    Returns ``(mode, index, literal, via_parent)`` with *mode* ``"eq"``
    or ``"exists"``.  The probe is offered only when the predicate's
    local name resolves to exactly one schema child — with several
    same-named children (different namespaces) an index on one of them
    would under-report the evaluator's local-name semantics — and, for
    ``eq``, only when the literal has a typed value: its key then files
    every owner whose stored value is the literal, and an untyped
    literal could still match the untyped owners no key files.
    """
    carriers = predicate_carriers(schema_node, predicate)
    if len(carriers) != 1:
        return None
    carrier = carriers[0][1]
    via_parent = carrier.node_type == "element"
    index = indexes.index_on(carrier)
    if index is None or index.attribute is via_parent:
        return None
    if predicate.value is None:
        return ("exists", index, None, via_parent)
    try:
        index.parse_key(predicate.value)
    except TypeSystemError:
        return None
    return ("eq", index, predicate.value, via_parent)


def _cheapest(candidates: "list[CompiledPlan]", structural_pick: int,
              frontiers: list, block_capacity: int) -> int:
    """Price every candidate; index of the cheapest (the ``cost``
    rule).  The winner carries the cost table."""
    from repro.query.cost import CostModel
    model = CostModel(block_capacity)
    table = []
    for candidate in candidates:
        candidate.cost = model.price(candidate, frontiers)
        table.append(candidate.cost)
    best = min(
        range(len(candidates)),
        key=lambda i: (table[i].total,
                       _STRATEGY_RANK[candidates[i].strategy], i))
    plan = candidates[best]
    table[best].chosen = True
    plan.cost_table = tuple(table)
    registry = obs.REGISTRY
    registry.counter("query.cost.priced").inc()
    registry.counter("query.cost.candidates").inc(len(table))
    registry.counter(f"query.cost.chosen.{plan.strategy}").inc()
    if best != structural_pick:
        registry.counter("query.cost.overrides").inc()
    return best


def _describe(plan: CompiledPlan, outcome: str) -> None:
    """The planner's EXPLAIN fields for *plan* (*outcome*: ``hit``,
    ``miss`` or ``invalidated``), into this thread's collecting record
    if it has one.  Callers test ``_explain.COLLECTING`` first."""
    context = _explain.current()
    if context is None:
        return
    context.plan_cache = outcome
    context.strategy = plan.strategy
    context.schema_nodes_scanned = len(plan.scan_nodes)
    context.pruned_schema_nodes = plan.pruned_schema_nodes
    context.index_used = plan.index_used
    context.not_lowerable_reason = plan.not_lowerable_reason
    if plan.cost is not None:
        context.cost_total = plan.cost.total
        context.cost_estimated_rows = plan.cost.output_rows
        context.cost_table = [estimate.as_dict()
                              for estimate in plan.cost_table]


class QueryPlanner:
    """Per-engine plan compiler with a (request → plan) cache.

    The cache is keyed by the request exactly as the caller passed it,
    a path string or a ``Path``: a string that hits takes no lock,
    visits no parse cache and hashes no ``Path``.  Two spellings of one
    path, or a string and its ``Path``, are two entries with one
    answer.  A cached plan is handed out after one compare: its
    :attr:`~CompiledPlan.epoch` against the engine's ``plan_epoch``,
    the single integer that schema growth, index DDL and statistics
    drift all bump.  When the compare fails the plan is stale, whatever
    moved: it is compiled afresh from its own ``Path`` (no parse),
    replaces its entry and counts one invalidation and one miss.  The
    paper's claim that the descriptive schema is small and *stable* —
    and the drift threshold on statistics — keep that rare: no
    read-only traffic ever reaches it.
    """

    def __init__(self, engine, capacity: int = PLAN_CACHE_CAPACITY,
                 policy: str = "cost") -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown planner policy {policy!r} "
                             f"(expected one of {POLICIES})")
        self._engine = engine
        self.policy = policy
        self._plans: "LRUCache[Path | str, CompiledPlan]" = LRUCache(
            capacity, prefix="query.plan_cache")
        #: Serializes everything but the hit: compile and store.
        self._lock = threading.Lock()
        # Held, not looked up per request (obs.reset() zeroes in
        # place): this cache's own counters and the registry's
        # aggregate over all engines.
        self._hits = self._plans.hit_counter
        self._all_hits = obs.REGISTRY.counter("query.plan_cache.hits")
        self._all_misses = obs.REGISTRY.counter(
            "query.plan_cache.misses")
        self._all_invalidations = obs.REGISTRY.counter(
            "query.plan_cache.invalidations")

    def compile_uncached(self, path: Path) -> CompiledPlan:
        """A fresh plan for *path* under this planner's policy — what
        :meth:`compile` computes on a miss, bypassing the cache."""
        engine = self._engine
        return compile_plan(path, engine.schema, engine.indexes,
                            block_capacity=engine.block_capacity,
                            policy=self.policy)

    def compile(self, request: "Path | str") -> CompiledPlan:
        plan = self._plans.get(request)
        if plan is None or plan.epoch != self._engine.plan_epoch:
            return self._compile_slow(request)
        # The prepared hit: no lock, no parse.
        self._hits.inc()
        self._all_hits.inc()
        if _explain.COLLECTING:
            _describe(plan, "hit")
        return plan

    def _compile_slow(self, request: "Path | str") -> CompiledPlan:
        """Everything that is not a prepared hit: an unknown request,
        or a plan whose epoch fell behind the engine's — a stale plan
        is compiled afresh and replaces its entry."""
        with self._lock:
            # Read before compiling: a bump that races the compile
            # leaves the plan one epoch behind, and the next call comes
            # back here.
            epoch = self._engine.plan_epoch
            plan = self._plans.get(request)
            if plan is not None and plan.epoch == epoch:
                outcome = "hit"
                self._hits.inc()
            else:
                stale = plan
                path = request if stale is None else stale.path
                if isinstance(path, str):
                    path = cached_parse_path(path)
                plan = self.compile_uncached(path)
                plan.epoch = epoch
                self._plans.put(request, plan)
                self._plans.miss_counter.inc()
                outcome = "miss"
                if stale is not None:
                    outcome = "invalidated"
                    self._plans.invalidation_counter.inc()
        if _explain.COLLECTING:
            _describe(plan, outcome)
        # Aggregate plan-cache counters across all engines (each
        # cache also keeps its private per-engine instruments).
        (self._all_hits if outcome == "hit" else self._all_misses).inc()
        if outcome == "invalidated":
            self._all_invalidations.inc()
        return plan

    def stats(self) -> CacheStats:
        return self._plans.stats()

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
