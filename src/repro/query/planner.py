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

The same argument holds one level down: which schema nodes a path
matches, and which strategies can answer it, depend on its *shape*,
not on its literals.  So three caches serve a query
(:mod:`repro.query.cache`): the process-wide text → ``Path`` parse
cache, the plan cache, and between them each planner's **shape
table** (:class:`Shape`, one entry per path with its literals left
open).  A new literal on a known shape skips the parse, the schema
match, the candidate enumeration and — where :mod:`repro.query.cost`
reads no literal — the pricing, and binds its literals into the
lowering its route prepared (:class:`Route`); what reads a literal
runs again, so a plan is still chosen per literal and cached under
its own string.  The parse cache stays: every text the shape table
does not answer is parsed through it, with the counters it always
had.

Strategies, from fastest to slowest:

* ``empty`` — no schema node can match (including structural pruning:
  a predicate like ``[@isbn]`` on a schema node with no ``@isbn``
  schema child can never hold, Section 9.1 again), so the result is
  ``[]`` with no data access at all;
* ``scan`` — scan the block lists of the matched schema nodes and
  apply final-step predicates per instance;
* ``hybrid`` — the path has predicates on an *inner* step: scan the
  blocks for the prefix ending at that step, filter instances, then
  navigate only the remaining steps.

Every path of the language has one of these: ``//`` means
``descendant-or-self::node()/child::``, and a position counts one
parent's children on ``//`` as on ``/`` (:mod:`repro.query.paths`),
which is what a block scan answers.  The one interpreter
(:func:`repro.query.engine.evaluate_store`) is the oracle the plans
are tested against and what the forced ``naive`` policy runs; it is
never a candidate.

With declared value indexes (:mod:`repro.storage.indexes`) one more
strategy slots in above ``scan``:

* ``index`` — one value predicate of the decisive step is answered by
  a typed-value index probe (equality or existence) instead of
  scanning and testing every instance.  Remaining predicates and
  suffix steps run exactly as in ``scan``/``hybrid``.

The planner enumerates **every** applicable candidate exactly once
(:meth:`Shape.enumerate`) — the scan/hybrid baseline and one
value-index probe per eligible predicate — and a policy
(:data:`POLICIES`) is a selection rule over that list.  The default
rule is ``cost``: the cheapest under the :mod:`repro.query.cost`
model, priced from the schema nodes' own statistics.
"""

from __future__ import annotations

import threading
from itertools import islice
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
    lift_path,
    literals_of,
    with_literals,
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
    # ``//`` is descendant-or-self::node()/child::…: below the node.
    return islice(schema_node.subtree(), 1, None)


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
                 "index_used", "executor", "cost", "cost_table",
                 "epoch", "route")

    def __init__(self, path: Path, strategy: str,
                 scan_nodes: tuple[SchemaNode, ...],
                 split: Optional[int],
                 pruned_schema_nodes: int,
                 probe: Optional[tuple] = None,
                 rest_predicates: tuple = (),
                 index_used: str = "",
                 route: "Optional[Route]" = None) -> None:
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
        #: The shape's :class:`Route` this plan takes, whose prepared
        #: lowering it binds its literals into (None: a ``naive`` plan).
        self.route = route

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
#: structural precedence (probe > scan/hybrid).
_STRATEGY_RANK = {"empty": 0, "index": 1, "scan": 2, "hybrid": 3}

#: Planner policies — three selection rules over the one candidate
#: enumeration (:meth:`Shape.enumerate`) and one witness: ``cost``
#: prices every candidate and takes the cheapest; ``structural`` takes
#: the historical fixed precedence (a probe on the first predicate >
#: scan/hybrid); ``scan`` takes the scan/hybrid base candidate and
#: never probes an index (where the schema proves the path empty,
#: these three take the one ``empty`` candidate); ``naive`` skips the
#: enumeration and hands every path to the one interpreter.  The
#: forced policies exist for the benchmark harness and the parity
#: tests — every policy returns the same rows.
POLICIES = ("cost", "structural", "scan", "naive")


def compile_plan(path: Path, schema: "DescriptiveSchema",
                 indexes=None, block_capacity: int = 64,
                 policy: str = "cost",
                 shape: "Optional[Shape]" = None) -> CompiledPlan:
    """Compile *path* against the current schema (no caching here).

    *indexes* is the engine's :class:`IndexManager` (or None: no probe
    candidates).  Under the ``cost`` *policy* every candidate is
    priced under :mod:`repro.query.cost` and the cheapest wins.
    *shape* is the planner's entry for *path*'s shape: what it already
    holds is not decided again (None: a fresh one, used once).
    """
    with obs.TRACER.span("query.plan.compile", path=path):
        plan = _select_plan(path, shape or Shape(path), schema, indexes,
                            block_capacity, policy)
    obs.REGISTRY.counter("query.plan.compiles").inc()
    obs.REGISTRY.counter(f"query.plan.strategy.{plan.strategy}").inc()
    if plan.pruned_schema_nodes:
        obs.REGISTRY.counter("query.plan.pruned_schema_nodes").inc(
            plan.pruned_schema_nodes)
    return plan


def _select_plan(path: Path, shape: "Shape", schema: "DescriptiveSchema",
                 indexes, block_capacity: int, policy: str
                 ) -> CompiledPlan:
    """Enumerate the candidates once, then apply *policy*'s rule; the
    ``naive`` witness enumerates nothing."""
    if policy == "naive":
        return CompiledPlan(path, "naive", (), None, 0)
    if shape.routes is None:
        shape.enumerate(schema, indexes)
    candidates, structural_pick = shape.candidates(path)
    if policy == "cost":
        pick = _cheapest(candidates, structural_pick, shape,
                         block_capacity)
    elif policy == "scan":
        pick = 0
    else:
        pick = structural_pick
    return candidates[pick]


class Route:
    """One candidate of a shape as far as no literal decides it: its
    strategy, the schema nodes it scans, the split and the pruning,
    and for an ``index`` route the probe (:attr:`probe`).  Plans that
    take it share the lowering :mod:`repro.query.compiled` prepares
    once, on the first execution of one of them (:attr:`lowering`)."""

    __slots__ = ("strategy", "scan_nodes", "split", "pruned", "probe",
                 "index_used", "lowering")

    def __init__(self, strategy: str, scan_nodes: "tuple[SchemaNode, ...]",
                 split: Optional[int], pruned: int,
                 probe: Optional[tuple] = None) -> None:
        self.strategy = strategy
        self.scan_nodes = scan_nodes
        self.split = split
        self.pruned = pruned
        #: ``(position, mode, index, via_parent)``: the probed
        #: predicate's position in the decisive step, and the probe
        #: (:func:`_probe_route`).
        self.probe = probe
        self.index_used = ("" if probe is None
                           else f"value:{probe[2].definition.path}")
        #: The prepared lowering (:func:`repro.query.compiled.lower`).
        self.lowering = None


class Shape:
    """What planning a path decides without reading its literals — one
    entry of a planner's shape table (:func:`repro.query.paths.
    lift_path` keys it), or a throwaway for one uncached compile.

    It holds the parsed path it was made from (:attr:`skeleton`, whose
    literals :func:`~repro.query.paths.with_literals` replaces), the
    schema frontiers, and the routes of :meth:`enumerate`.  Per
    literal, :meth:`candidates` re-runs what reads one: the typed-key
    check of an ``eq`` probe.  The cost model reads literals only in
    the decisive step's value predicates (:mod:`repro.query.cost`), so
    a shape with none there is priced once (:attr:`priced`).  Like a
    plan it is stamped with the engine's ``plan_epoch`` it was made
    under, and a stale entry is made afresh.
    """

    __slots__ = ("skeleton", "epoch", "frontiers", "decisive", "routes",
                 "reads_literals", "priced")

    def __init__(self, skeleton: Path, epoch: int = -1) -> None:
        self.skeleton = skeleton
        self.epoch = epoch
        self.frontiers: list = []
        #: Index of the step whose predicates decide the candidates:
        #: the first inner step with predicates, else the last.
        self.decisive = 0
        #: The :class:`Route` list (base first), once enumerated.
        self.routes: "Optional[list[Route]]" = None
        #: Does pricing read a literal?  (A value in the decisive step.)
        self.reads_literals = True
        #: ``(cost table, index of the cheapest)`` when it does not.
        self.priced: Optional[tuple] = None

    def enumerate(self, schema: "DescriptiveSchema", indexes) -> None:
        """Every strategy that can answer the shape, in order: the
        scan/hybrid base and one ``index`` route per eligible
        value-index probe (any prefix of non-positional predicates may
        be probed, not just the first — the remaining predicates
        commute as pure filters) — all shapes :mod:`repro.query.
        compiled` lowers — or the one ``empty`` route when the schema
        proves the path unmatchable.

        What a block scan can answer is a property of the path fragment
        (Fletcher, Gyssens, Paredaens, Van Gucht, Wu — PAPERS.md):
        ``//`` is descendant-or-self composed with child, and every
        downward step with per-parent predicates lowers to scans,
        probes and sweeps.
        """
        steps = self.skeleton.steps
        frontiers = self.frontiers = schema_frontiers(schema.root, steps)
        split: Optional[int] = None
        for index, step in enumerate(steps[:-1]):
            if step.predicates:
                split = index
                break
        decisive = self.decisive = len(steps) - 1 if split is None \
            else split
        predicates = steps[decisive].predicates
        self.reads_literals = any(
            not isinstance(predicate, PositionPredicate)
            and predicate.value is not None for predicate in predicates)
        matched = frontiers[decisive + 1]
        pruned = 0
        if predicates:
            feasible = [node for node in matched
                        if structurally_feasible(node, predicates)]
            pruned = len(matched) - len(feasible)
            matched = feasible
        if not matched:
            self.routes = [Route("empty", (), split, pruned)]
            return
        scanned = tuple(matched)
        routes = [Route("scan" if split is None else "hybrid", scanned,
                        split, pruned)]
        if indexes is not None and indexes.active and predicates \
                and len(matched) == 1:
            for position, predicate in enumerate(predicates):
                if isinstance(predicate, PositionPredicate):
                    # A probe answers its predicate *first*; value
                    # predicates commute around it, positional ones do
                    # not — stop at the first positional.
                    break
                probe = _probe_route(indexes, matched[0], predicate)
                if probe is not None:
                    routes.append(Route("index", scanned, split, pruned,
                                        (position, *probe)))
        self.routes = routes

    def candidates(self, path: Path
                   ) -> "tuple[list[CompiledPlan], int]":
        """The candidate plans for *path*, a path of this shape, and
        the index of the one the historical structural precedence
        picks (a probe on the first predicate > scan/hybrid)."""
        predicates = path.steps[self.decisive].predicates
        candidates: list[CompiledPlan] = []
        structural_pick = 0
        for route in self.routes:
            if route.probe is None:
                candidates.append(CompiledPlan(
                    path, route.strategy, route.scan_nodes, route.split,
                    route.pruned, route=route))
                continue
            position, mode, index, via_parent = route.probe
            literal = predicates[position].value
            if mode == "eq" and not _typed(index, literal):
                continue
            candidates.append(CompiledPlan(
                path, "index", route.scan_nodes, route.split,
                route.pruned, probe=(mode, index, literal, via_parent),
                rest_predicates=(predicates[:position]
                                 + predicates[position + 1:]),
                index_used=route.index_used, route=route))
            if position == 0:
                # Structural precedence probed the first predicate.
                structural_pick = len(candidates) - 1
        return candidates, structural_pick


def _probe_route(indexes, schema_node: SchemaNode, predicate
                 ) -> Optional[tuple]:
    """A value-index probe that can answer *predicate* on instances of
    *schema_node*, whatever its literal, or None.

    Returns ``(mode, index, via_parent)`` with *mode* ``"eq"`` or
    ``"exists"``.  The probe is offered only when the predicate's
    local name resolves to exactly one schema child — with several
    same-named children (different namespaces) an index on one of them
    would under-report the evaluator's local-name semantics.  An
    ``eq`` probe is a candidate only for a literal with a typed value
    (:func:`_typed`).
    """
    carriers = predicate_carriers(schema_node, predicate)
    if len(carriers) != 1:
        return None
    carrier = carriers[0][1]
    via_parent = carrier.node_type == "element"
    index = indexes.index_on(carrier)
    if index is None or index.attribute is via_parent:
        return None
    return ("exists" if predicate.value is None else "eq", index,
            via_parent)


def _typed(index, literal: str) -> bool:
    """Does *literal* have a typed value under *index*?  Its key then
    files every owner whose stored value is the literal; an untyped
    literal could still match the untyped owners no key files."""
    try:
        index.parse_key(literal)
    except TypeSystemError:
        return False
    return True


def _cheapest(candidates: "list[CompiledPlan]", structural_pick: int,
              shape: Shape, block_capacity: int) -> int:
    """Price every candidate; index of the cheapest (the ``cost``
    rule).  The winner carries the cost table.  A shape whose pricing
    reads no literal keeps its table and winner for the next literal."""
    priced = shape.priced
    if priced is None:
        from repro.query.cost import CostModel
        model = CostModel(block_capacity)
        table = tuple(model.price(candidate, shape.frontiers)
                      for candidate in candidates)
        best = min(
            range(len(candidates)),
            key=lambda i: (table[i].total,
                           _STRATEGY_RANK[candidates[i].strategy], i))
        table[best].chosen = True
        registry = obs.REGISTRY
        registry.counter("query.cost.priced").inc()
        registry.counter("query.cost.candidates").inc(len(table))
        registry.counter(
            f"query.cost.chosen.{candidates[best].strategy}").inc()
        if best != structural_pick:
            registry.counter("query.cost.overrides").inc()
        if not shape.reads_literals:
            shape.priced = (table, best)
    else:
        table, best = priced
    for candidate, estimate in zip(candidates, table):
        candidate.cost = estimate
    candidates[best].cost_table = table
    return best


def _describe(plan: CompiledPlan, outcome: str, shaped: str = "") -> None:
    """The planner's EXPLAIN fields for *plan* (*outcome*: ``hit``,
    ``miss`` or ``invalidated``; *shaped*: ``hit`` or ``miss`` when the
    shape table compiled it, else ``""``), into this thread's
    collecting record if it has one.  Callers test
    ``_explain.COLLECTING`` first."""
    context = _explain.current()
    if context is None:
        return
    context.plan_cache = outcome
    context.shape_cache = shaped
    context.strategy = plan.strategy
    context.schema_nodes_scanned = len(plan.scan_nodes)
    context.pruned_schema_nodes = plan.pruned_schema_nodes
    context.index_used = plan.index_used
    if plan.cost is not None:
        context.cost_total = plan.cost.total
        context.cost_estimated_rows = plan.cost.output_rows
        context.cost_table = [estimate.as_dict()
                              for estimate in plan.cost_table]


class QueryPlanner:
    """Per-engine plan compiler with a (request → plan) cache and,
    under it, a (shape → :class:`Shape`) table.

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

    A string the plan cache has not seen goes to the shape table
    (:meth:`_compile_text`): §9 answers a path from the schema nodes
    its *shape* matches, whatever its literals, so a new literal on a
    known shape is not parsed, matched, enumerated or lowered again —
    only what reads the literal runs.  The plan is still chosen per
    literal and cached under its own string.
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
        self._shapes: "LRUCache[str, Shape]" = LRUCache(
            capacity, prefix="query.shape_cache")
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
        self._all_shape_hits = obs.REGISTRY.counter(
            "query.shape_cache.hits")
        self._all_shape_misses = obs.REGISTRY.counter(
            "query.shape_cache.misses")

    def compile_uncached(self, path: Path) -> CompiledPlan:
        """A fresh plan for *path* under this planner's policy — what
        :meth:`compile` computes on a miss, bypassing the cache."""
        return self._compile(path, None)

    def _compile(self, path: Path, shape: Optional[Shape]) -> CompiledPlan:
        engine = self._engine
        return compile_plan(path, engine.schema, engine.indexes,
                            block_capacity=engine.block_capacity,
                            policy=self.policy, shape=shape)

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
        shaped = ""
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
                if stale is not None:
                    plan = self.compile_uncached(stale.path)
                elif isinstance(request, str):
                    plan, shaped = self._compile_text(request, epoch)
                else:
                    plan = self.compile_uncached(request)
                plan.epoch = epoch
                self._plans.put(request, plan)
                self._plans.miss_counter.inc()
                outcome = "miss"
                if stale is not None:
                    outcome = "invalidated"
                    self._plans.invalidation_counter.inc()
        if _explain.COLLECTING:
            _describe(plan, outcome, shaped)
        # Aggregate plan-cache counters across all engines (each
        # cache also keeps its private per-engine instruments).
        (self._all_hits if outcome == "hit" else self._all_misses).inc()
        if outcome == "invalidated":
            self._all_invalidations.inc()
        return plan

    def _compile_text(self, text: str, epoch: int
                      ) -> "tuple[CompiledPlan, str]":
        """A plan for the request string *text*, and ``hit`` / ``miss``
        for the shape table (``""``: *text* went round it).

        A hit builds the path from the entry's and *text*'s literals
        (:func:`~repro.query.paths.with_literals`) — no parse — and
        compiles it on the entry.  A miss parses through the parse
        cache and puts a fresh entry, stamped with *epoch*, in place
        of any stale one.  A text the lifter does not read as a shape,
        or whose parse does not line up with what it lifted, is parsed
        and compiled without an entry.
        """
        lifted = lift_path(text)
        if lifted is None:
            return self.compile_uncached(cached_parse_path(text)), ""
        key, literals = lifted
        shape = self._shapes.get(key)
        if shape is not None and shape.epoch == epoch:
            self._shapes.hit_counter.inc()
            self._all_shape_hits.inc()
            return self._compile(with_literals(shape.skeleton, literals),
                                 shape), "hit"
        path = cached_parse_path(text)
        if literals_of(path) != literals:
            return self.compile_uncached(path), ""
        shape = Shape(path, epoch)
        self._shapes.put(key, shape)
        self._shapes.miss_counter.inc()
        self._all_shape_misses.inc()
        return self._compile(path, shape), "miss"

    def stats(self) -> CacheStats:
        return self._plans.stats()

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._shapes.clear()
