"""Statistics-driven cost model for candidate query plans.

The planner (:mod:`repro.query.planner`) can answer one compiled path
several ways — block scan, hybrid scan+navigate or a value-index
probe.  Secondary indexes made the wrong pick a 10-129x swing; this
module prices every candidate from the statistics each
descriptive-schema node keeps of itself
(:class:`~repro.storage.dschema.SchemaNode`: descriptor counts,
distinct typed values, min/max, byte sizing) so the planner can take
the cheapest instead of applying fixed structural precedence.

Each :class:`CostEstimate` decomposes a candidate into the quantities
the §9 physical design actually spends:

* **blocks** touched — block fan-in is modeled from the per-node byte
  sizing (``bytes / BLOCK_TARGET_BYTES``, capped by the engine's
  descriptor capacity), so fat values mean more blocks;
* **scan rows** swept inside those blocks (a positional predicate
  fused with its scan reads two per block it steps over);
* **postings** read out of an index posting list;
* **residual** predicate evaluations — per-instance tests the probe
  or scan could not answer (a child-value predicate over many
  instances is answered from its value holders' blocks instead and
  charged as scan rows: :func:`sweep_holders`);
* **navigations** — context-node×step units of per-descriptor
  navigation (a walked hybrid/index suffix step); a suffix child step
  is charged the way the executor runs it (:func:`walks`): walked per
  context, or swept per destination row;
* **output cardinality** — the selectivity-discounted result size
  (surfaced to EXPLAIN as ``cost.estimated`` for calibration against
  the observed row count).

Selectivity uses the classic uniform assumptions over the collected
digest, never the raw value multiset (a real system persists only the
digest): an equality probe selects ``1/distinct`` of the instances
that carry the value, an existence test selects the carry fraction,
and a probe key outside the collected ``[min, max]`` range estimates
to zero rows.  The weights below are unit costs in an abstract
machine, not nanoseconds — only their ratios matter, and EXPLAIN
prints estimated units next to observed time so operators can judge
the calibration.

Where the model reads a literal.  Only the value predicates of a
plan's *decisive* step — the step its scan or probe answers — are
priced by their literal: :meth:`CostModel._value_selectivity` (the
``may_hold`` range check and ``1/distinct``), :func:`sweep_holders`
(the literal ``''`` has no sweep) and an ``eq`` probe's postings.  A
position is never read (``[n]`` keeps one instance per parent
whatever ``n`` is), nor is any predicate of a suffix step.  So a path
shape whose decisive step holds no value literal
(``/library/book[n]/title``) prices alike for every literal, and the
planner prices it once per shape (:class:`repro.query.planner.Shape`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.query.paths import (
    AttributePredicate,
    ChildPredicate,
    PositionPredicate,
)
from repro.query.planner import predicate_carriers
from repro.storage.dschema import text_slot

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.planner import CompiledPlan
    from repro.storage.dschema import SchemaNode

#: Modeled page size: how many descriptor bytes one block holds.  The
#: in-memory engine caps blocks by descriptor *count*; pricing by
#: bytes as well makes value-heavy nodes cost more blocks, which is
#: what a paged implementation would pay.
BLOCK_TARGET_BYTES = 4096

#: Unit cost of touching one block (pointer chase, cache-line misses).
COST_BLOCK = 12.0
#: Unit cost of sweeping one descriptor inside a scanned block.
COST_SCAN_ROW = 1.0
#: Unit cost of reading one posting-list entry (cheaper than a sweep
#: row: the list is already in ``<<`` and carries no name test).
COST_POSTING = 0.6
#: Unit cost of one residual predicate evaluation (attribute walk +
#: string compare per instance).
COST_RESIDUAL = 2.5
#: Unit cost of navigating one context node across one axis step: the
#: §9.2 first-child pointer plus the destination's chain behind it.
COST_NAVIGATE = 4.0
#: Unit cost of emitting one result row (append + order-merge share).
COST_OUTPUT = 0.2
#: Fixed cost of one index probe (hash/bisect lookup).
COST_PROBE = 8.0

#: Fallback when a node holds no descriptor yet.
DEFAULT_EQ_SELECTIVITY = 0.1


#: Swept destination rows that cost what one walked context costs —
#: the walk/sweep crossover of a suffix child step, set where the two
#: met while a walk read each context's whole sibling chain (0.22 µs
#: per context).  Measured with the walk along the destination schema
#: node's own chain, on the 1,000-book library with
#: ``/library/book/title`` as the step (1,000 destination rows, one
#: behind each first-child pointer), CPU time, best of 25, µs per
#: call:
#:
#:     contexts     1    28   100   200   300   600  1000
#:     walk       0.8   3.6    11    20    29    56    90
#:     sweep       32    34    37    41    46    57    69
#:
#: i.e. 0.09 µs per walked context against 0.03 µs per swept row plus
#: 0.037 µs per context for the parent set: they meet near 600
#: contexts, one per 1.7 rows.
#:
#: A child-value predicate has the same two routes and takes the same
#: constant.  ``[author='A']`` on ``/library/*`` of the 1,000-book,
#: 1,000-paper library (2,997 author texts in the value holders, one
#: or two authors behind each context), µs per call:
#:
#:     contexts     1    28   100   200   300   600  1000  2000
#:     walk       1.2   8.8    26    50    72   146   290   639
#:     sweep      122   123   126   137   136   140   154   194
#:
#: i.e. 0.24–0.32 µs per walked context against 0.04 µs per swept
#: text plus 0.036 µs per context for the intersection: they meet
#: near 570 contexts, one per five rows.  Both meet points lie on the
#: walk's side of the constant; moving it moves routes, which is a
#: change measured on its own.
WALK_SWEEP_ROWS = 7.0


def walks(context_rows: float, destination_rows: float) -> bool:
    """Does a child step below *context_rows* context nodes walk their
    §9.2 first-child pointers, rather than sweep the
    *destination_rows* instances of the destination schema nodes and
    keep those whose parent is a context?  Likewise a child-value
    predicate, whose destination is its value holders
    (:func:`sweep_holders`).

    The one walk/sweep rule: the executor
    (``compiled._child_step_stage``, ``_child_predicate_stage``)
    applies it per call to the counts it holds, the model per estimate
    to the counts it expects, so the route priced is the route run
    whenever the estimate is right.
    """
    return context_rows * WALK_SWEEP_ROWS < destination_rows


def sweep_holders(schema_nodes, predicate
                  ) -> "Optional[list[SchemaNode]]":
    """The ``#text`` schema nodes whose blocks answer *predicate* on
    instances of *schema_nodes* set-at-a-time — keep the texts equal to
    the literal, go up two parent pointers, intersect with the contexts
    — or None when only the per-context walk can: not a child-value
    predicate, the literal ``''`` (an element with no text child has
    that string value and no row in any text block), or a carrier with
    complex content (:func:`value_holders`).  Shared, like
    :func:`walks`, by the executor (``compiled._child_predicate_stage``)
    and the model, which put the holders' rows to that rule."""
    if not (isinstance(predicate, ChildPredicate) and predicate.value):
        return None
    return value_holders(schema_nodes, predicate)


def value_holders(schema_nodes, predicate
                  ) -> "Optional[list[SchemaNode]]":
    """What :func:`sweep_holders` reads of a child-value *predicate*
    apart from its literal: the ``#text`` schema children of its
    carriers below *schema_nodes*, or None when a carrier has complex
    content (:func:`~repro.storage.dschema.text_slot`)."""
    holders = []
    for schema_node in schema_nodes:
        for _slot, carrier in predicate_carriers(schema_node, predicate):
            slot = text_slot(carrier)
            if slot is None:
                return None
            if slot >= 0:
                holders.append(carrier.children[slot])
    return holders


class CostEstimate:
    """The priced decomposition of one candidate plan."""

    __slots__ = ("strategy", "index_used", "blocks", "scan_rows",
                 "postings", "residual", "navigations", "output_rows",
                 "total", "chosen")

    def __init__(self, strategy: str, index_used: str = "") -> None:
        self.strategy = strategy
        self.index_used = index_used
        self.blocks = 0.0
        self.scan_rows = 0.0
        self.postings = 0.0
        self.residual = 0.0
        self.navigations = 0.0
        self.output_rows = 0.0
        self.total = 0.0
        #: Set by the planner on the winning candidate.
        self.chosen = False

    def finish(self) -> "CostEstimate":
        """Fold the component counts into the scalar total."""
        self.total = (self.blocks * COST_BLOCK
                      + self.scan_rows * COST_SCAN_ROW
                      + self.postings * COST_POSTING
                      + self.residual * COST_RESIDUAL
                      + self.navigations * COST_NAVIGATE
                      + self.output_rows * COST_OUTPUT)
        if self.strategy == "index":
            self.total += COST_PROBE
        return self

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "index_used": self.index_used,
            "blocks": round(self.blocks, 1),
            "scan_rows": round(self.scan_rows, 1),
            "postings": round(self.postings, 1),
            "residual": round(self.residual, 1),
            "navigations": round(self.navigations, 1),
            "output_rows": round(self.output_rows, 1),
            "total": round(self.total, 1),
            "chosen": self.chosen,
        }

    def __repr__(self) -> str:
        return (f"CostEstimate({self.strategy}"
                f"{' ' + self.index_used if self.index_used else ''}, "
                f"total={self.total:.1f}, "
                f"out={self.output_rows:.1f})")


class CostModel:
    """Prices candidate plans from the statistics of the schema nodes
    they read."""

    def __init__(self, block_capacity: int = 64) -> None:
        self._capacity = max(1, block_capacity)

    # -- statistics reads ----------------------------------------------

    @staticmethod
    def rows(schema_node: "SchemaNode") -> float:
        return float(schema_node.descriptor_count)

    def blocks(self, schema_node: "SchemaNode") -> float:
        """Modeled block fan-in: descriptor count over rows-per-block,
        where rows-per-block is the byte-derived fan-in capped by the
        engine's per-block descriptor capacity."""
        count = schema_node.descriptor_count
        if count <= 0:
            return 0.0
        avg_bytes = schema_node.byte_size / count
        per_block = min(self._capacity,
                        max(1, int(BLOCK_TARGET_BYTES
                                   // max(1.0, avg_bytes))))
        return float(-(-count // per_block))

    # -- selectivity ---------------------------------------------------

    def _value_selectivity(self, value_node: "SchemaNode",
                           lexical: str) -> float:
        """Fraction of the value-carrying instances whose value equals
        *lexical*, under the uniform-distinct assumption with a
        min/max range check (an out-of-range literal estimates to
        zero)."""
        if value_node.descriptor_count <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if not value_node.may_hold(lexical):
            return 0.0
        return 1.0 / max(1, value_node.distinct_values)

    def _text_child(self, schema_node: "SchemaNode"
                    ) -> Optional["SchemaNode"]:
        slot = text_slot(schema_node)
        return (schema_node.children[slot]
                if slot is not None and slot >= 0 else None)

    def predicate_selectivity(self, schema_node: "SchemaNode",
                              predicate) -> float:
        """Estimated fraction of *schema_node* instances surviving
        *predicate*."""
        rows = self.rows(schema_node)
        if rows <= 0:
            return 0.0
        if isinstance(predicate, PositionPredicate):
            # Positional keeps (at most) one instance per parent group.
            parent = schema_node.parent
            if parent is None:
                return 1.0 / rows
            groups = self.rows(parent)
            return min(1.0, groups / rows) if groups else 1.0 / rows
        carriers = [child for _slot, child
                    in predicate_carriers(schema_node, predicate)]
        if not carriers:
            return 0.0
        # An element compares by string value — its text child holds
        # the collected value distribution.
        value_holder = (carriers[0]
                        if isinstance(predicate, AttributePredicate)
                        else self._text_child(carriers[0]))
        carrier_rows = sum(self.rows(child) for child in carriers)
        present = min(1.0, carrier_rows / rows)
        if predicate.value is None:
            return present
        if value_holder is None:
            return present * DEFAULT_EQ_SELECTIVITY
        return present * self._value_selectivity(value_holder,
                                                 predicate.value)

    # -- per-strategy pricing ------------------------------------------

    def _filter(self, estimate: CostEstimate, schema_nodes,
                context_rows: float, predicate) -> None:
        """Charge one predicate stage over *context_rows* instances of
        *schema_nodes* the way it runs: a child-value predicate a sweep
        can answer (:func:`sweep_holders`) is put to the :func:`walks`
        rule and, swept, costs the value holders' rows and blocks and
        no per-context test; anything else is one residual test per
        context."""
        holders = sweep_holders(schema_nodes, predicate)
        if holders is not None:
            rows = sum(self.rows(holder) for holder in holders)
            if not walks(context_rows, rows):
                self._swept(estimate, holders, rows)
                return
        estimate.residual += context_rows

    def _swept(self, estimate: CostEstimate, schema_nodes,
               rows: float) -> None:
        """Charge one sweep of the *rows* instances of *schema_nodes*:
        every row, and the blocks they sit in."""
        estimate.scan_rows += rows
        estimate.blocks += sum(self.blocks(node) for node in schema_nodes)

    def _sweep(self, estimate: CostEstimate, schema_nodes,
               predicates) -> float:
        """Charge a block sweep of *schema_nodes* plus the predicate
        cascade; returns the estimated surviving rows."""
        fused = (len(schema_nodes) == 1 and predicates
                 and isinstance(predicates[0], PositionPredicate))
        survivors = [self.rows(node) for node in schema_nodes]
        rows = sum(survivors)
        blocks = self.blocks(schema_nodes[0]) if fused else 0.0
        if blocks:
            # A first positional predicate on a single-node scan is
            # fused with the source: a block inside one parent's run is
            # stepped over — first and last member read — and only the
            # blocks a run boundary crosses (at most one per further
            # parent) and the one holding the position are opened.
            parent = schema_nodes[0].parent
            runs = self.rows(parent) if parent is not None else 1.0
            mixed = min(blocks, max(0.0, runs - 1))
            rows = min(rows, 2 * (blocks - mixed)
                       + (mixed + 1) * rows / blocks)
        self._swept(estimate, schema_nodes, rows)
        # A stage sees the survivors of every schema node at once, and
        # picks its route from their total.
        for position, predicate in enumerate(predicates):
            if not (fused and position == 0):
                self._filter(estimate, schema_nodes, sum(survivors),
                             predicate)
            survivors = [
                rows * self.predicate_selectivity(schema_node, predicate)
                for schema_node, rows in zip(schema_nodes, survivors)]
        return sum(survivors)

    def _suffix(self, estimate: CostEstimate, plan: "CompiledPlan",
                frontiers: list, context_rows: float,
                context_total: float) -> float:
        """Charge the hybrid/index suffix navigation; returns the
        estimated final output rows."""
        fraction = min(1.0, context_rows / context_total) \
            if context_total else 0.0
        first = plan.split + 1
        for position, step in enumerate(plan.path.steps[first:], first):
            destination = frontiers[position + 1]
            rows = sum(self.rows(node) for node in destination)
            if step.axis == "child" and not walks(context_rows, rows):
                self._swept(estimate, destination, rows)
            else:
                estimate.navigations += context_rows
            context_rows = rows * fraction
        return context_rows

    def price(self, plan: "CompiledPlan",
              frontiers: list) -> CostEstimate:
        """The :class:`CostEstimate` of one candidate plan.
        *frontiers* is the per-step schema match of the plan's path
        (:func:`repro.query.planner.schema_frontiers`), computed once
        by the candidate enumeration."""
        strategy = plan.strategy
        estimate = CostEstimate(strategy, plan.index_used)
        if strategy == "empty":
            return estimate.finish()
        if strategy == "index":
            return self._price_probe(estimate, plan, frontiers)
        # scan / hybrid: sweep the matched block lists, test the
        # decisive step's predicates per instance.
        steps = plan.path.steps
        scan_step = steps[-1] if plan.split is None \
            else steps[plan.split]
        survivors = self._sweep(estimate, plan.scan_nodes,
                                scan_step.predicates)
        if strategy == "hybrid":
            estimate.output_rows = self._suffix(
                estimate, plan, frontiers, survivors,
                sum(self.rows(node) for node in plan.scan_nodes))
        else:
            estimate.output_rows = survivors
        return estimate.finish()

    def _price_probe(self, estimate: CostEstimate,
                     plan: "CompiledPlan",
                     frontiers: list) -> CostEstimate:
        assert plan.probe is not None
        mode, index, literal, via_parent = plan.probe
        value_node = index.value_node
        carrier_rows = self.rows(value_node)
        value_holder = value_node if index.attribute \
            else (self._text_child(value_node) or value_node)
        if mode == "eq":
            postings = carrier_rows * self._value_selectivity(
                value_holder, literal)
        else:  # exists
            postings = carrier_rows
        estimate.postings = postings
        # The node whose instances the probe result holds (and residual
        # predicates test): for a via_parent (element-value) probe the
        # postings are children mapped to their deduplicated parents.
        owner = index.owner_node.parent if via_parent \
            else index.owner_node
        if via_parent and owner is not None:
            owner_rows = self.rows(owner)
            survivors = min(postings, owner_rows) if owner_rows \
                else postings
        else:
            survivors = postings
        for predicate in plan.rest_predicates:
            self._filter(estimate, plan.scan_nodes, survivors, predicate)
            if owner is not None:
                survivors *= self.predicate_selectivity(owner,
                                                        predicate)
        if plan.split is not None:
            context_total = self.rows(owner) if owner is not None \
                else survivors
            survivors = self._suffix(estimate, plan, frontiers,
                                     survivors,
                                     context_total or survivors)
        estimate.output_rows = survivors
        return estimate.finish()
