"""Closure-chain lowering of query plans — the one executor.

A :class:`~repro.query.planner.CompiledPlan` records a *decision*
(strategy, schema nodes, probe); interpreting it would re-dispatch on
that decision every call — string compares on the strategy, isinstance
tests per predicate, generator hops per block.  This module lowers a
plan **once** — on its first execution — into a
:class:`CompiledExecutor`: a source closure that materializes the
initial descriptor list plus a chain of stage closures, each pre-bound
to exactly the schema nodes, attribute slots, index probes and
residual predicates it needs.  Repeat executions then run the chain
with zero per-step strategy dispatch.

The lowering is *schema-bound, not block-bound*: closures capture
:class:`~repro.storage.dschema.SchemaNode` objects and walk their live
``first_block`` chains at run time, so pure data mutations (inserts,
deletes, value updates, block splits) are picked up for free — the
same liveness argument the plan cache makes.  Consistency with
DDL, schema growth and statistics drift rides on the plan cache: a
plan whose epoch fell behind the engine's is replaced by a fresh one,
and its executor dies with it.

Every source and every stage returns a duplicate-free descriptor list
in document order — ``<<`` (§7), on storage label order (§9.3) — the
order of a path result whoever evaluates it; the one interpreter
(:func:`repro.query.engine.evaluate_store`) is reachable from here only
as the source of a plan forced by the ``naive`` policy.  What is
set-at-a-time is one semi-join over a posting list in ``<<``, in two
directions: :func:`_holders` (the ancestors of the postings: an
element-value probe's parents, a value sweep's carriers' parents) and
:func:`_members` (the postings below the contexts: a child step's
sweep, a ``//`` step), over :func:`repro.storage.blocks.sweep`, the one
statement of "these schema nodes' instances, in ``<<``"; what is
gathered some other way (a walk to several destinations, positional
picks under parents at several depths) is put in ``<<`` by the store's
:meth:`~repro.xdm.store.NodeStore.in_document_order`, as the
interpreter's result is.

The stages are *context-driven*: a child step below a few context
descriptors follows their §9.2 first-child-by-schema pointers and,
from there, the destination schema node's own chain (:func:`_walk`:
it reads what it returns plus one per context) instead of sweeping
every instance of the destination schema node — the sweep stays for
large context sets, chosen per call by
:func:`repro.query.cost.walks`; a child-value predicate has the same
two routes — walk to every context's carriers and read their values
in one pass (``StorageEngine.string_values``), or sweep the carriers'
text blocks once for the literal and go up two parent pointers (a
semi-join from the value side, :func:`repro.query.cost.sweep_holders`)
— and a positional predicate counts contiguous same-parent runs,
stepping over whole blocks when it is fused with the scan source
(:class:`_Runs`).

The correctness contract — closure-chain results are nid-identical to
the interpreter's (``evaluate_naive``) for every strategy — is what
``tests/test_compiled_parity.py`` pins down.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.errors import QueryError
from repro.obs import explain as _explain
from repro.query.cost import value_holders, walks
from repro.query.paths import (
    AttributePredicate,
    ChildPredicate,
    PositionPredicate,
    Step,
)
from repro.query.planner import CompiledPlan, match_step, predicate_carriers
from repro.storage.blocks import sweep
from repro.storage.descriptor import NO_SLOT
from repro.storage.dschema import SchemaNode, text_slot

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.explain import QueryExplain
    from repro.query.engine import StorageQueryEngine

#: Stage signature: descriptor list in, descriptor list out.
Stage = Callable[[list], list]


class CompiledExecutor:
    """A lowered plan: one source closure + a chain of stage closures.

    :meth:`run` is the hot path — no timing, no dispatch, just the
    chain.  :meth:`run_explained` runs the same chain with a
    ``perf_counter_ns`` fence around every stage and reports the
    per-stage timings into the active EXPLAIN record.
    """

    __slots__ = ("source_name", "source", "stages")

    def __init__(self, source_name: str, source: Callable[[], list],
                 stages: "list[tuple[str, Stage]]") -> None:
        self.source_name = source_name
        self.source = source
        self.stages = tuple(stages)

    def run(self, queries: "StorageQueryEngine") -> list:
        result = self.source()
        for _name, stage in self.stages:
            result = stage(result)
        return result

    def run_explained(self, queries: "StorageQueryEngine",
                      record: "QueryExplain") -> list:
        timings: list[tuple[str, int]] = []
        started = time.perf_counter_ns()
        result = self.source()
        elapsed = time.perf_counter_ns() - started
        timings.append((_visited(record, self.source_name, result, True),
                        elapsed))
        for name, stage in self.stages:
            started = time.perf_counter_ns()
            result = stage(result)
            elapsed = time.perf_counter_ns() - started
            # Step stages run no interpreter, so the axis steps its
            # kernel would have counted are counted here.
            step = name.startswith("step")
            if step:
                record.axis_steps += 1
            timings.append((_visited(record, name, result, step),
                            elapsed))
        record.compiled = True
        record.stage_ns = timings
        return result

    def __repr__(self) -> str:
        names = " | ".join([self.source_name]
                           + [name for name, _ in self.stages])
        return f"CompiledExecutor({names})"


def _note(suffix: str, visited: int) -> None:
    """Tell the collecting EXPLAIN what only the running stage knows:
    the route it chose for this call (a suffix for its stage name) and
    how many descriptors it read, when that is not what it returns.
    Callers test ``_explain.COLLECTING`` first."""
    context = _explain.current()
    if context is not None:
        context.stage_note = (suffix, visited)


def _visited(record: "QueryExplain", name: str, result: list,
             counts: bool) -> str:
    """Add the node visits of the stage that just produced *result* to
    *record* — what the stage noted (:func:`_note`), else its output
    size when it *counts* (sources and steps; a filter that reads
    nothing below its input visits nothing new, a child-value
    predicate notes what it read) — and return its stage name, route
    suffix included."""
    note, record.stage_note = record.stage_note, None
    if note is not None:
        name += note[0]
        record.nodes_visited += note[1]
    elif counts:
        record.nodes_visited += len(result)
    return name


# ----------------------------------------------------------------------
# Lowering entry point.


def lower(plan: CompiledPlan,
          queries: "StorageQueryEngine") -> CompiledExecutor:
    """Lower *plan* into a :class:`CompiledExecutor`.

    Every strategy the planner emits lowers; a strategy this function
    does not know raises :class:`~repro.errors.QueryError` rather than
    running some second way.  Called once per cached plan.  What does
    not depend on the plan's literals — the schema nodes, the carriers
    of its value predicates, their sweep holders and text slots, the
    suffix steps — is prepared once per route of its shape
    (:class:`~repro.query.planner.Route`) and kept there; each plan
    binds only its own literals into it (:meth:`Lowering.bind`).  The
    nanoseconds spent here are surfaced through the
    ``query.compile.ns`` counter so the benchmark harness can
    attribute them.
    """
    started = time.perf_counter_ns()
    route = plan.route
    if route is None:
        lowering = _prepare(plan, queries)
    else:
        lowering = route.lowering
        if lowering is None:
            # Two threads may both prepare one route; either lowering
            # is the route's.
            lowering = route.lowering = _prepare(plan, queries)
    executor = lowering.bind(plan)
    obs.REGISTRY.counter("query.compile.ns").inc(
        time.perf_counter_ns() - started)
    obs.REGISTRY.counter("query.plans.lowered").inc()
    return executor


class Lowering:
    """A closure chain with its literals left open.

    :attr:`source` maps a plan to its ``(name, source)``; each entry of
    :attr:`stages` is ``(None, (name, stage))`` for a stage that reads
    no literal, or ``((step, position), make)`` for the predicate at
    that place of the path, ``make`` mapping that predicate — the
    plan's own, literal included — to its ``(name, stage)``.
    """

    __slots__ = ("source", "stages")

    def __init__(self, source: Callable, stages) -> None:
        self.source = source
        self.stages = tuple(stages)

    def bind(self, plan: CompiledPlan) -> CompiledExecutor:
        """The executor of *plan*, a plan of the route this lowering was
        prepared for."""
        steps = plan.path.steps
        source_name, source = self.source(plan)
        return CompiledExecutor(source_name, source, [
            item if at is None else item(steps[at[0]].predicates[at[1]])
            for at, item in self.stages])


def _same(source: tuple, _plan: CompiledPlan) -> tuple:
    """A source every plan of the route shares: it reads no literal."""
    return source


_EMPTY = partial(_same, ("empty", list))


def _prepare(plan: CompiledPlan,
             queries: "StorageQueryEngine") -> Lowering:
    strategy = plan.strategy
    if strategy == "empty":
        return Lowering(_EMPTY, ())
    if strategy == "naive":
        return Lowering(lambda plan: (
            "navigate", partial(queries.evaluate_naive, plan.path)), ())
    steps = plan.path.steps
    decisive = len(steps) - 1 if plan.split is None else plan.split
    predicates = list(enumerate(steps[decisive].predicates))
    if strategy == "index":
        # The probed predicate is answered by the source.
        probed = plan.route.probe[0]
        predicates = [(position, predicate)
                      for position, predicate in predicates
                      if position != probed]
        source = _probe_source
    elif strategy in ("scan", "hybrid"):
        if (len(plan.scan_nodes) == 1 and predicates
                and isinstance(predicates[0][1], PositionPredicate)):
            source = _positional_scan_source(plan.scan_nodes[0],
                                             decisive)
            predicates = predicates[1:]
        else:
            source = partial(_same, _scan_source(plan.scan_nodes))
    else:
        raise QueryError(f"no closure lowering for strategy {strategy!r}")
    stages: list = [
        ((decisive, position),
         _predicate_stage(queries, plan.scan_nodes, predicate))
        for position, predicate in predicates]
    if plan.split is not None:
        stages.extend(_suffix_stages(queries, plan.scan_nodes, steps,
                                     plan.split + 1))
    return Lowering(source, stages)


# ----------------------------------------------------------------------
# The semi-join: one operation, two directions, over a posting list in
# ``<<`` (index postings, a swept block chain).


def _holders(postings, hops: int) -> dict:
    """The deduplicated *hops*-th ancestors of *postings* as the keys
    of a dict — a set in posting order, which is ``<<`` when the
    postings are one schema node's (one depth: ancestors at one depth
    keep their descendants' order)."""
    for _ in range(hops):
        postings = [node.parent for node in postings]
    return dict.fromkeys(postings)


def _members(postings, hops: "tuple[int, ...]", contexts: set) -> list:
    """The *postings* that have a context one of *hops* (ascending)
    levels up, in posting order.  Duplicate-free and in ``<<`` like the
    postings whatever the contexts — ancestor-related ones included."""
    if hops == (1,):
        return [node for node in postings if node.parent in contexts]
    out: list = []
    for node in postings:
        ancestor, above = node, 0
        for hop in hops:
            while above < hop:
                ancestor = ancestor.parent
                above += 1
            if ancestor in contexts:
                out.append(node)
                break
    return out


# ----------------------------------------------------------------------
# Sources.


def _scan_source(scan_nodes: "tuple[SchemaNode, ...]"
                 ) -> tuple[str, Callable[[], list]]:
    source = partial(sweep, scan_nodes)
    if len(scan_nodes) == 1:
        return f"scan[{scan_nodes[0].path or '#document'}]", source
    return f"scan-merge[{len(scan_nodes)}]", source


def _probe_source(plan: CompiledPlan) -> tuple[str, Callable[[], list]]:
    assert plan.probe is not None
    mode, index, literal, via_parent = plan.probe
    # ``=`` compares string values: an integer key files '01994' and
    # ' 1994 ' beside '1994', so an eq probe keeps the literal's own.
    fetch = (partial(index.probe_lexical, index.parse_key(literal),
                     literal)
             if mode == "eq" else index.probe_exists)
    if not via_parent:
        return f"probe[{mode}]", fetch

    def parent_source() -> list:
        # An element-value index posts the children; the predicate
        # selects their parents.
        return list(_holders(fetch(), 1))

    return f"probe[{mode}/parent]", parent_source


# ----------------------------------------------------------------------
# Positional predicates.

#: The parent of no descriptor (the document node's is None): a
#: :class:`_Runs` that has not opened a run yet.
_NO_RUN = object()


class _Runs:
    """The *index*-th (None: the last) member of every same-parent run
    of a document-ordered selection of ONE schema node.

    One schema node means one depth, and at one depth the children of
    one parent are adjacent in document order — also in a filtered
    selection — so "the i-th per parent" is a count along contiguous
    runs, by parent identity, with no grouping.  Fed whole blocks
    (:func:`_positional_scan_source`), a block whose first and last
    members share a parent lies inside one run and is stepped over by
    its ``count``, its members untouched.
    """

    __slots__ = ("index", "parent", "count", "tail", "out", "touched")

    def __init__(self, index: Optional[int]) -> None:
        self.index = index
        self.parent: object = _NO_RUN
        self.count = 0
        self.tail = None
        self.out: list = []
        #: Descriptors read (EXPLAIN's node visits).
        self.touched = 0

    def members(self, descriptors) -> None:
        index, out = self.index, self.out
        parent, count, tail = self.parent, self.count, self.tail
        for descriptor in descriptors:
            if descriptor.parent is not parent:
                if index is None and tail is not None:
                    out.append(tail)
                parent = descriptor.parent
                count = 0
            count += 1
            if count == index:
                out.append(descriptor)
            tail = descriptor
        self.parent, self.count, self.tail = parent, count, tail
        self.touched += len(descriptors)

    def block(self, block) -> None:
        # A block in a schema node's chain is never empty (the engine
        # unlinks a block with its last descriptor).
        first = block.first_descriptor()
        last = block.last_descriptor()
        if first.parent is not last.parent:
            ordered: list = []
            block.extend_in_order(ordered)
            self.members(ordered)
            return
        # One run covers the block.  A new parent's run is opened by
        # reading the first member; what is left of the block is
        # counted without being read — unless the index falls there.
        lead = 0
        if first.parent is not self.parent:
            self.members((first,))
            lead = 1
        rest = block.count - lead
        index = self.index
        if index is not None and self.count < index <= self.count + rest:
            ordered = []
            block.extend_in_order(ordered)
            self.out.append(ordered[lead + index - self.count - 1])
            self.touched += rest
        else:
            self.touched += 2 - lead
        self.count += rest
        self.tail = last

    def finish(self) -> list:
        if self.index is None and self.tail is not None:
            self.out.append(self.tail)
        return self.out


def _positional_scan_source(schema_node: SchemaNode, step: int
                            ) -> Callable[[CompiledPlan], tuple]:
    """A single-node scan fused with the positional predicate that
    comes first on it (in the *step*-th step of a plan's path): O(blocks)
    where every block lies inside one parent's run
    (``/library/book[i]``)."""
    scanned = schema_node.path or "#document"

    def bind(plan: CompiledPlan) -> tuple[str, Callable[[], list]]:
        index = plan.path.steps[step].predicates[0].index

        def source() -> list:
            runs = _Runs(index)
            block = schema_node.first_block
            while block is not None:
                runs.block(block)
                block = block.next_block
            if _explain.COLLECTING:
                _note("", runs.touched)
            return runs.finish()

        return f"scan-pos[{scanned}][{index or 'last()'}]", source

    return bind


def _positional_stage(queries: "StorageQueryEngine", schema_nodes
                      ) -> Callable[[PositionPredicate], tuple]:
    """A positional predicate over a flat, document-ordered selection:
    positions count per parent context (as in XPath)."""
    in_document_order = queries.store.in_document_order
    single = len(schema_nodes) == 1

    def make(predicate: PositionPredicate) -> tuple[str, Stage]:
        index = predicate.index
        if single:
            def positional_runs(descriptors: list) -> list:
                runs = _Runs(index)
                runs.members(descriptors)
                return runs.finish()

            return "predicate[pos]", positional_runs

        def positional(descriptors: list) -> list:
            # Several schema nodes (a wildcard, or one name at several
            # depths): same-parent members need not be adjacent, so the
            # selection is grouped by parent, and the picks of parents
            # at different depths are put back in ``<<``.
            groups: dict = {}
            for descriptor in descriptors:
                groups.setdefault(descriptor.parent, []).append(
                    descriptor)
            if index is None:
                picked = [group[-1] for group in groups.values()]
            else:
                picked = [group[index - 1] for group in groups.values()
                          if index <= len(group)]
            return in_document_order(picked)

        return "predicate[pos]", positional

    return make


# ----------------------------------------------------------------------
# The §9.2 walk and the value predicates built on it.


def _walk(slot: int, descriptors, out: list) -> None:
    """Append to *out* the children in schema-child *slot* of every
    descriptor of *descriptors*, context by context: jump to the first
    through the stored first-child-by-schema pointer, then follow the
    destination schema node's own chain (the in-block short pointers,
    then the next block) while the parent is the context.  That is
    exact and reads one descriptor past the run: one schema node's
    instances sit at one depth, so one parent's children of it are one
    contiguous stretch of its document-ordered chain (§9.1, §9.2).  A
    child step's walk; :func:`_value_walk` is the same loop fused with
    a compare."""
    append = out.append
    for descriptor in descriptors:
        node = descriptor.children_by_schema.get(slot)
        while node is not None:
            append(node)
            following = node.next_in_block
            if following != NO_SLOT:
                node = node.block.slots[following]
            else:
                block = node.block.next_block
                if block is None:
                    break
                node = block.slots[block.first_slot]
            if node.parent is not descriptor:
                break


def _value_walk(slot: int, text_at: Optional[int],
                string_value) -> Callable[[list, list, str], int]:
    """The loop of :func:`_walk` fused with a child-value compare: a
    ``(descriptors, out, value)`` function appending to *out* every
    context with a child in *slot* whose string value is *value*, testing a
    context's children in order up to its first match, and returning
    how many it tested.  A carrier with simple content (*text_at*: its
    :func:`~repro.storage.dschema.text_slot`) has its one text child
    compared in place; only several texts or complex content (*text_at*
    None) build a string."""
    def walk(descriptors, out: list, value: str) -> int:
        tested = 0
        for descriptor in descriptors:
            node = descriptor.children_by_schema.get(slot)
            while node is not None:
                tested += 1
                if text_at is None:
                    found = string_value(node)
                else:
                    text = node.children_by_schema.get(text_at)
                    if text is None:
                        found = ""
                    elif text.right_sibling is None:
                        found = text.value or ""
                    else:
                        found = string_value(node)
                if found == value:
                    out.append(descriptor)
                    break
                following = node.next_in_block
                if following != NO_SLOT:
                    node = node.block.slots[following]
                else:
                    block = node.block.next_block
                    if block is None:
                        break
                    node = block.slots[block.first_slot]
                if node.parent is not descriptor:
                    break
        return tested

    return walk


class _Lowered(dict):
    """Context schema node → what a stage runs below its instances,
    made by *lower* on first sight: a probe's owners and a scan's
    instances are lowered the same way, whether or not the planner
    pinned their schema node."""

    def __init__(self, lower: Callable[[SchemaNode], tuple]) -> None:
        super().__init__()
        self.lower = lower

    def __missing__(self, schema_node: SchemaNode) -> tuple:
        found = self[schema_node] = self.lower(schema_node)
        return found


def _carriers(predicate) -> _Lowered:
    """The slots of the schema children carrying a value *predicate*,
    in schema-children order."""
    return _Lowered(lambda schema_node: tuple(
        slot for slot, _carrier
        in predicate_carriers(schema_node, predicate)))


def _per_run(schema_nodes, lowered: _Lowered, run_each
             ) -> Callable[..., int]:
    """A stage's walk below its contexts, lowered: a ``(descriptors,
    out, *literal)`` function.  With one context schema node lowered to
    one walk (a probe's owners, a scan of one node, a step to one
    destination) it is that walk — one loop over the whole list, with
    no call or lookup per context; otherwise it hands each run of one
    schema node's contexts and that node's walks to *run_each*, and
    returns the sum of what that returns (the carriers a value walk
    tested)."""
    if len(schema_nodes) == 1 and len(lowered[schema_nodes[0]]) == 1:
        return lowered[schema_nodes[0]][0]

    def runs(descriptors: list, out: list, *literal) -> int:
        count = 0
        for schema_node, run in groupby(descriptors, _schema_node_of):
            count += run_each(lowered[schema_node], run, out, *literal)
        return count

    return runs


_schema_node_of = attrgetter("schema_node")


def _walk_run(walks: tuple, run, out: list) -> int:
    """Each of *walks* below a run of one schema node's contexts
    (several: a step to several destinations, whose output is put in
    ``<<`` after).  It counts nothing: a step's visits are its
    output."""
    if len(walks) != 1:
        run = list(run)
    for walk in walks:
        walk(run, out)
    return 0


def _value_walk_run(walks: tuple, run, out: list, value: str) -> int:
    """:func:`_value_walk` below a run of one schema node's contexts;
    with several carrier slots (one local name in several namespaces),
    a context's slots are tried in order up to its first match."""
    if len(walks) == 1:
        return walks[0](run, out, value)
    tested = 0
    for descriptor in run:
        for walk in walks:
            kept = len(out)
            tested += walk((descriptor,), out, value)
            if len(out) > kept:
                break
    return tested


def _predicate_stage(queries: "StorageQueryEngine", schema_nodes,
                     predicate) -> Callable[..., tuple[str, Stage]]:
    """One predicate lowered against the schema nodes the descriptors
    are known to instantiate, its literal left open: a function from
    the predicate at its place in a plan's path to its stage."""
    if isinstance(predicate, PositionPredicate):
        return _positional_stage(queries, schema_nodes)
    if isinstance(predicate, AttributePredicate):
        return _attribute_predicate_stage(predicate)
    if isinstance(predicate, ChildPredicate):
        return _child_predicate_stage(queries, schema_nodes, predicate)
    raise TypeError(f"unknown predicate {predicate!r}")


def _attribute_predicate_stage(predicate: AttributePredicate
                               ) -> Callable[..., tuple[str, Stage]]:
    # The attribute schema-child slots whose local name matches (one,
    # unless namespaces share it): the instance FIRST in label order
    # decides, mirroring predicate_holds over the attributes() order.
    carriers = _carriers(predicate)
    name = f"predicate[@{predicate.name}]"

    def make(predicate: AttributePredicate) -> tuple[str, Stage]:
        value = predicate.value

        def stage(descriptors: list) -> list:
            out: list = []
            for descriptor in descriptors:
                lookup = descriptor.children_by_schema.get
                first = None
                for slot in carriers[descriptor.schema_node]:
                    attribute = lookup(slot)
                    if attribute is not None and (
                            first is None or attribute.nid < first.nid):
                        first = attribute
                if first is not None and (
                        value is None or (first.value or "") == value):
                    out.append(descriptor)
            return out

        return name, stage

    return make


def _child_predicate_stage(queries: "StorageQueryEngine", schema_nodes,
                           predicate: ChildPredicate
                           ) -> Callable[..., tuple[str, Stage]]:
    # The element schema children whose local name matches: existence
    # is answered by the stored first-child pointer alone; a value test
    # has the two routes of a child step, chosen per call by the same
    # rule (cost.walks) from the context count and the value holders'
    # descriptor counts.
    carriers = _carriers(predicate)

    if predicate.value is None:
        def exists_stage(descriptors: list) -> list:
            out: list = []
            for descriptor in descriptors:
                lookup = descriptor.children_by_schema.get
                for slot in carriers[descriptor.schema_node]:
                    if lookup(slot) is not None:
                        out.append(descriptor)
                        break
            return out
        exists = f"predicate[{predicate.name}]", exists_stage
        return lambda _predicate: exists

    string_value = queries.engine.string_value
    text_holders = value_holders(schema_nodes, predicate)
    walked = _per_run(schema_nodes, _Lowered(lambda schema_node: tuple(
        _value_walk(slot, text_slot(schema_node.children[slot]),
                    string_value)
        for slot in carriers[schema_node])), _value_walk_run)
    name = f"predicate[{predicate.name}=…]"

    def make(predicate: ChildPredicate) -> tuple[str, Stage]:
        value = predicate.value
        # The literal '' has no sweep (:func:`~repro.query.cost.
        # sweep_holders`).
        holders = text_holders if value else None

        def swept(descriptors: list) -> list:
            # A semi-join from the value side.  The predicate is a
            # per-node filter, so it may be answered for every instance
            # at once: a text equal to the literal that is its parent's
            # only child IS that carrier's string value (simple
            # content: the chain holds texts only), and its parent's
            # parent has the matching child.  A carrier with several
            # texts (update-made) is read whole, once, from its first.
            # Membership only — order and duplicate-freedom are the
            # input's.
            matches: list = []
            rows = 0
            for holder in holders:
                texts = sweep((holder,))
                rows += len(texts)
                for text in texts:
                    if text.right_sibling is None:
                        if (text.value == value
                                and text.left_sibling is None):
                            matches.append(text)
                    elif (text.left_sibling is None
                          and string_value(text.parent) == value):
                        matches.append(text)
            hits = _holders(matches, 2)
            if _explain.COLLECTING:
                _note("/sweep", rows)
            return [descriptor for descriptor in descriptors
                    if descriptor in hits]

        def value_stage(descriptors: list) -> list:
            if not descriptors:
                return []
            if holders is not None:
                rows = 0
                for holder in holders:
                    rows += holder.descriptor_count
                if not walks(len(descriptors), rows):
                    return swept(descriptors)
            out: list = []
            tested = walked(descriptors, out, value)
            if _explain.COLLECTING:
                # A carrier and the text below it per test.
                _note("/walk", 2 * tested)
            return out

        return name, value_stage

    return make


# ----------------------------------------------------------------------
# Suffix step stages (hybrid / index plans with a split).


def _suffix_stages(queries: "StorageQueryEngine", context_nodes,
                   steps: "tuple[Step, ...]", first: int) -> list:
    """The :class:`Lowering` entries of ``steps[first:]`` below
    *context_nodes*."""
    # Every stage takes and returns a duplicate-free list in ``<<``,
    # so a step's predicates — positional ones included: the contexts
    # of a child step are the parents — are the stages a scan uses.
    stages: list = []
    current: list[SchemaNode] = list(context_nodes)
    for index in range(first, len(steps)):
        step = steps[index]
        destination = match_step(current, step)
        if not destination:
            stages.append((None, ("step-empty", lambda _descriptors: [])))
            return stages
        lower_step = (_child_step_stage if step.axis == "child"
                      else _descendant_step_stage)
        stages.append((None, lower_step(queries, current, destination,
                                        step)))
        for position, predicate in enumerate(step.predicates):
            stages.append(((index, position),
                           _predicate_stage(queries, destination,
                                            predicate)))
        current = destination
    return stages


def _child_step_stage(queries: "StorageQueryEngine",
                      context_nodes: "list[SchemaNode]",
                      destination: "list[SchemaNode]",
                      step: Step) -> tuple[str, Stage]:
    # Two routes to the same rows, chosen per call (cost.walks) from
    # the context count and the destination's descriptor counts: walk
    # each context's first-child pointers, or sweep the destination
    # schema nodes' blocks once and keep the descriptors whose parent
    # is a context.  The sweep is in ``<<`` whatever the contexts; the
    # walk is while there is one destination (its contexts are one
    # schema node's, so one depth, so their children keep their
    # order), and merged by label otherwise.  An attribute step is a
    # child step: the slot holds the one attribute.
    dest_nodes = tuple(destination)
    multi = len(dest_nodes) > 1
    in_document_order = queries.store.in_document_order
    walk = _per_run(context_nodes, _Lowered(lambda schema_node: tuple(
        partial(_walk, slot)
        for slot, child in enumerate(schema_node.children)
        if child in dest_nodes)), _walk_run)

    def stage(descriptors: list) -> list:
        if not descriptors:
            return []
        rows = 0
        for schema_node in dest_nodes:
            rows += schema_node.descriptor_count
        if not walks(len(descriptors), rows):
            if _explain.COLLECTING:
                _note("/sweep", rows)
            return _members(sweep(dest_nodes), (1,), set(descriptors))
        out: list = []
        walk(descriptors, out)
        if _explain.COLLECTING:
            _note("/walk", len(out))
        return in_document_order(out) if multi else out

    if step.kind == "attribute":
        return f"step[@{step.name or '*'}]", stage
    return f"step[{step.name or step.kind}]", stage


def _descendant_step_stage(queries: "StorageQueryEngine",
                           context_nodes: "list[SchemaNode]",
                           destination: "list[SchemaNode]",
                           step: Step) -> tuple[str, Stage]:
    # Membership under the context set is an ancestor-pointer walk of
    # pre-computed lengths, not a label scan: per destination schema
    # node, the distances at which a context schema node sits on its
    # root path (from 1: ``//`` is descendant-or-self::node()/child::,
    # so a context is never its own member; several when the contexts
    # are ancestor-related, as below ``//*``).
    in_document_order = queries.store.in_document_order
    context_set = set(context_nodes)
    multi = len(destination) > 1
    lowered: list[tuple[tuple[SchemaNode], tuple[int, ...]]] = []
    for schema_node in destination:
        hops = []
        node: Optional[SchemaNode] = schema_node.parent
        hop = 1
        while node is not None:
            if node in context_set:
                hops.append(hop)
            node = node.parent
            hop += 1
        lowered.append(((schema_node,), tuple(hops)))

    def stage(descriptors: list) -> list:
        if not descriptors:
            return []
        contexts = set(descriptors)
        out: list = []
        for chain, hops in lowered:
            out += _members(sweep(chain), hops, contexts)
        return in_document_order(out) if multi else out

    return f"step[//{step.name or step.kind}]", stage
