"""Secondary indexes over the descriptive schema.

Real Sedna layers two families of secondary indexes on top of the §9
physical design, and this module reproduces both:

* a **typed-value index** per (schema node, attribute-or-text): keys
  are the §4 typed values of the indexed attribute (or the string
  value of the indexed element), obtained through the XML Schema
  simple-type machinery (``repro.xsdtypes``); postings are lists of
  node descriptors kept in document order by the memoized binary nid
  key, maintained with bisect.  Probes: equality, range, existence.
* a **path index** materializing the merged, document-ordered
  descriptor set of every schema node matched by a predicate-free
  path, so ``//x`` and deep child chains resolve without the
  concatenate-and-sort step of the scan strategy.

Index *definitions* are durable state: DDL is write-ahead logged
(``CREATE_INDEX``/``DROP_INDEX`` records) and checkpoint images persist
the definitions.  Index *contents* are derived state: they are rebuilt
from the block lists on image load and reconciled after WAL replay —
:func:`repro.storage.recovery.recover` ends by checking that the
incrementally maintained indexes bisimulate a from-scratch rebuild.

Incremental maintenance hangs off the engine's mutation paths
(``insert_child``/``set_attribute``/``delete_subtree`` and their
rollback inverses) through three ``note_*`` hooks; each hook and each
full (re)build is a named crash point (``index.update`` /
``index.rebuild``) for the fault-injection matrix.
"""

from __future__ import annotations

import time
from bisect import bisect_left, insort_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import obs
from repro.errors import StorageError, TypeSystemError, UpdateError
from repro.storage import faults
from repro.storage.blocks import sweep
from repro.storage.descriptor import NodeDescriptor, doc_order_key
from repro.xsdtypes.registry import builtin

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.paths import Step
    from repro.storage.dschema import SchemaNode
    from repro.storage.engine import StorageEngine

VALUE = "value"
PATH = "path"
KINDS = (VALUE, PATH)

#: Posting-list slot for owners whose lexical value does not parse
#: under the index's simple type: they stay probe-able by existence
#: (matching the evaluator's untyped predicate semantics) but never
#: match an equality or range probe.
_UNTYPED = object()
_MISSING = object()


@dataclass(frozen=True)
class IndexDefinition:
    """The durable part of an index: what WAL records and checkpoint
    images carry.  Contents are always derivable from the blocks."""

    path: str
    kind: str = VALUE
    value_type: str = "string"

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.path)

    def as_dict(self) -> dict[str, str]:
        return {"path": self.path, "kind": self.kind,
                "value_type": self.value_type}

    def __repr__(self) -> str:
        suffix = f", {self.value_type}" if self.kind == VALUE else ""
        return f"IndexDefinition({self.kind}:{self.path}{suffix})"


def _insert_in_order(postings: "list[NodeDescriptor]",
                     descriptor: "NodeDescriptor") -> None:
    insort_right(postings, descriptor, key=doc_order_key)


def _position_in_order(postings: "list[NodeDescriptor]",
                       descriptor: "NodeDescriptor") -> int:
    """Where *descriptor*'s label sits in *postings*, or -1."""
    key = descriptor.nid.sort_key()
    i = bisect_left(postings, key, key=doc_order_key)
    if i < len(postings) and postings[i].nid.sort_key() == key:
        return i
    return -1


def _remove_in_order(postings: "list[NodeDescriptor]",
                     descriptor: "NodeDescriptor") -> None:
    i = _position_in_order(postings, descriptor)
    if i >= 0:
        del postings[i]


class ValueIndex:
    """A typed-value index on one attribute or element schema path.

    For an attribute path (``library/book/@year``) the *owners* in the
    postings are the parent elements — exactly the nodes a
    ``[@year...]`` predicate selects.  For an element path
    (``library/book/title``) the owners are the elements themselves,
    keyed by their string value; a ``[title='...']`` predicate on the
    parent probes this index and maps owners to parents.
    """

    kind = VALUE

    def __init__(self, engine: "StorageEngine",
                 definition: IndexDefinition,
                 value_node: "SchemaNode") -> None:
        self.engine = engine
        self.definition = definition
        #: The schema node whose instances carry the indexed value.
        self.value_node = value_node
        self.attribute = value_node.node_type == "attribute"
        #: The schema node of the descriptors the postings hold.
        self.owner_node = (value_node.parent if self.attribute
                           else value_node)
        self.simple_type = builtin(definition.value_type)
        # typed key -> owners in document order (bisect-maintained).
        self._postings: dict[object, list["NodeDescriptor"]] = {}
        # Sorted distinct typed keys, for range probes.
        self._keys: list = []
        # Every owner (typed or not), in document order: existence.
        self._all: list["NodeDescriptor"] = []
        # owner nid key -> its current typed key (or _UNTYPED).
        self._key_of: dict[bytes, object] = {}

    # -- keys -----------------------------------------------------------

    def parse_key(self, lexical: str):
        """Map a lexical value into the §4 value space (raises
        ``TypeSystemError`` when it has no typed value)."""
        return self.simple_type.parse(lexical)

    def _typed(self, lexical: Optional[str]):
        try:
            return self.simple_type.parse(lexical or "")
        except TypeSystemError:
            return _UNTYPED

    # -- maintenance ----------------------------------------------------

    def add(self, owner: "NodeDescriptor",
            lexical: Optional[str]) -> None:
        okey = owner.nid.sort_key()
        if okey in self._key_of:
            self.update(owner, lexical)
            return
        key = self._typed(lexical)
        self._key_of[okey] = key
        _insert_in_order(self._all, owner)
        if key is not _UNTYPED:
            posting = self._postings.get(key)
            if posting is None:
                self._postings[key] = [owner]
                insort_right(self._keys, key)
            else:
                _insert_in_order(posting, owner)

    def remove(self, owner: "NodeDescriptor") -> None:
        okey = owner.nid.sort_key()
        key = self._key_of.pop(okey, _MISSING)
        if key is _MISSING:
            return
        _remove_in_order(self._all, owner)
        if key is not _UNTYPED:
            posting = self._postings[key]
            _remove_in_order(posting, owner)
            if not posting:
                del self._postings[key]
                i = bisect_left(self._keys, key)
                del self._keys[i]

    def update(self, owner: "NodeDescriptor",
               lexical: Optional[str]) -> None:
        okey = owner.nid.sort_key()
        if self._key_of.get(okey, _MISSING) is _MISSING:
            self.add(owner, lexical)
            return
        if self._key_of[okey] == self._typed(lexical) \
                and self._key_of[okey] is not _UNTYPED:
            return
        self.remove(owner)
        self.add(owner, lexical)

    def reindex(self, owner: "NodeDescriptor") -> None:
        """Recompute an element owner's key from its current string
        value (called when a text child appears or disappears)."""
        self.update(owner, self.engine.string_value(owner))

    def build(self) -> None:
        """Populate from scratch by one block-list scan (document
        order, so every insertion lands at the tail)."""
        faults.fire("index.rebuild")
        self._postings.clear()
        self._keys.clear()
        self._all.clear()
        self._key_of.clear()
        engine = self.engine
        if self.attribute:
            for attr in engine.scan_schema_node(self.value_node):
                if attr.parent is not None:
                    self.add(attr.parent, attr.value)
        else:
            for owner in engine.scan_schema_node(self.value_node):
                self.add(owner, engine.string_value(owner))

    def _built_key(self, owner: "NodeDescriptor"):
        """The key :meth:`build` would file *owner* under from the
        stored data now (``_MISSING``: it would not file it)."""
        if owner.block is None:
            return _MISSING
        if not self.attribute:
            return self._typed(self.engine.string_value(owner))
        attribute = self.engine.first_child_by_schema(owner,
                                                      self.value_node)
        return _MISSING if attribute is None \
            else self._typed(attribute.value)

    def verify_entry(self, owner: "NodeDescriptor") -> None:
        """Assert *owner* is filed exactly as :meth:`build` would."""
        label = owner.nid.sort_key()
        at = _position_in_order(self._all, owner)
        listed = at >= 0 and self._all[at] is owner
        expected = self._built_key(owner)
        if expected is _MISSING:
            # Its label may since belong to a new descriptor's entry;
            # *this* descriptor must be gone.
            consistent = not listed and (at >= 0
                                         or label not in self._key_of)
        else:
            consistent = listed and self._key_of.get(label) == expected \
                and (expected is _UNTYPED or _position_in_order(
                    self._postings.get(expected, ()), owner) >= 0)
        if not consistent:
            raise StorageError(
                f"index value:{self.definition.path} holds a stale "
                f"entry for {owner!r}")

    # -- probes ---------------------------------------------------------

    def _probed(self, result: "list[NodeDescriptor]"
                ) -> "list[NodeDescriptor]":
        obs.REGISTRY.counter("index.probes").inc()
        if result:
            obs.REGISTRY.counter("index.hits").inc()
        return result

    def probe_eq(self, key) -> "list[NodeDescriptor]":
        """Owners whose typed value equals *key* (document order)."""
        return self._probed(list(self._postings.get(key, ())))

    def probe_range(self, low=None, high=None, *,
                    inclusive_low: bool = True,
                    inclusive_high: bool = True
                    ) -> "list[NodeDescriptor]":
        """Owners with typed value in the given range (either bound
        may be None for an open end); document order."""
        keys = self._keys
        start = 0
        if low is not None:
            start = bisect_left(keys, low)
            if not inclusive_low:
                while start < len(keys) and keys[start] == low:
                    start += 1
        stop = len(keys)
        if high is not None:
            stop = bisect_left(keys, high)
            if inclusive_high:
                while stop < len(keys) and keys[stop] == high:
                    stop += 1
        out: list["NodeDescriptor"] = []
        for key in keys[start:stop]:
            out.extend(self._postings[key])
        out.sort(key=doc_order_key)
        return self._probed(out)

    def probe_exists(self) -> "list[NodeDescriptor]":
        """Every owner carrying the indexed attribute/element —
        the ``[@name]`` / ``[name]`` existence semantics."""
        return self._probed(list(self._all))

    # -- introspection --------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {"kind": self.kind, "path": self.definition.path,
                "value_type": self.definition.value_type,
                "entries": len(self._all),
                "distinct_keys": len(self._keys)}

    def snapshot(self) -> dict[str, object]:
        """Canonical content for bisimulation checks (recovery)."""
        return {
            "all": [d.nid.symbols() for d in self._all],
            "postings": {
                str(key): [d.nid.symbols() for d in posting]
                for key, posting in self._postings.items()},
        }

    def __repr__(self) -> str:
        return (f"ValueIndex({self.definition.path!r}, "
                f"{self.definition.value_type}, "
                f"{len(self._all)} entries)")


class PathIndex:
    """A materialized descriptor set for one predicate-free path.

    The covered schema-node set is re-derived whenever the descriptive
    schema grows (a new schema node starts empty, so the postings stay
    complete under incremental maintenance).
    """

    kind = PATH

    def __init__(self, engine: "StorageEngine",
                 definition: IndexDefinition,
                 steps: "tuple[Step, ...]") -> None:
        self.engine = engine
        self.definition = definition
        self.steps = steps
        self._covered: frozenset[int] = frozenset()
        self._matched_version = -1
        self._postings: list["NodeDescriptor"] = []

    def covered_ids(self) -> frozenset[int]:
        """``id()``s of the schema nodes this path matches, re-matched
        lazily against the current schema version."""
        schema = self.engine.schema
        if self._matched_version != schema.version:
            from repro.query.planner import match_schema_nodes
            nodes = match_schema_nodes(schema.root, self.steps)
            self._covered = frozenset(id(node) for node in nodes)
            self._matched_version = schema.version
        return self._covered

    def covers_exactly(self, schema_nodes) -> bool:
        return self.covered_ids() == frozenset(
            id(node) for node in schema_nodes)

    def add(self, descriptor: "NodeDescriptor") -> None:
        _insert_in_order(self._postings, descriptor)

    def remove(self, descriptor: "NodeDescriptor") -> None:
        _remove_in_order(self._postings, descriptor)

    def build(self) -> None:
        faults.fire("index.rebuild")
        covered = self.covered_ids()
        self._postings = sweep(
            schema_node for schema_node in self.engine.schema.iter_nodes()
            if id(schema_node) in covered)

    def verify_entry(self, descriptor: "NodeDescriptor") -> None:
        """Assert *descriptor* is posted exactly while it is stored."""
        at = _position_in_order(self._postings, descriptor)
        posted = at >= 0 and self._postings[at] is descriptor
        if posted != (descriptor.block is not None):
            raise StorageError(
                f"index path:{self.definition.path} holds a stale "
                f"entry for {descriptor!r}")

    def probe(self) -> "list[NodeDescriptor]":
        """The pre-merged, document-ordered result set."""
        result = list(self._postings)
        obs.REGISTRY.counter("index.probes").inc()
        if result:
            obs.REGISTRY.counter("index.hits").inc()
        return result

    def stats(self) -> dict[str, object]:
        return {"kind": self.kind, "path": self.definition.path,
                "entries": len(self._postings),
                "schema_nodes_covered": len(self.covered_ids())}

    def snapshot(self) -> dict[str, object]:
        return {"postings": [d.nid.symbols() for d in self._postings]}

    def __repr__(self) -> str:
        return (f"PathIndex({self.definition.path!r}, "
                f"{len(self._postings)} entries)")


class IndexManager:
    """All declared indexes of one engine, plus the maintenance hooks.

    Every DDL event bumps the engine's ``plan_epoch``, so each cached
    query plan is compiled again, against the new index set, on its
    next use.
    """

    def __init__(self, engine: "StorageEngine") -> None:
        self.engine = engine
        #: Cheap guard read by the engine's mutation hot paths.
        self.active = False
        self._indexes: dict[tuple[str, str],
                            ValueIndex | PathIndex] = {}
        self._by_value_node: dict[int, ValueIndex] = {}
        self._path_indexes: list[PathIndex] = []

    # -- DDL ------------------------------------------------------------

    def validate(self, path: str, kind: str = VALUE,
                 value_type: str = "string") -> IndexDefinition:
        """Resolve and normalize a DDL request, raising ``UpdateError``
        before any state (or the WAL) is touched."""
        if kind not in KINDS:
            raise UpdateError(f"unknown index kind {kind!r} "
                              f"(expected one of {KINDS})")
        normalized = path.strip()
        if kind == VALUE:
            if "//" in normalized or "[" in normalized:
                raise UpdateError(
                    "a value index covers one exact schema path "
                    "(no // and no predicates)")
            normalized = normalized.lstrip("/")
            node = self.engine.schema.find_path(normalized)
            if node is None:
                raise UpdateError(
                    f"path {path!r} does not resolve in the "
                    "descriptive schema")
            if node.node_type not in ("attribute", "element"):
                raise UpdateError(
                    "value indexes cover attribute or element paths, "
                    f"not {node.node_type}")
            try:
                builtin(value_type)
            except TypeSystemError as error:
                raise UpdateError(str(error)) from error
            definition = IndexDefinition(normalized, VALUE, value_type)
        else:
            if not normalized.startswith("/"):
                normalized = "/" + normalized
            from repro.errors import QueryError
            from repro.query.paths import parse_path
            try:
                parsed = parse_path(normalized)
            except QueryError as error:
                raise UpdateError(str(error)) from error
            if any(step.predicates for step in parsed.steps):
                raise UpdateError(
                    "path indexes take predicate-free paths")
            definition = IndexDefinition(normalized, PATH, "")
        if definition.key in self._indexes:
            raise UpdateError(
                f"index {definition.kind}:{definition.path} "
                "already declared")
        return definition

    def install(self, definition: IndexDefinition
                ) -> ValueIndex | PathIndex:
        """Register *definition* and build its contents (one scan)."""
        if definition.key in self._indexes:
            raise StorageError(f"{definition!r} already installed")
        if definition.kind == VALUE:
            node = self.engine.schema.find_path(definition.path)
            if node is None:
                raise StorageError(
                    f"{definition!r} no longer resolves")
            index: ValueIndex | PathIndex = ValueIndex(
                self.engine, definition, node)
        else:
            from repro.query.paths import parse_path
            index = PathIndex(self.engine, definition,
                              parse_path(definition.path).steps)
        start = time.perf_counter_ns()
        index.build()
        obs.REGISTRY.counter("index.maintenance_ns").inc(
            time.perf_counter_ns() - start)
        self._indexes[definition.key] = index
        self._rebuild_tables()
        self.engine.plan_epoch += 1
        return index

    def uninstall(self, definition: IndexDefinition) -> None:
        if self._indexes.pop(definition.key, None) is None:
            raise StorageError(f"{definition!r} is not installed")
        self._rebuild_tables()
        self.engine.plan_epoch += 1

    def _rebuild_tables(self) -> None:
        self._by_value_node = {
            id(index.value_node): index
            for index in self._indexes.values()
            if isinstance(index, ValueIndex)}
        self._path_indexes = [index for index in self._indexes.values()
                              if isinstance(index, PathIndex)]
        self.active = bool(self._indexes)

    def find(self, path: str, kind: str = VALUE) -> IndexDefinition:
        """The installed definition for a (possibly unnormalized) DDL
        path, raising ``UpdateError`` when absent."""
        for candidate in (path.strip(), path.strip().lstrip("/"),
                          "/" + path.strip().lstrip("/")):
            index = self._indexes.get((kind, candidate))
            if index is not None:
                return index.definition
        raise UpdateError(f"no {kind} index declared on {path!r}")

    def get(self, path: str, kind: str = VALUE
            ) -> ValueIndex | PathIndex:
        return self._indexes[self.find(path, kind).key]

    def definitions(self) -> list[IndexDefinition]:
        """Declaration order — what checkpoints persist and recovery
        re-installs."""
        return [index.definition for index in self._indexes.values()]

    def __len__(self) -> int:
        return len(self._indexes)

    # -- incremental maintenance (engine mutation hooks) ---------------

    def note_added(self, descriptor: "NodeDescriptor") -> None:
        """A descriptor was linked into the tree (insert, attribute
        creation, or rollback restore)."""
        faults.fire("index.update")
        start = time.perf_counter_ns()
        try:
            self._note_added(descriptor)
        finally:
            elapsed = time.perf_counter_ns() - start
            obs.REGISTRY.counter("index.maintenance_ns").inc(elapsed)
            obs.REGISTRY.histogram("index.maintenance.ns").observe(
                elapsed)

    def _note_added(self, descriptor: "NodeDescriptor") -> None:
        index = self._by_value_node.get(id(descriptor.schema_node))
        if index is not None:
            if index.attribute:
                if descriptor.parent is not None:
                    index.add(descriptor.parent, descriptor.value)
            else:
                index.add(descriptor,
                          self.engine.string_value(descriptor))
        if descriptor.node_type == "text":
            self._reindex_ancestors(descriptor)
        node_id = id(descriptor.schema_node)
        for path_index in self._path_indexes:
            if node_id in path_index.covered_ids():
                path_index.add(descriptor)

    def _reindex_ancestors(self, text: "NodeDescriptor") -> None:
        """A text node came or went: every element above it that an
        element value index keys by string value has a new key."""
        owner = text.parent
        while owner is not None:
            index = self._by_value_node.get(id(owner.schema_node))
            if index is not None and not index.attribute:
                index.reindex(owner)
            owner = owner.parent

    def note_removed(self, descriptor: "NodeDescriptor") -> None:
        """A descriptor is leaving the tree (delete or rollback undo);
        called after sibling unlinking, so recomputed string values no
        longer see it."""
        faults.fire("index.update")
        start = time.perf_counter_ns()
        try:
            self._note_removed(descriptor)
        finally:
            elapsed = time.perf_counter_ns() - start
            obs.REGISTRY.counter("index.maintenance_ns").inc(elapsed)
            obs.REGISTRY.histogram("index.maintenance.ns").observe(
                elapsed)

    def _note_removed(self, descriptor: "NodeDescriptor") -> None:
        index = self._by_value_node.get(id(descriptor.schema_node))
        if index is not None:
            if index.attribute:
                if descriptor.parent is not None:
                    index.remove(descriptor.parent)
            else:
                index.remove(descriptor)
        if descriptor.node_type == "text":
            self._reindex_ancestors(descriptor)
        node_id = id(descriptor.schema_node)
        for path_index in self._path_indexes:
            if node_id in path_index.covered_ids():
                path_index.remove(descriptor)

    def note_value_changed(self, descriptor: "NodeDescriptor") -> None:
        """An attribute descriptor's value was overwritten in place."""
        faults.fire("index.update")
        index = self._by_value_node.get(id(descriptor.schema_node))
        if index is None or not index.attribute \
                or descriptor.parent is None:
            return
        start = time.perf_counter_ns()
        try:
            index.update(descriptor.parent, descriptor.value)
        finally:
            elapsed = time.perf_counter_ns() - start
            obs.REGISTRY.counter("index.maintenance_ns").inc(elapsed)
            obs.REGISTRY.histogram("index.maintenance.ns").observe(
                elapsed)

    # -- planner integration --------------------------------------------

    def plan_probe(self, schema_node: "SchemaNode", predicate):
        """An index probe answering *predicate* on instances of
        *schema_node*, or None.

        Returns ``(mode, index, typed_key, via_parent)`` with *mode*
        ``"eq"`` or ``"exists"``.  The probe is offered only when the
        predicate's local name resolves to exactly one schema child —
        with several same-named children (different namespaces) the
        single-path index would under-report the evaluator's
        local-name semantics.
        """
        from repro.query.paths import PositionPredicate
        from repro.query.planner import predicate_carriers
        if isinstance(predicate, PositionPredicate):
            return None
        carriers = predicate_carriers(schema_node, predicate)
        if len(carriers) != 1:
            return None
        carrier = carriers[0][1]
        via_parent = carrier.node_type == "element"
        index = self._by_value_node.get(id(carrier))
        if index is None or index.attribute is via_parent:
            return None
        if predicate.value is None:
            return ("exists", index, None, via_parent)
        try:
            key = index.parse_key(predicate.value)
        except TypeSystemError:
            # The literal has no typed value under the index's type:
            # typed equality can never hold, but the scan route's
            # untyped string comparison still could — stay off the
            # index rather than change semantics.
            return None
        return ("eq", index, key, via_parent)

    def path_probe(self, schema_nodes) -> Optional[PathIndex]:
        """A path index covering exactly the plan's matched set."""
        for path_index in self._path_indexes:
            if path_index.covers_exactly(schema_nodes):
                return path_index
        return None

    # -- rebuild / verification ----------------------------------------

    def rebuild_all(self) -> None:
        """Repopulate every index from the block lists (bulk load,
        image load)."""
        for index in self._indexes.values():
            index.build()

    def _fresh_instance(self, definition: IndexDefinition
                        ) -> ValueIndex | PathIndex:
        if definition.kind == VALUE:
            node = self.engine.schema.find_path(definition.path)
            if node is None:
                raise StorageError(f"{definition!r} no longer resolves")
            return ValueIndex(self.engine, definition, node)
        from repro.query.paths import parse_path
        return PathIndex(self.engine, definition,
                         parse_path(definition.path).steps)

    def verify_consistency(self, touched=None) -> int:
        """Assert every live index bisimulates a from-scratch rebuild
        (the recovery reconciliation step); returns the number checked.

        With *touched* — the descriptors a replay inserted, overwrote
        or deleted — only the entries that depend on them are checked
        against the stored data: each descriptor's own and those of
        its ancestors (an element entry is keyed by a string value the
        whole subtree feeds), O(touched x depth) where the rebuild is
        O(document).
        """
        if touched is not None:
            owners: set = set()
            for descriptor in touched:
                node_id = id(descriptor.schema_node)
                for path_index in self._path_indexes:
                    if node_id in path_index.covered_ids():
                        path_index.verify_entry(descriptor)
                owner = descriptor
                while owner is not None and owner not in owners:
                    owners.add(owner)  # and with it its ancestors
                    for index in self._by_value_node.values():
                        if index.owner_node is owner.schema_node:
                            index.verify_entry(owner)
                    owner = owner.parent
            return len(self._indexes)
        for key, index in self._indexes.items():
            fresh = self._fresh_instance(index.definition)
            fresh.build()
            if fresh.snapshot() != index.snapshot():
                raise StorageError(
                    f"index {key[0]}:{key[1]} diverged from a "
                    "from-scratch rebuild")
        return len(self._indexes)

    def snapshot(self) -> dict[str, object]:
        return {f"{kind}:{path}": index.snapshot()
                for (kind, path), index in self._indexes.items()}

    def stats(self) -> list[dict[str, object]]:
        return [index.stats() for index in self._indexes.values()]

    def __repr__(self) -> str:
        return f"IndexManager({len(self._indexes)} indexes)"
