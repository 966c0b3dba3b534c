"""Secondary indexes over the descriptive schema.

Real Sedna layers typed-value indexes on top of the §9 physical
design, and this module reproduces them: a **typed-value index** per
(schema node, attribute-or-text) keys the §4 typed values of the
indexed attribute (or the string value of the indexed element),
obtained through the XML Schema simple-type machinery
(``repro.xsdtypes``); postings are lists of node descriptors kept in
document order by the memoized binary nid key, maintained with bisect.
Probes: equality, range, existence.

There is no path index: every document path has one schema path
(§9.1), so a predicate-free path's answer is its schema nodes' block
lists, which a ``scan`` plan's :func:`~repro.storage.blocks.sweep`
already returns in ``<<``.

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
from repro.storage.descriptor import NodeDescriptor, doc_order_key
from repro.xsdtypes.registry import builtin

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.dschema import SchemaNode
    from repro.storage.engine import StorageEngine

#: The one index kind: the text WAL records, images and manifests
#: carry per definition.
VALUE = "value"

#: Posting-list slot for owners whose lexical value does not parse
#: under the index's simple type: they stay probe-able by existence
#: (matching the evaluator's untyped predicate semantics) but never
#: match an equality or range probe.
_UNTYPED = object()
_MISSING = object()
#: A typed key whose owners carry more than one lexical form.
_MIXED = object()


@dataclass(frozen=True)
class IndexDefinition:
    """The durable part of an index: what WAL records and checkpoint
    images carry.  Contents are always derivable from the blocks."""

    path: str
    value_type: str = "string"
    kind = VALUE

    def as_dict(self) -> dict[str, str]:
        return {"path": self.path, "kind": self.kind,
                "value_type": self.value_type}

    def __repr__(self) -> str:
        return f"IndexDefinition({self.kind}:{self.path}, {self.value_type})"


def decode_definition(path: str, kind: str,
                      value_type: str = "string") -> IndexDefinition:
    """The definition a decoder read (an image, a snapshot manifest, a
    WAL DDL record), raising ``StorageError`` for a kind this version
    does not build; each decoder adds where it read it."""
    if kind == "path":
        raise StorageError(
            f"path index {path!r}: path indexes were removed; drop it "
            "and checkpoint with the previous version")
    if kind != VALUE:
        raise StorageError(f"unknown index kind {kind!r}")
    return IndexDefinition(path, value_type)


def _insert_in_order(postings: "list[NodeDescriptor]",
                     descriptor: "NodeDescriptor") -> None:
    insort_right(postings, descriptor, key=doc_order_key)


def _position_in_order(postings: "list[NodeDescriptor]",
                       descriptor: "NodeDescriptor") -> int:
    """Where *descriptor*'s label sits in *postings*, or -1."""
    key = descriptor.nid
    i = bisect_left(postings, key, key=doc_order_key)
    if i < len(postings) and postings[i].nid == key:
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
        # typed key -> the lexical form every owner under it carries,
        # or _MIXED (kept until the posting empties or is rebuilt).
        self._forms: dict[object, object] = {}

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
        okey = owner.nid
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
            self._note_form(key, lexical)

    def remove(self, owner: "NodeDescriptor") -> None:
        okey = owner.nid
        key = self._key_of.pop(okey, _MISSING)
        if key is _MISSING:
            return
        _remove_in_order(self._all, owner)
        if key is not _UNTYPED:
            posting = self._postings[key]
            _remove_in_order(posting, owner)
            if not posting:
                del self._postings[key]
                del self._forms[key]
                i = bisect_left(self._keys, key)
                del self._keys[i]

    def update(self, owner: "NodeDescriptor",
               lexical: Optional[str]) -> None:
        okey = owner.nid
        if self._key_of.get(okey, _MISSING) is _MISSING:
            self.add(owner, lexical)
            return
        key = self._typed(lexical)
        if key is not _UNTYPED and self._key_of[okey] == key:
            self._note_form(key, lexical)
            return
        self.remove(owner)
        self.add(owner, lexical)

    def _note_form(self, key, lexical: Optional[str]) -> None:
        if self._forms.setdefault(key, lexical or "") != (lexical or ""):
            self._forms[key] = _MIXED

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
        self._forms.clear()
        engine = self.engine
        if self.attribute:
            for attr in engine.scan_schema_node(self.value_node):
                if attr.parent is not None:
                    self.add(attr.parent, attr.value)
        else:
            for owner in engine.scan_schema_node(self.value_node):
                self.add(owner, engine.string_value(owner))

    def lexical(self, owner: "NodeDescriptor") -> Optional[str]:
        """The stored lexical value *owner* is keyed by: its indexed
        attribute's value, or its own string value (None: it carries
        no such attribute)."""
        if not self.attribute:
            return self.engine.string_value(owner)
        attribute = self.engine.first_child_by_schema(owner,
                                                      self.value_node)
        return None if attribute is None else attribute.value or ""

    def _built_key(self, owner: "NodeDescriptor"):
        """The key :meth:`build` would file *owner* under from the
        stored data now (``_MISSING``: it would not file it)."""
        lexical = None if owner.block is None else self.lexical(owner)
        return _MISSING if lexical is None else self._typed(lexical)

    def verify_entry(self, owner: "NodeDescriptor") -> None:
        """Assert *owner* is filed exactly as :meth:`build` would."""
        label = owner.nid
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

    def probe_lexical(self, key, literal: str) -> "list[NodeDescriptor]":
        """Owners whose stored lexical value is *literal* — the path
        language's ``=``, which compares string values — given its
        typed *key*: the key only narrows, to the owners of every
        lexical form of that value; document order."""
        form = self._forms.get(key)
        if form is _MIXED:
            lexical = self.lexical
            result = [owner for owner in self._postings[key]
                      if lexical(owner) == literal]
        else:
            result = list(self._postings[key]) if form == literal else []
        return self._probed(result)

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
        return {"kind": VALUE, "path": self.definition.path,
                "value_type": self.definition.value_type,
                "entries": len(self._all),
                "distinct_keys": len(self._keys)}

    def snapshot(self) -> dict[str, object]:
        """Canonical content for bisimulation checks (recovery)."""
        # In key order, not by key text: equal keys may print apart
        # (decimal 0 and -0), and which one files a posting is chance.
        return {
            "all": [d.nid for d in self._all],
            "postings": [[d.nid for d in self._postings[key]]
                         for key in self._keys],
        }

    def __repr__(self) -> str:
        return (f"ValueIndex({self.definition.path!r}, "
                f"{self.definition.value_type}, "
                f"{len(self._all)} entries)")


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
        self._indexes: dict[str, ValueIndex] = {}
        self._by_value_node: dict[int, ValueIndex] = {}

    # -- DDL ------------------------------------------------------------

    def validate(self, path: str,
                 value_type: str = "string") -> IndexDefinition:
        """Resolve and normalize a DDL request, raising ``UpdateError``
        before any state (or the WAL) is touched."""
        normalized = path.strip()
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
        if normalized in self._indexes:
            raise UpdateError(
                f"index {VALUE}:{normalized} already declared")
        return IndexDefinition(normalized, value_type)

    def install(self, definition: IndexDefinition) -> ValueIndex:
        """Register *definition* and build its contents (one scan)."""
        if definition.path in self._indexes:
            raise StorageError(f"{definition!r} already installed")
        index = self._fresh_instance(definition)
        start = time.perf_counter_ns()
        index.build()
        obs.REGISTRY.counter("index.maintenance_ns").inc(
            time.perf_counter_ns() - start)
        self._indexes[definition.path] = index
        self._rebuild_tables()
        self.engine.plan_epoch += 1
        return index

    def uninstall(self, definition: IndexDefinition) -> None:
        if self._indexes.pop(definition.path, None) is None:
            raise StorageError(f"{definition!r} is not installed")
        self._rebuild_tables()
        self.engine.plan_epoch += 1

    def _rebuild_tables(self) -> None:
        self._by_value_node = {id(index.value_node): index
                               for index in self._indexes.values()}
        self.active = bool(self._indexes)

    def find(self, path: str) -> IndexDefinition:
        """The installed definition for a (possibly unnormalized) DDL
        path, raising ``UpdateError`` when absent."""
        index = self._indexes.get(path.strip().lstrip("/"))
        if index is None:
            raise UpdateError(f"no {VALUE} index declared on {path!r}")
        return index.definition

    def get(self, path: str) -> ValueIndex:
        return self._indexes[self.find(path).path]

    def index_on(self, value_node: "SchemaNode"
                 ) -> Optional[ValueIndex]:
        """The index over the values *value_node*'s instances carry,
        or None — what the query planner asks of each predicate's
        carrier."""
        return self._by_value_node.get(id(value_node))

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

    # -- rebuild / verification ----------------------------------------

    def rebuild_all(self) -> None:
        """Repopulate every index from the block lists."""
        for index in self._indexes.values():
            index.build()

    def _fresh_instance(self, definition: IndexDefinition) -> ValueIndex:
        node = self.engine.schema.find_path(definition.path)
        if node is None:
            raise StorageError(f"{definition!r} no longer resolves")
        return ValueIndex(self.engine, definition, node)

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
                owner = descriptor
                while owner is not None and owner not in owners:
                    owners.add(owner)  # and with it its ancestors
                    for index in self._by_value_node.values():
                        if index.owner_node is owner.schema_node:
                            index.verify_entry(owner)
                    owner = owner.parent
            return len(self._indexes)
        for path, index in self._indexes.items():
            fresh = self._fresh_instance(index.definition)
            fresh.build()
            if fresh.snapshot() != index.snapshot():
                raise StorageError(
                    f"index {VALUE}:{path} diverged from a "
                    "from-scratch rebuild")
        return len(self._indexes)

    def snapshot(self) -> dict[str, object]:
        return {f"{VALUE}:{path}": index.snapshot()
                for path, index in self._indexes.items()}

    def stats(self) -> list[dict[str, object]]:
        return [index.stats() for index in self._indexes.values()]

    def __repr__(self) -> str:
        return f"IndexManager({len(self._indexes)} indexes)"
