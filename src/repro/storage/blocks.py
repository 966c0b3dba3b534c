"""Data blocks — the storage unit of Section 9.2.

Every schema node owns a bidirectional list of fixed-capacity blocks.
The invariant the paper states: descriptors are **partially ordered**
across blocks (everything in block *i* precedes everything in block
*j* for *i* < *j* in the list) while descriptors *within* one block are
unordered in memory — document order inside a block is reconstructed
through the 2-byte ``next_in_block``/``prev_in_block`` short pointers.
This split "has been made to simplify updates": an insertion only
touches one block (or splits it), never shifts neighbours.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from typing import TYPE_CHECKING, Iterator, Optional

from repro import obs
from repro.errors import StorageError
from repro.storage.descriptor import (
    NO_SLOT,
    NodeDescriptor,
    doc_order_key,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.dschema import SchemaNode


class Block:
    """One fixed-capacity block of node descriptors."""

    __slots__ = ("schema_node", "capacity", "slots", "count",
                 "next_block", "prev_block", "first_slot", "last_slot",
                 "block_id", "_ordered", "verified")

    _next_id = 0

    def __init__(self, schema_node: "SchemaNode", capacity: int) -> None:
        if capacity < 2:
            raise StorageError("block capacity must be at least 2")
        self.schema_node = schema_node
        self.capacity = capacity
        self.slots: list[Optional[NodeDescriptor]] = [None] * capacity
        self.count = 0
        self.next_block: Optional[Block] = None
        self.prev_block: Optional[Block] = None
        # Anchors of the in-block document-order chain (slot numbers).
        self.first_slot: int = NO_SLOT
        self.last_slot: int = NO_SLOT
        # Materialized document-order run of this block, rebuilt lazily
        # by extend_in_order after any structural change; None = dirty.
        self._ordered: Optional[list] = None
        #: The verdict memo: the in-block invariants (:meth:`verify`)
        #: held when last checked, and the chain has not changed since.
        #: Reset with ``_ordered``, by the three chain changes.
        self.verified = False
        self.block_id = Block._next_id
        Block._next_id += 1
        obs.REGISTRY.counter("storage.blocks.allocated").inc()

    # -- basic bookkeeping ---------------------------------------------------

    @property
    def is_full(self) -> bool:
        return self.count >= self.capacity

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    def _free_slot(self) -> int:
        """A free slot of a non-full block: slot ``count`` when it is
        free — always, while ``remove`` has left no hole, so loads
        fill a block in order without a scan — else the lowest hole."""
        slot = self.count
        if self.slots[slot] is not None:
            slot = self.slots.index(None)
        return slot

    # -- the in-block document-order chain ---------------------------------

    def iter_in_order(self) -> Iterator[NodeDescriptor]:
        """Descriptors of this block in document order (short-pointer
        chain), regardless of their physical slot positions."""
        slot = self.first_slot
        while slot != NO_SLOT:
            descriptor = self.slots[slot]
            if descriptor is None:  # pragma: no cover - invariant
                raise StorageError("order chain references a free slot")
            yield descriptor
            slot = descriptor.next_in_block

    def extend_in_order(self, out: list) -> None:
        """Append this block's descriptors to *out* in document order.

        The batched counterpart of :meth:`iter_in_order`: one call per
        block instead of one generator resumption per descriptor, which
        is what the compiled query executors and the batched NodeStore
        kernel iterate with.  The chain walk is performed once after a
        structural change and memoized, so steady-state sweeps are a
        single ``list.extend`` per block.
        """
        ordered = self._ordered
        out.extend(ordered if ordered is not None else self._run())

    def _run(self) -> list:
        """The memoized document-order run (built on first use)."""
        ordered = self._ordered
        if ordered is None:
            slots = self.slots
            slot = self.first_slot
            ordered = []
            append = ordered.append
            while slot != NO_SLOT:
                descriptor = slots[slot]
                if descriptor is None:  # pragma: no cover - invariant
                    raise StorageError(
                        "order chain references a free slot")
                append(descriptor)
                slot = descriptor.next_in_block
            self._ordered = ordered
        return ordered

    def predecessor(self, key: bytes) -> Optional[NodeDescriptor]:
        """The last descriptor of this block whose label orders before
        the packed label *key* (None: *key* goes first) — a bisection
        of the memoized run, O(log capacity) key reads."""
        run = self._run()
        position = bisect_left(run, key, key=doc_order_key)
        return run[position - 1] if position else None

    def verify(self) -> None:
        """The in-block invariants, walked from scratch: the order
        chain holds exactly ``count`` descriptors and ends at
        ``last_slot``, its labels strictly increase (compared as
        bytes), and each descriptor belongs to this block's schema
        node.  Raises ``StorageError``; on success
        records the verdict and keeps the walked chain as the
        memoized run, so the next sweep does not walk it again."""
        ordered = list(islice(self.iter_in_order(), self.count + 1))
        if len(ordered) != self.count:
            raise StorageError(
                f"{self!r}: the order chain does not hold "
                f"exactly its count of {self.count} descriptors")
        if ordered and ordered[-1].slot != self.last_slot:
            raise StorageError(
                f"{self!r}: the order chain does not end at its last "
                "slot")
        owner = self.schema_node
        previous = b""
        for descriptor in ordered:
            key = descriptor.nid
            if key <= previous:
                raise StorageError(f"{self!r}: in-block chain out of order")
            previous = key
            if descriptor.schema_node is not owner:
                raise StorageError(
                    f"{descriptor!r} stored under the wrong schema node")
        self._ordered = ordered
        self.verified = True

    def first_descriptor(self) -> Optional[NodeDescriptor]:
        if self.first_slot == NO_SLOT:
            return None
        return self.slots[self.first_slot]

    def last_descriptor(self) -> Optional[NodeDescriptor]:
        if self.last_slot == NO_SLOT:
            return None
        return self.slots[self.last_slot]

    # -- insertion and removal ---------------------------------------------

    def insert_after(self, descriptor: NodeDescriptor,
                     predecessor: Optional[NodeDescriptor]) -> None:
        """Place *descriptor* into any free slot, linked into the order
        chain right after *predecessor* (None = at the front)."""
        if self.is_full:
            raise StorageError("insert into a full block")
        if predecessor is not None and predecessor.block is not self:
            raise StorageError("predecessor lives in a different block")
        self._ordered = None
        self.verified = False
        slot = self._free_slot()
        self.slots[slot] = descriptor
        descriptor.block = self
        descriptor.slot = slot
        self.count += 1
        if predecessor is None:
            descriptor.prev_in_block = NO_SLOT
            descriptor.next_in_block = self.first_slot
            if self.first_slot != NO_SLOT:
                self.slots[self.first_slot].prev_in_block = slot
            self.first_slot = slot
            if self.last_slot == NO_SLOT:
                self.last_slot = slot
        else:
            descriptor.prev_in_block = predecessor.slot
            descriptor.next_in_block = predecessor.next_in_block
            if predecessor.next_in_block != NO_SLOT:
                self.slots[predecessor.next_in_block].prev_in_block = slot
            predecessor.next_in_block = slot
            if self.last_slot == predecessor.slot:
                self.last_slot = slot

    def remove(self, descriptor: NodeDescriptor) -> None:
        """Unlink *descriptor* from the chain and free its slot."""
        if descriptor.block is not self:
            raise StorageError("descriptor lives in a different block")
        self._ordered = None
        self.verified = False
        prev_slot = descriptor.prev_in_block
        next_slot = descriptor.next_in_block
        if prev_slot != NO_SLOT:
            self.slots[prev_slot].next_in_block = next_slot
        else:
            self.first_slot = next_slot
        if next_slot != NO_SLOT:
            self.slots[next_slot].prev_in_block = prev_slot
        else:
            self.last_slot = prev_slot
        self.slots[descriptor.slot] = None
        descriptor.block = None
        descriptor.slot = NO_SLOT
        descriptor.next_in_block = NO_SLOT
        descriptor.prev_in_block = NO_SLOT
        self.count -= 1

    def split(self) -> "Block":
        """Move the upper half of the order chain into a new block
        linked right after this one; returns the new block."""
        ordered = list(self.iter_in_order())
        half = len(ordered) // 2
        sibling = Block(self.schema_node, self.capacity)
        # Rebuild this block with the kept half.
        for descriptor in ordered:
            self.slots[descriptor.slot] = None
        self._ordered = None
        self.verified = False
        self._lay_out(ordered[:half])
        sibling._lay_out(ordered[half:])
        # Link the sibling into the chain.
        sibling.next_block = self.next_block
        sibling.prev_block = self
        if self.next_block is not None:
            self.next_block.prev_block = sibling
        self.next_block = sibling
        if self.schema_node.last_block is self:
            self.schema_node.last_block = sibling
        return sibling

    def _lay_out(self, run: list) -> None:
        """Store the document-ordered *run* in slots ``0 ..`` of this
        emptied block, chained in that order — the slots a load fills."""
        slots = self.slots
        last = len(run) - 1
        for slot, descriptor in enumerate(run):
            slots[slot] = descriptor
            descriptor.block = self
            descriptor.slot = slot
            descriptor.prev_in_block = slot - 1 if slot else NO_SLOT
            descriptor.next_in_block = slot + 1 if slot < last else NO_SLOT
        self.count = len(run)
        self.first_slot = 0 if run else NO_SLOT
        self.last_slot = last if run else NO_SLOT

    def __repr__(self) -> str:
        return (f"Block#{self.block_id}({self.schema_node.step!r}, "
                f"{self.count}/{self.capacity})")


# ----------------------------------------------------------------------
# Sweeps: block chains read whole, document order (``<<``, §7) kept.


def sweep(schema_nodes) -> list:
    """Every instance of *schema_nodes* in ``<<`` — the one statement
    of "sweep several block chains and restore document order".

    A schema node's chain is one document-ordered run (the partial
    order across blocks, the memoized run inside each), so the
    concatenation is globally ordered iff every run boundary is:
    last-of-run-i <= first-of-run-i+1.  Only when a boundary is out of
    order does the merge need a sort (Timsort recognizes the runs, so
    even that is one linear galloping merge).
    """
    out: list = []
    ordered = True
    for schema_node in schema_nodes:
        boundary = len(out)
        block = schema_node.first_block
        while block is not None:
            block.extend_in_order(out)
            block = block.next_block
        if (ordered and 0 < boundary < len(out)
                and out[boundary].nid < out[boundary - 1].nid):
            ordered = False
    if not ordered:
        out.sort(key=doc_order_key)
    return out
