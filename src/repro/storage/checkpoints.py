"""Dirty-block accounting for incremental checkpoints.

The §9 layout makes block-granular durability natural: an update
touches one block (or splits it), never shifts neighbours, so the set
of blocks whose *persisted* form changed since the last checkpoint is
small and cheap to track.  :class:`CheckpointTracker` is that set —
the engine marks a block on every mutation that changes what a
backend would store for it (slot membership, in-block order, a
descriptor's value or sibling links), and a backend that supports
incremental checkpoints drains the set into a dirty-block upsert
instead of a whole-image rewrite.

The diff is only valid relative to the *last checkpoint that consumed
it*, so draining is a consumer-scoped handshake: ``begin(consumer)``
returns ``(full, dirty_ids, dropped_ids)`` where ``full`` is True
whenever someone else (or no one) consumed the previous drain —
a backend seeing ``full`` must write everything.  ``complete()``
clears the set only after the checkpoint landed; a crash in between
leaves the blocks marked, and the next upsert simply rewrites them
(upserts are idempotent).

The same marks keep the **payload memo** honest: ``payloads`` maps a
block id to the block's encoded payload for every block no mark has
reached since it was encoded.  A payload holds nothing but its own
block's descriptors (links travel as labels), so ``mark``,
``mark_descriptor`` and ``drop`` pop the entry and nothing else has
to; ``begin`` / ``complete`` never look at it.  Every checkpoint reads
payloads through :func:`repro.storage.persist.block_payload`, so the
image backends, no part of the handshake, encode only what changed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.blocks import Block
    from repro.storage.descriptor import NodeDescriptor


class CheckpointTracker:
    """Which blocks changed (and which disappeared) since the last
    consumed checkpoint."""

    def __init__(self) -> None:
        self._dirty: set[int] = set()
        self._dropped: set[int] = set()
        self._consumer: Optional[str] = None
        self.payloads: dict[int, bytes] = {}  # the payload memo

    # -- marking (engine side) ------------------------------------------

    def mark(self, block: "Optional[Block]") -> None:
        """The persisted form of *block* changed."""
        if block is not None:
            self._dirty.add(block.block_id)
            self.payloads.pop(block.block_id, None)

    def mark_descriptor(self, descriptor: "Optional[NodeDescriptor]"
                        ) -> None:
        """A stored field of *descriptor* (value, sibling link)
        changed — its block must be rewritten."""
        if descriptor is not None:
            self.mark(descriptor.block)

    def drop(self, block: "Block") -> None:
        """*block* was unlinked from its chain and holds nothing."""
        self._dirty.discard(block.block_id)
        self._dropped.add(block.block_id)
        self.payloads.pop(block.block_id, None)

    # -- draining (backend side) ----------------------------------------

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def begin(self, consumer: str
              ) -> tuple[bool, frozenset[int], frozenset[int]]:
        """Open a checkpoint by *consumer*.

        Returns ``(full, dirty_ids, dropped_ids)``.  ``full`` is True
        when the pending diff is not relative to *consumer*'s own last
        checkpoint (first checkpoint, or another consumer drained in
        between) — the backend must then persist every block.
        """
        full = consumer != self._consumer
        return full, frozenset(self._dirty), frozenset(self._dropped)

    def complete(self, consumer: str) -> None:
        """The checkpoint landed durably: start the next diff."""
        self._consumer = consumer
        self._dirty.clear()
        self._dropped.clear()

    def __repr__(self) -> str:
        return (f"CheckpointTracker(dirty={len(self._dirty)}, "
                f"dropped={len(self._dropped)}, "
                f"consumer={self._consumer!r})")
