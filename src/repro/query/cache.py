"""Caches for the query layer: parsed paths, compiled plans and
path shapes.

Three caches keep repeated queries off the slow paths, one
:class:`LRUCache` each:

* a process-wide **parse cache** — a path string compiles to a
  :class:`~repro.query.paths.Path` exactly once, because parsing is
  pure (the same text always yields the same frozen ``Path``);
* a per-engine **plan cache** (owned by
  :class:`~repro.query.planner.QueryPlanner`) — compiled plans keyed
  by the request exactly as the caller passed it, a string or a
  ``Path``.  A plan is handed out after **one** compare,
  ``plan.epoch == engine.plan_epoch``: the engine's plan epoch is a
  single integer that every source of staleness (schema growth,
  index DDL, statistics drift) bumps, and the plan's only freshness
  stamp.  When the compare fails the plan is compiled afresh and
  replaces its entry;
* a per-engine **shape table** under the plan cache (also the
  planner's, as large as its plan cache) — what planning decides
  without reading a literal (:class:`~repro.query.planner.Shape`),
  keyed by the request string with its literals left open
  (:func:`~repro.query.paths.lift_path`) and stamped with the plan
  epoch like a plan.  A new literal on a known shape is not parsed.

The parse cache stays beside the shape table, and its counters keep
their meaning — a miss is a ``parse_path`` call: a string the lifter
does not read as a shape, the first string of a shape, a shape made
anew after the epoch moved, and a stale plan's ``Path`` request all
still parse through it, and a repeated string among them parses once.
Folding it into the shape table is a change of its own.

A hit on any of them takes no lock: :meth:`LRUCache.get` stamps the
entry it finds, and :meth:`LRUCache.put` evicts the oldest stamp.  The
owners decide what a hit, a miss and an invalidation are (a
found-but-stale plan is a miss) and count them into the cache's
:class:`~repro.obs.metrics.Counter` instruments; the cache counts only
its evictions.  :class:`CacheStats` and :func:`parse_cache_stats` are
snapshot views over those instruments, and the process-wide parse
cache registers its counters in the global :data:`repro.obs.REGISTRY`
(under ``query.parse_cache.*``) so they appear in every metrics
snapshot; the planners add theirs up under ``query.plan_cache.*`` and
``query.shape_cache.*``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import Generic, Hashable, Optional, TypeVar

from repro import obs
from repro.obs import explain as _explain
from repro.obs.metrics import Counter, MetricsRegistry
from repro.query.paths import Path, parse_path

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Default capacity of the process-wide parse cache.
PARSE_CACHE_CAPACITY = 512

#: Default capacity of a per-engine plan cache.
PLAN_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    invalidations: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache(Generic[K, V]):
    """A bounded map that evicts the least recently used entry.

    Each entry is ``[value, stamp]``, the stamp a tick of the cache's
    own clock taken at the entry's last use.  :meth:`get` is one
    ``dict`` read under the GIL: it takes no lock, counts nothing and
    restamps the entry it finds.  :meth:`put` runs under the lock.  A
    known key has its value replaced in place; a new one, once the
    cache is full, evicts the entry with the oldest stamp.  The
    eviction queue is a heap of ``(stamp, key)`` as each key was queued;
    a popped key whose entry has been used since is queued again under
    its newer stamp, so a hit costs the reader one stamp and the next
    evicting writer at most one heap push.  A ``get`` racing an
    eviction returns the evicted value or None, never an error.

    The owner bumps ``hit_counter``, ``miss_counter`` and
    ``invalidation_counter``.  Pass *registry* and *prefix* to register
    them (``<prefix>.hits`` …) in a shared :class:`MetricsRegistry` —
    done by the process-wide parse cache; per-engine plan caches keep
    private instruments so one engine's hit rate is not another's.
    """

    __slots__ = ("capacity", "_entries", "_queue", "_clock", "_lock",
                 "hit_counter", "miss_counter", "invalidation_counter",
                 "_evictions")

    def __init__(self, capacity: int,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cache") -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "dict[K, list]" = {}
        self._queue: "list[tuple[int, K]]" = []
        #: ``next()`` on it is atomic under the GIL: stamps never repeat.
        self._clock = itertools.count()
        self._lock = threading.Lock()
        make = registry.counter if registry is not None \
            else (lambda name: Counter(name))
        self.hit_counter = make(f"{prefix}.hits")
        self.miss_counter = make(f"{prefix}.misses")
        self.invalidation_counter = make(f"{prefix}.invalidations")
        self._evictions = make(f"{prefix}.evictions")

    def get(self, key: K) -> Optional[V]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry[1] = next(self._clock)
        return entry[0]

    def put(self, key: K, value: V) -> None:
        with self._lock:
            entries, queue = self._entries, self._queue
            entry = entries.get(key)
            if entry is not None:
                entry[0] = value
                return
            if len(entries) >= self.capacity:
                while True:
                    queued, victim = heapq.heappop(queue)
                    used = entries[victim][1]
                    if used == queued:
                        break
                    heapq.heappush(queue, (used, victim))
                del entries[victim]
                self._evictions.inc()
            stamp = next(self._clock)
            entries[key] = [value, stamp]
            heapq.heappush(queue, (stamp, key))

    def clear(self) -> None:
        """Empty the cache and zero its counters."""
        with self._lock:
            self._entries.clear()
            self._queue.clear()
        for counter in (self.hit_counter, self.miss_counter,
                        self.invalidation_counter, self._evictions):
            counter.reset()

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hit_counter.value,
                          misses=self.miss_counter.value,
                          invalidations=self.invalidation_counter.value,
                          evictions=self._evictions.value,
                          size=len(self._entries),
                          capacity=self.capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries


# ----------------------------------------------------------------------
# The process-wide parse cache.  One per process, so its counters live
# in the global metrics registry (they show up in `repro metrics` and the
# benchmark reports as `query.parse_cache.*`).

_parse_cache: LRUCache[str, Path] = LRUCache(
    PARSE_CACHE_CAPACITY, registry=obs.REGISTRY,
    prefix="query.parse_cache")


def cached_parse_path(text: str) -> Path:
    """:func:`~repro.query.paths.parse_path` through the parse cache.

    Parsing is pure, so one cache serves every engine in the process.
    Parse errors are not cached (they raise before the ``put``).
    """
    path = _parse_cache.get(text)
    context = _explain.current() if _explain.COLLECTING else None
    if path is None:
        path = parse_path(text)
        _parse_cache.put(text, path)
        _parse_cache.miss_counter.inc()
        if context is not None:
            context.parse_cache = "miss"
    else:
        _parse_cache.hit_counter.inc()
        if context is not None:
            context.parse_cache = "hit"
    return path


def parse_cache_stats() -> CacheStats:
    """Counters of the process-wide parse cache."""
    return _parse_cache.stats()


def clear_parse_cache() -> None:
    """Empty the parse cache and zero its counters (test isolation)."""
    _parse_cache.clear()
