"""Caches for the query layer: parsed paths and compiled plans.

Two caches keep repeated queries off the slow paths:

* a process-wide LRU **parse cache** — a path string compiles to a
  :class:`~repro.query.paths.Path` exactly once, because parsing is
  pure (the same text always yields the same frozen ``Path``);
* a per-engine **plan cache** (used by
  :class:`~repro.query.planner.QueryPlanner`) — compiled plans are
  keyed by ``Path``, with a plain ``dict`` from path *string* to the
  same plan in front.  A plan is handed out after **one** compare,
  ``plan.epoch == engine.plan_epoch``: the engine's plan epoch is a
  single integer that every source of staleness (schema growth,
  index DDL, statistics drift) bumps, and the plan's only freshness
  stamp.  When the compare fails the plan is compiled afresh and
  replaces its entry (:meth:`LRUCache.invalidate`, then a miss).

  A hit takes no lock and does not reorder the cache; it sets the
  plan's ``referenced`` flag instead, and :meth:`LRUCache.put` gives
  a referenced entry one second chance before evicting it (CLOCK).

Both count through the observability layer's instruments
(:mod:`repro.obs.metrics`) — one counter mechanism for the whole
repository.  :class:`CacheStats` and :func:`parse_cache_stats` remain
as thin snapshot views over those instruments; the process-wide parse
cache additionally registers its counters in the global
:data:`repro.obs.REGISTRY` (under ``query.parse_cache.*``) so they
appear in every metrics snapshot.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, Iterator, Optional, TypeVar

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

#: Sentinel distinguishing "missing" from a cached None.
_MISSING = object()


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
    """A counting least-recently-used map.

    ``get`` refreshes recency; ``put`` evicts the coldest entry once
    the capacity is exceeded.  ``invalidations`` is bumped by callers
    through :meth:`invalidate` when an entry is discarded for being
    stale rather than cold (the plan cache's epoch check).

    A reader that must not take the lock (the plan cache's hit) cannot
    ``move_to_end``; it sets ``value.referenced = True`` instead, and
    ``put`` passes over a coldest entry so marked once — clearing the
    mark and moving it to the warm end — before evicting (CLOCK's
    second chance).  Values without the attribute are never spared.

    Thread-safe: the session layer shares one engine (and its plan
    cache) across concurrent readers of a snapshot, and the
    process-wide parse cache is hit from every worker thread, so every
    entry operation runs under an internal lock — a lookup can no
    longer race an eviction into a ``KeyError`` on ``move_to_end``.

    Counters are :class:`~repro.obs.metrics.Counter` instruments.  Pass
    *registry* and *prefix* to register them (``<prefix>.hits`` …) in a
    shared :class:`MetricsRegistry` — done by the process-wide parse
    cache; per-engine plan caches keep private instruments so one
    engine's hit rate is not another's.  ``hit_counter`` and
    ``miss_counter`` are public: :meth:`peek` counts nothing, so a
    caller that decides hit or miss itself (a found-but-stale plan is
    a miss) bumps them.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hit_counter",
                 "miss_counter", "_invalidations", "_evictions")

    def __init__(self, capacity: int,
                 registry: Optional[MetricsRegistry] = None,
                 prefix: str = "cache") -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()
        make = registry.counter if registry is not None \
            else (lambda name: Counter(name))
        self.hit_counter = make(f"{prefix}.hits")
        self.miss_counter = make(f"{prefix}.misses")
        self._invalidations = make(f"{prefix}.invalidations")
        self._evictions = make(f"{prefix}.evictions")

    # Counter values under the historical attribute names.
    @property
    def hits(self) -> int:
        return self.hit_counter.value

    @property
    def misses(self) -> int:
        return self.miss_counter.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def get(self, key: K) -> Optional[V]:
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self.miss_counter.inc()
                return None
            self._entries.move_to_end(key)
            self.hit_counter.inc()
            return entry  # type: ignore[return-value]

    def peek(self, key: K) -> Optional[V]:
        """Read without touching recency or the hit/miss counters."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            return None if entry is _MISSING else entry  # type: ignore

    def put(self, key: K, value: V) -> Optional[V]:
        """Store *value*; returns the value evicted to make room (None
        when nothing was)."""
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
                entries[key] = value
                return None
            evicted = None
            if len(entries) >= self.capacity:
                # At most one rotation: every mark is cleared by then.
                for _ in range(len(entries)):
                    coldest = next(iter(entries))
                    spared = entries[coldest]
                    if not getattr(spared, "referenced", False):
                        break
                    spared.referenced = False
                    entries.move_to_end(coldest)
                _, evicted = entries.popitem(last=False)
                self._evictions.inc()
            entries[key] = value
            return evicted

    def invalidate(self, key: K) -> None:
        """Drop a stale entry (counted separately from evictions)."""
        with self._lock:
            if self._entries.pop(key, _MISSING) is not _MISSING:
                self._invalidations.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        self.hit_counter.reset()
        self.miss_counter.reset()
        self._invalidations.reset()
        self._evictions.reset()

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses,
                          invalidations=self.invalidations,
                          evictions=self.evictions,
                          size=len(self._entries),
                          capacity=self.capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        with self._lock:
            return iter(list(self._entries))


# ----------------------------------------------------------------------
# The process-wide parse cache.  One per process, so its counters live
# in the global metrics registry (they show up in `repro metrics` and the
# benchmark reports as `query.parse_cache.*`).

_parse_cache: LRUCache[str, Path] = LRUCache(
    PARSE_CACHE_CAPACITY, registry=obs.REGISTRY,
    prefix="query.parse_cache")


def cached_parse_path(text: str) -> Path:
    """:func:`~repro.query.paths.parse_path` through the LRU cache.

    Parsing is pure, so one cache serves every engine in the process.
    Parse errors are not cached (they raise before the ``put``).
    """
    path = _parse_cache.get(text)
    context = _explain.current() if _explain.COLLECTING else None
    if path is None:
        path = parse_path(text)
        _parse_cache.put(text, path)
        if context is not None:
            context.parse_cache = "miss"
    elif context is not None:
        context.parse_cache = "hit"
    return path


def parse_cache_stats() -> CacheStats:
    """Counters of the process-wide parse cache."""
    return _parse_cache.stats()


def clear_parse_cache() -> None:
    """Empty the parse cache and zero its counters (test isolation)."""
    _parse_cache.clear()
    _parse_cache.reset_stats()
