"""One LRU cache implementation for every memoization in the library.

PRs 1-3 each grew a private cache -- the per-condition simulation cache, the
equivalent-inverter reduction cache, the per-supply effective-current rows
and the netlist compile cache -- with four different eviction policies and
no shared visibility.  This module replaces all of them with one generic,
capacity-bounded, stats-reporting LRU:

* **Dual capacity bounds.**  Every cache can be bounded by entry count
  (``max_entries``) and by payload size (``max_bytes``); either bound may be
  ``None`` (unbounded on that axis).  Entry sizes are measured by
  :func:`default_sizeof`, which understands NumPy arrays, containers and
  dataclasses, or supplied explicitly by the caller via ``put(nbytes=...)``.
* **Statistics.**  Hits, misses and evictions are counted per cache and
  exposed as :class:`CacheStats`; the process-wide registry aggregates them
  through :func:`cache_stats` (re-exported as ``repro.runtime.cache_stats``),
  so a flow can finally *see* whether its memoization is working.
* **Registry.**  Global caches register by name; ``configure(cache_bytes=N)``
  in :mod:`repro.runtime` re-bounds every registered cache at once.
* **Optional durable second tier.**  A cache constructed with
  ``durable=True`` can carry a :class:`~repro.runtime.persist.DiskStore`
  (attached by ``configure(disk_cache_dir=...)`` / ``REPRO_DISK_CACHE``):
  puts write through to disk, a memory miss falls back to the store (and
  promotes the hit), and :class:`CacheStats` grows disk-tier columns.  The
  tier is strictly write-through -- in-memory semantics, counters and
  eviction behavior are untouched when no store is attached.

The cache is thread-safe: every public operation (lookups, stores, bound
changes, stats snapshots) runs under an internal ``threading.RLock``, and
the process-wide registry is guarded the same way.  The library's original
concurrency story was process fan-out (see :mod:`repro.runtime.executor`),
where each worker owns a private registry and the lock is uncontended; the
characterization service (:mod:`repro.runtime.service`) added in-process
threads -- submitters probing the solved-model cache while the scheduler
fills it -- which is what made the lock load-bearing.  A cache with a disk
tier attached serializes its store access through the same lock, so the
(single-threaded) :class:`~repro.runtime.persist.DiskStore` never sees
concurrent calls from its owning cache.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

#: Sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


def default_sizeof(value: Any, _seen: Optional[set] = None,
                   _depth: int = 0) -> int:
    """Approximate the memory footprint of a cached payload, in bytes.

    NumPy arrays report ``nbytes`` (views count their base buffer once per
    entry -- an over- rather than under-estimate); tuples, lists, dicts and
    dataclasses recurse over their elements; strings and bytes report their
    length.  Anything else falls back to ``sys.getsizeof``.  Recursion is
    cycle-safe and depth-capped, so arbitrary object graphs cannot hang the
    accounting.
    """
    if _depth > 8:
        return 0
    if _seen is None:
        _seen = set()
    marker = id(value)
    if marker in _seen:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, str)):
        return len(value)
    if isinstance(value, (int, float, complex, bool, type(None))):
        return 32
    if isinstance(value, (tuple, list, set, frozenset)):
        _seen.add(marker)
        return 64 + sum(default_sizeof(item, _seen, _depth + 1) for item in value)
    if isinstance(value, dict):
        _seen.add(marker)
        return 64 + sum(default_sizeof(k, _seen, _depth + 1)
                        + default_sizeof(v, _seen, _depth + 1)
                        for k, v in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _seen.add(marker)
        return 64 + sum(
            default_sizeof(getattr(value, field.name, None), _seen, _depth + 1)
            for field in dataclasses.fields(value))
    try:
        return int(sys.getsizeof(value))
    except TypeError:
        return 64


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of one cache's counters and occupancy.

    Attributes
    ----------
    name:
        Registry name of the cache.
    hits, misses, evictions:
        Lifetime lookup and eviction counters (reset by ``clear()``).
    entries, current_bytes:
        Current occupancy.
    max_entries, max_bytes:
        Configured capacity bounds (``None`` = unbounded on that axis).
    durable:
        Whether the cache is eligible for a disk tier.
    disk_hits, disk_misses, disk_writes:
        Disk-tier lookup/write counters (all zero without an attached
        store).
    disk_entries, disk_bytes:
        Disk-tier occupancy.
    disk_quarantined:
        Corrupt disk entries moved aside instead of served.
    """

    name: str
    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_entries: Optional[int]
    max_bytes: Optional[int]
    durable: bool = False
    disk_attached: bool = False
    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0
    disk_quarantined: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class LruCache:
    """Generic capacity-bounded LRU cache with hit/miss/eviction statistics.

    Parameters
    ----------
    name:
        Identifying name (used by the registry and in reports).
    max_entries:
        Entry-count bound, or ``None`` for unbounded.
    max_bytes:
        Payload-size bound in bytes, or ``None`` for unbounded.  A single
        payload larger than the whole budget is rejected outright (counted
        as an eviction) rather than flushing everything else.
    sizeof:
        Size estimator for stored values; defaults to :func:`default_sizeof`.
    durable:
        Whether the cache's entries are meaningful beyond this process
        (content-addressed keys, picklable values) and may therefore carry
        a disk tier.  Caches keyed on process-local tokens must stay
        ``False``.
    """

    def __init__(self, name: str, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None,
                 sizeof: Callable[[Any], int] = default_sizeof,
                 durable: bool = False):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None)")
        self._name = str(name)
        self._max_entries = max_entries if max_entries is None else int(max_entries)
        self._max_bytes = max_bytes if max_bytes is None else int(max_bytes)
        self._sizeof = sizeof
        self._durable = bool(durable)
        self._disk = None
        #: Reentrant so a sizeof callback or disk tier that re-enters the
        #: cache (promotion inside get()) cannot self-deadlock.
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._enabled = True

    # ------------------------------------------------------------------
    # Introspection / control
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Registry name of the cache."""
        return self._name

    @property
    def enabled(self) -> bool:
        """Whether lookups are currently served."""
        return self._enabled

    @property
    def hits(self) -> int:
        """Number of successful lookups so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed lookups so far."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries dropped to respect the capacity bounds."""
        return self._evictions

    @property
    def current_bytes(self) -> int:
        """Estimated bytes currently held."""
        return self._current_bytes

    @property
    def max_entries(self) -> Optional[int]:
        """Entry-count bound (``None`` = unbounded)."""
        return self._max_entries

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte bound (``None`` = unbounded)."""
        return self._max_bytes

    @property
    def durable(self) -> bool:
        """Whether this cache may carry a disk tier."""
        return self._durable

    @property
    def disk_store(self):
        """The attached :class:`~repro.runtime.persist.DiskStore` (or ``None``)."""
        return self._disk

    def attach_disk_store(self, store) -> None:
        """Attach a write-through disk tier (durable caches only)."""
        if not self._durable:
            raise ValueError(
                f"cache {self._name!r} is not durable; its keys or values "
                f"are process-local and must not be persisted")
        with self._lock:
            self._disk = store

    def detach_disk_store(self) -> None:
        """Drop the disk tier (entries on disk are kept, just not consulted)."""
        with self._lock:
            self._disk = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        """Whether :meth:`get` would serve ``key`` from memory.

        A peek: it counts neither a hit nor a miss and leaves recency
        alone.  False while the cache is disabled, where ``get`` misses
        too.  The disk tier is not consulted.
        """
        with self._lock:
            return self._enabled and key in self._entries

    def enable(self) -> None:
        """Serve lookups again after :meth:`disable`."""
        self._enabled = True

    def disable(self) -> None:
        """Make every lookup miss (stored entries are kept)."""
        self._enabled = False

    def clear(self) -> None:
        """Drop all in-memory entries and reset the in-memory statistics.

        The disk tier is deliberately untouched: clearing memory caches is
        how tests and benchmarks force a *cold process*, and the durable
        tier's entire purpose is to survive exactly that.  Use
        ``cache.disk_store.clear()`` to scrub the disk too.
        """
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        """Current counters and occupancy as a :class:`CacheStats`."""
        with self._lock:
            disk = self._disk.stats() if self._disk is not None else None
            return CacheStats(
                name=self._name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_entries=self._max_entries,
                max_bytes=self._max_bytes,
                durable=self._durable,
                disk_attached=disk is not None,
                disk_hits=disk.hits if disk else 0,
                disk_misses=disk.misses if disk else 0,
                disk_writes=disk.writes if disk else 0,
                disk_entries=disk.entries if disk else 0,
                disk_bytes=disk.current_bytes if disk else 0,
                disk_quarantined=disk.quarantined if disk else 0,
            )

    def set_bounds(self, max_entries: Optional[int] = _MISSING,
                   max_bytes: Optional[int] = _MISSING) -> None:
        """Re-bound the cache; excess entries are evicted immediately.

        Arguments left at their default keep the current bound; pass ``None``
        explicitly to unbound an axis.
        """
        if max_entries is not _MISSING and max_entries is not None \
                and max_entries < 1:
            raise ValueError("max_entries must be at least 1 (or None)")
        if max_bytes is not _MISSING and max_bytes is not None \
                and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1 (or None)")
        with self._lock:
            if max_entries is not _MISSING:
                self._max_entries = (max_entries if max_entries is None
                                     else int(max_entries))
            if max_bytes is not _MISSING:
                self._max_bytes = (max_bytes if max_bytes is None
                                   else int(max_bytes))
            self._evict()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Return the cached value for ``key`` (marking it most recent).

        Returns ``default`` when absent -- counting a miss -- or when
        disabled, which counts nothing.  A memory miss with a disk tier
        attached falls back to the store; a disk hit is promoted into
        memory and returned (the memory miss stays counted -- memory and
        disk counters are independent tiers).
        """
        with self._lock:
            if not self._enabled:
                return default
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                if self._disk is not None:
                    payload = self._disk.get(key, _MISSING)
                    if payload is not _MISSING:
                        self._store(key, payload, int(self._sizeof(payload)))
                        return payload
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value[0]

    def put(self, key: Any, value: Any, nbytes: Optional[int] = None) -> None:
        """Store ``value`` under ``key`` (no-op while disabled).

        ``nbytes`` overrides the size estimator for this entry.  With a
        disk tier attached the value is also written through to the store
        (even when it is too large for the memory bound -- the disk budget
        is independent).
        """
        with self._lock:
            if not self._enabled:
                return
            size = int(self._sizeof(value)) if nbytes is None else int(nbytes)
            self._store(key, value, size)
            if self._disk is not None:
                self._disk.put(key, value)

    def _store(self, key: Any, value: Any, size: int) -> None:
        """Insert into the memory tier only (shared by put and promotion)."""
        if self._max_bytes is not None and size > self._max_bytes:
            # Storing would immediately flush the rest of the cache for one
            # oversized entry; refuse and record the rejection.
            self._evictions += 1
            self.discard(key)
            return
        old = self._entries.get(key)
        if old is not None:
            self._current_bytes -= old[1]
        self._entries[key] = (value, size)
        self._current_bytes += size
        self._entries.move_to_end(key)
        self._evict()

    def discard(self, key: Any) -> None:
        """Remove one entry if present (not counted as an eviction)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._current_bytes -= entry[1]

    def _evict(self) -> None:
        while ((self._max_entries is not None
                and len(self._entries) > self._max_entries)
               or (self._max_bytes is not None
                   and self._current_bytes > self._max_bytes
                   and self._entries)):
            _, (_, size) = self._entries.popitem(last=False)
            self._current_bytes -= size
            self._evictions += 1


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, LruCache] = {}
_REGISTRY_LOCK = threading.Lock()


def register_cache(cache: LruCache) -> LruCache:
    """Register a cache under its name (replacing any previous holder).

    Returns the cache for chaining, so module-level globals can read
    ``CACHE = register_cache(LruCache("name", ...))``.
    """
    with _REGISTRY_LOCK:
        _REGISTRY[cache.name] = cache
    return cache


def get_registered_cache(name: str) -> Optional[LruCache]:
    """Look up a registered cache by name (``None`` when absent)."""
    with _REGISTRY_LOCK:
        return _REGISTRY.get(name)


def registered_caches() -> Dict[str, LruCache]:
    """A snapshot of the registry (name to cache)."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


def cache_stats() -> Dict[str, CacheStats]:
    """Statistics of every registered cache, keyed by cache name."""
    return {name: cache.stats()
            for name, cache in sorted(registered_caches().items())}


def clear_all_caches() -> None:
    """Clear every registered cache (entries and statistics)."""
    for cache in registered_caches().values():
        cache.clear()
