"""Thread-safe LRU result cache for repeated twin queries.

Production query traffic repeats itself (the same pattern is checked
against the same archive by many callers); an LRU over
``(query digest, epsilon, options)`` turns those repeats into O(1)
lookups. Keys hash the query's *bytes*, so two float-identical queries
hit the same entry regardless of the objects holding them; hits return
the cached result object itself (results are treated as immutable —
:class:`~repro.core.stats.SearchResult` arrays are never mutated by the
library).

The cache is safe for concurrent callers: a single lock guards the
underlying ordered dict, and hit/miss/eviction counters are maintained
under the same lock so :meth:`QueryCache.stats` is always consistent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from .._util import FLOAT_DTYPE, check_positive_int

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISS = object()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        """Plain-dict form (with derived rates) for report tables."""
        row = dataclasses.asdict(self)
        row["hit_rate"] = round(self.hit_rate, 4)
        return row


def query_key(query: Any, epsilon: float, **options: Any) -> tuple:
    """The canonical cache key for a twin query.

    The query is digested from its float64 byte representation
    (BLAKE2b), so equality is exact value equality; ``epsilon`` is keyed
    by its float repr and ``options`` (verification mode, index name,
    ...) as a sorted tuple of pairs.
    """
    array = np.ascontiguousarray(query, dtype=FLOAT_DTYPE)
    digest = hashlib.blake2b(array.tobytes(), digest_size=16)
    digest.update(str(array.shape).encode())
    return (
        digest.hexdigest(),
        repr(float(epsilon)),
        tuple(sorted((str(k), str(v)) for k, v in options.items())),
    )


class QueryCache:
    """A bounded, thread-safe LRU mapping query keys to results.

    Examples
    --------
    >>> cache = QueryCache(capacity=2)
    >>> key = query_key([1.0, 2.0], 0.5)
    >>> cache.get(key) is None
    True
    >>> cache.put(key, "result")
    >>> cache.get(key)
    'result'
    >>> cache.stats().hits, cache.stats().misses
    (1, 1)
    """

    def __init__(self, capacity: int = 256):
        self._capacity = check_positive_int(capacity, name="capacity")
        self._entries: OrderedDict[tuple, object] = OrderedDict()  # lint: guarded-by(_lock)
        self._lock = threading.Lock()
        self._hits = 0  # lint: guarded-by(_lock)
        self._misses = 0  # lint: guarded-by(_lock)
        self._evictions = 0  # lint: guarded-by(_lock)

    @property
    def capacity(self) -> int:
        """Maximum number of cached results."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Any, default: Any = None) -> Any:
        """The cached value for ``key`` (marking it most recent), or
        ``default``. Counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert (or refresh) ``key``; evicts the least recently used
        entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = value

    def get_or_compute(self, key: Any, compute: Any) -> Any:
        """The cached value for ``key``, computing and caching on miss.

        ``compute`` runs *outside* the lock (twin searches are slow), so
        two concurrent misses on the same key may both compute; the last
        writer wins, which is harmless because results for equal keys
        are equal.
        """
        value = self.get(key, _MISS)
        if value is not _MISS:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"QueryCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )
