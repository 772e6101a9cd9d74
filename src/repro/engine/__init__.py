"""repro.engine — sharded, cached, concurrent twin-query serving.

The paper's library answers one query against one in-memory index; this
subsystem turns that into a query-serving engine:

* :class:`ShardedTSIndex` — partitions a series into overlapping chunks
  (overlap ``length - 1``, so no window is lost), builds one TS-Index
  per shard, one after another (frozen into flat
  :class:`~repro.core.frozen.FrozenTSIndex` arrays), and
  fans ``search`` / ``knn`` / ``search_batch`` out across the shards
  with exact result merging;
* :class:`QueryCache` — a thread-safe LRU over (query digest, ε,
  options) with hit/miss/eviction counters;
* :class:`QueryEngine` — the front door, safe for concurrent callers:
  it owns the named planes (build / add / evict / persist via
  :mod:`repro.persistence`, per-index stats) and serves every query
  mode through one path — plan, execute, cache, count; each call works
  in the calling thread (its thread pool serves ``timeout=``
  deadlines, ``executor="process"`` sends shard work to worker
  processes).

Sharded execution is *exactly* equivalent to a monolithic index — the
shard window sources are zero-copy views of the monolithic one (see
:meth:`repro.core.windows.WindowSource.shard`), enforced by the
equivalence property tests.
"""

from .cache import CacheStats, QueryCache, query_key
from .executor import EngineStats, QueryEngine
from .sharding import ShardedTSIndex, default_shard_count, shard_spans

__all__ = [
    "CacheStats",
    "EngineStats",
    "QueryCache",
    "QueryEngine",
    "ShardedTSIndex",
    "default_shard_count",
    "query_key",
    "shard_spans",
]
