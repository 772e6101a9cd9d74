"""repro — Twin Subsequence Search in Time Series (EDBT 2021 reproduction).

Given a time series ``T``, a query sequence ``Q`` of length ``l`` and a
threshold ``ε``, *twin subsequence search* returns every subsequence of
``T`` whose **Chebyshev (L∞) distance** to ``Q`` is at most ``ε``. This
package reproduces the paper's four search methods —

* :class:`~repro.core.tsindex.TSIndex` (the paper's contribution: an
  MBTS tree, Section 5),
* :class:`~repro.indices.kvindex.KVIndex` (mean-value inverted index,
  Section 4.1),
* :class:`~repro.indices.isax.ISAXIndex` (SAX-word tree, Section 4.2),
* :class:`~repro.indices.sweepline.SweeplineSearch` (exhaustive scan,
  Section 3.2),

— plus the datasets, workloads and harness needed to regenerate every
table and figure of the evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import TSIndex, twin_search
>>> series = np.cumsum(np.random.default_rng(0).normal(size=5000))
>>> index = TSIndex.build(series, length=100, normalization="none")
>>> result = index.search(series[250:350], epsilon=0.4)
>>> 250 in result.positions
True

``twin_search`` is a one-call convenience that picks TS-Index for you:

>>> result = twin_search(series, series[250:350], epsilon=0.4)
>>> 250 in result.positions
True

Beyond the paper, a built TS-Index can be frozen into a read-optimized
flat form (:class:`~repro.core.frozen.FrozenTSIndex`, via
:meth:`TSIndex.freeze <repro.core.tsindex.TSIndex.freeze>`): identical
answers from structure-of-arrays storage with vectorized frontier
traversal and a batched ``search_batch``. :mod:`repro.engine` turns the
library into a query-serving engine: :class:`~repro.engine.ShardedTSIndex`
partitions a series into per-shard TS-Indexes (frozen shards, fan-out
queries, results exactly equal to a monolithic index),
:class:`~repro.engine.QueryCache` memoizes repeated queries, and
:class:`~repro.engine.QueryEngine` owns named planes and serves them,
through the cache, to concurrent callers:

>>> from repro import QueryEngine
>>> with QueryEngine() as serving:
...     _ = serving.build("demo", series, length=100, shards=2,
...                       normalization="none")
...     result = serving.query("demo", series[250:350], epsilon=0.4)
>>> 250 in result.positions
True

Growing series are first-class too: :mod:`repro.live` is an LSM-style
ingestion plane — :class:`~repro.live.LiveTwinIndex` appends readings
(durably, through a write-ahead log when created with
:meth:`~repro.live.LiveTwinIndex.create`), seals the mutable delta into
frozen segments, compacts them in the background, and answers
``search`` / ``knn`` / ``exists`` byte-identically to a from-scratch
index over the full series. Serve one through the engine with
:meth:`QueryEngine.add <repro.engine.QueryEngine.add>` /
:meth:`QueryEngine.append <repro.engine.QueryEngine.append>`.
"""

from __future__ import annotations

from .core import (
    MBTS,
    BatchResult,
    BuildStats,
    CollectionIndex,
    CollectionMatch,
    FrozenTSIndex,
    Normalization,
    QueryStats,
    SearchResult,
    TimeSeries,
    TSIndex,
    TSIndexParams,
    WindowSource,
    chebyshev_distance,
    euclidean_distance,
    search_batch,
)
from .core.bulkload import bulk_load, bulk_load_source
from .data import load_dataset, load_series
from .engine import (
    CacheStats,
    EngineStats,
    QueryCache,
    QueryEngine,
    ShardedTSIndex,
)
from .exceptions import (
    IncompatibleQueryError,
    IndexNotBuiltError,
    InvalidParameterError,
    ReproError,
    SerializationError,
    ShardTimeoutError,
    SimulatedCrashError,
    StorageError,
    UnsupportedNormalizationError,
)
from .indices import (
    ISAXIndex,
    ISAXParams,
    KVIndex,
    KVIndexParams,
    SubsequenceIndex,
    SweeplineSearch,
    available_methods,
    create_method,
    extended_methods,
)
from .live import LiveTwinIndex, WriteAheadLog
from .obs import (
    MetricsRegistry,
    QueryTrace,
    Tracer,
    configure_logging,
    install_null_handler,
    json_snapshot,
    to_json,
    to_prometheus,
)
from .query import QuerySpec

# Library logging convention: silent unless the application configures
# handlers (repro.obs.configure_logging is the documented shortcut).
install_null_handler()

__version__ = "1.0.0"

__all__ = [
    "MBTS",
    "BatchResult",
    "BuildStats",
    "CacheStats",
    "CollectionIndex",
    "CollectionMatch",
    "EngineStats",
    "FrozenTSIndex",
    "ISAXIndex",
    "ISAXParams",
    "IncompatibleQueryError",
    "IndexNotBuiltError",
    "InvalidParameterError",
    "KVIndex",
    "KVIndexParams",
    "LiveTwinIndex",
    "MetricsRegistry",
    "Normalization",
    "QueryCache",
    "QueryEngine",
    "QuerySpec",
    "QueryStats",
    "QueryTrace",
    "ReproError",
    "SearchResult",
    "SerializationError",
    "ShardTimeoutError",
    "ShardedTSIndex",
    "SimulatedCrashError",
    "StorageError",
    "SubsequenceIndex",
    "SweeplineSearch",
    "TSIndex",
    "TSIndexParams",
    "TimeSeries",
    "Tracer",
    "UnsupportedNormalizationError",
    "WindowSource",
    "WriteAheadLog",
    "available_methods",
    "bulk_load",
    "bulk_load_source",
    "chebyshev_distance",
    "configure_logging",
    "create_method",
    "euclidean_distance",
    "extended_methods",
    "install_null_handler",
    "json_snapshot",
    "load_dataset",
    "load_series",
    "search_batch",
    "to_json",
    "to_prometheus",
    "twin_search",
    "__version__",
]


def twin_search(
    series,
    query,
    epsilon: float,
    *,
    normalization=Normalization.NONE,
    method: str = "tsindex",
) -> SearchResult:
    """One-call twin subsequence search.

    Builds the requested method (default: TS-Index) over all windows of
    ``series`` with the query's length and returns every twin of
    ``query`` within Chebyshev ``epsilon``. For repeated queries against
    the same series, build the index once instead.
    """
    import numpy as np

    query = np.asarray(query, dtype=float)
    engine = create_method(
        method, series, query.size, normalization=normalization
    )
    return engine.search(query, epsilon)
