"""The query-serving front door: named planes + cache + execution.

:class:`QueryEngine` is what a server embeds. It owns

* the built query planes, by name: ``build`` / ``add`` / ``load``
  register one (refusing to replace a name unless ``overwrite=True``),
  ``get`` / ``names`` read the map, ``evict`` drops one and ``save``
  persists one through :mod:`repro.persistence`. Builds run outside the
  engine lock, so builds for different names proceed at once. Any
  :class:`~repro.indices.base.SubsequenceIndex` registers — the default
  ``build`` makes a :class:`~repro.engine.sharding.ShardedTSIndex`, and
  every registered plane name (``method="sweepline"``, ``"kvindex"``,
  ``"isax"``, ``"tsindex"``, ``"frozen"``, ``"live"``) builds through
  the same factory;
* one :class:`~repro.engine.cache.QueryCache` turning repeated queries
  into O(1) hits, and
* one thread per call: a query visits its shards (or live segments)
  and a batch its queries in the calling thread, because per-shard
  work is a chain of small NumPy calls that each drop and retake the
  GIL — two threads do not overlap on it, they hand the lock back and
  forth (measured on 2 cores: 25 ms serial against 67 ms pooled per
  k-NN, 38 573 voluntary context switches per 20 calls). The engine's
  :class:`~concurrent.futures.ThreadPoolExecutor` serves the one thing
  a loop cannot — a per-part deadline (``timeout=``) — and with
  ``executor="process"`` shard work goes to a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers open
  each plane's raw (mmap) archive by path, sidestepping the GIL with
  byte-identical results.

Every call is safe from many threads at once and takes one path:
``query`` / ``knn`` / ``exists`` / ``count`` and each ``batch`` member
build a :class:`~repro.query.QuerySpec`, and one serving function
resolves the plane and its generation, plans the spec against the
plane's capabilities (:mod:`repro.query`), executes it on the plane's
native kernels or the planner's synthesized fallbacks, and records the
counters. Every registered plane — the paper's sweepline / KV-Index /
iSAX baselines included — is therefore fully servable, with results
byte-identical to the plane's direct call. Per-query structural
counters stay exact and deterministic; the engine aggregates them
across calls into :class:`EngineStats`.

Growing series serve through the same front door: register a
:class:`~repro.live.LiveTwinIndex` with :meth:`QueryEngine.add` and
feed it with :meth:`QueryEngine.append`. A plane's cache generation
counts its registrations *and*, for a live plane, its mutations, so an
append invalidates exactly the entries it outdates; live planes appear
in :class:`EngineStats` ``indexes`` rows with ``kind: "live"``.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Iterator

from .._util import available_cpu_count
from ..core.batch import BatchResult
from ..core.normalization import Normalization
from ..core.stats import QueryStats, SearchResult
from ..core.tsindex import TSIndexParams
from ..exceptions import IndexNotBuiltError, InvalidParameterError
from ..indices.base import SubsequenceIndex, create_method
from ..obs.logsetup import get_logger
from ..obs.metrics import resolve_registry
from ..obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    NULL_TRACE,
    Tracer,
    activate_trace,
    deactivate_trace,
)
from ..query import QueryPlan, QuerySpec, batch_result, plan
from ..query.capabilities import capabilities_of
from ..query.spec import MODES
from .cache import CacheStats, QueryCache, query_key
from .sharding import ShardedTSIndex

_log = get_logger("repro.engine")

#: Fan-out executor kinds ``QueryEngine(executor=...)`` accepts.
EXECUTORS = ("thread", "process")


@dataclasses.dataclass
class EngineStats:
    """A snapshot of one engine's serving counters."""

    #: queries answered (cache hits included).
    queries: int
    #: structural counters aggregated over every *executed* query
    #: (cache hits execute nothing and add nothing here).
    query_stats: QueryStats
    #: cache counters at snapshot time.
    cache: CacheStats
    #: per-index structural stats rows (``kind`` distinguishes
    #: ``"sharded"`` engines from ``"live"`` ingestion planes).
    indexes: list[dict]
    #: queries answered broken down by mode (``search`` / ``knn`` /
    #: ``exists`` / ``count``; batch members count as ``search``).
    queries_by_mode: dict = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict form for report tables and the CLI."""
        return {
            "queries": self.queries,
            "queries_by_mode": dict(self.queries_by_mode),
            "query_stats": self.query_stats.as_dict(),
            "cache": self.cache.as_dict(),
            "indexes": self.indexes,
        }


class QueryEngine:
    """Concurrent, cached twin-query serving over named query planes.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.engine import QueryEngine
    >>> series = np.cumsum(np.random.default_rng(1).normal(size=3000))
    >>> with QueryEngine(cache_capacity=32) as engine:
    ...     plane = engine.build("demo", series, length=50,
    ...                          shards=2, normalization="none")
    ...     first = engine.query("demo", series[100:150], epsilon=0.25)
    ...     again = engine.query("demo", series[100:150], epsilon=0.25)
    ...     names = engine.names()
    >>> again is first  # served from the cache
    True
    >>> names, engine.get("demo") is plane
    (['demo'], True)
    """

    def __init__(
        self,
        *,
        cache_capacity: int = 256,
        max_workers: int | None = None,
        executor: str = "thread",
        metrics: Any = None,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        trace_sample: float = 1.0,
    ):
        if executor not in EXECUTORS:
            raise InvalidParameterError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self._lock = threading.Lock()
        # Query planes (sharded engines, live planes, ...), by name.
        self._planes: dict[str, SubsequenceIndex] = {}  # lint: guarded-by(_lock)
        self._built_at: dict[str, float] = {}  # lint: guarded-by(_lock)
        # Monotonic per-name registration counter; it survives evict().
        # Cache keys carry (name, generation), so a computation in
        # flight against a replaced plane lands under a key its
        # successor never reads.
        self._generations: dict[str, int] = {}  # lint: guarded-by(_lock)
        self._queries = 0  # lint: guarded-by(_lock)
        self._queries_by_mode = {mode: 0 for mode in MODES}  # lint: guarded-by(_lock)
        self._query_stats = QueryStats()  # lint: guarded-by(_lock)
        self._cache = QueryCache(cache_capacity)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-engine"
        )
        self._executor_kind = executor
        self._fanout_pool = None
        self._fanout_workers = 0
        # Planes built in memory have no archive for workers to open;
        # process mode spools them to raw (mmap) archives here, once
        # per plane, and removes the tree on close().
        self._spool: str | None = None  # lint: guarded-by(_spool_lock)
        self._spool_seq = 0  # lint: guarded-by(_spool_lock)
        self._spool_lock = threading.Lock()
        if executor == "process":
            self._fanout_workers = max_workers or available_cpu_count()
            self._fanout_pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._fanout_workers
            )
        # Monotonic origin for lifetime QPS: a wall-clock step (NTP)
        # must not inflate or zero the exported rate.
        self._started = time.perf_counter()
        # ``metrics``: None/True -> the process default registry, False
        # -> the shared no-op registry (instrumentation off), or an
        # explicit MetricsRegistry. Metric handles are resolved once
        # here so the hot path pays no registry lookups.
        self._metrics = resolve_registry(metrics)
        self._tracer = Tracer(capacity=trace_capacity, sample=trace_sample)
        self._instrument()

    def _instrument(self) -> None:
        registry = self._metrics
        queries = registry.counter(
            "repro_engine_queries_total",
            "Queries answered by the engine, cache hits included.",
            labels=("mode",),
        )
        latency = registry.histogram(
            "repro_engine_query_seconds",
            "End-to-end engine query latency in seconds.",
            labels=("mode",),
        )
        self._mode_queries = {mode: queries.labels(mode=mode) for mode in MODES}
        self._mode_latency = {mode: latency.labels(mode=mode) for mode in MODES}
        self._index_queries = registry.counter(
            "repro_engine_index_queries_total",
            "Queries answered per registered index.",
            labels=("index",),
        )
        registry.gauge(
            "repro_fanout_processes",
            "Worker processes serving shard/segment fan-out "
            "(0 under the thread executor).",
        ).set(self._fanout_workers)
        # Scrape-time gauges. NOTE: in a shared (default) registry the
        # callbacks bind to *this* engine — processes serving several
        # engines should give each its own MetricsRegistry.
        registry.gauge(
            "repro_engine_qps",
            "Mean queries per second since the engine started.",
        ).set_function(self._qps)
        for stat in ("hits", "misses", "evictions", "size"):
            registry.gauge(
                f"repro_engine_cache_{stat}",
                f"Result cache {stat} at scrape time.",
            ).set_function(
                lambda stat=stat: getattr(self._cache.stats(), stat)
            )
        registry.gauge(
            "repro_engine_cache_hit_rate",
            "Result cache hit rate at scrape time (hits / lookups).",
        ).set_function(lambda: self._cache.stats().hit_rate)

    def _qps(self) -> float:
        with self._lock:
            queries = self._queries
        return queries / max(1e-9, time.perf_counter() - self._started)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def cache(self) -> QueryCache:
        """The shared result cache."""
        return self._cache

    def close(self) -> None:
        """Shut the fan-out pools down and remove the process spool
        (idempotent); registered planes stay usable."""
        self._pool.shutdown(wait=True)
        if self._fanout_pool is not None:
            self._fanout_pool.shutdown(wait=True)
        with self._spool_lock:
            spool, self._spool = self._spool, None
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Planes
    # ------------------------------------------------------------------
    def build(
        self,
        name: str,
        series: Any,
        length: int,
        *,
        method: str = "sharded",
        normalization: Any = Normalization.GLOBAL,
        shards: int | None = None,
        params: TSIndexParams | None = None,
        overwrite: bool = False,
        **method_options: Any,
    ) -> SubsequenceIndex:
        """Build a query plane and register it under ``name``.

        The default ``method="sharded"`` builds a fan-out
        :class:`ShardedTSIndex` (shards bulk-loaded into flat
        read-optimized arrays); any other registered plane name — paper
        method or extended plane — builds through
        :func:`~repro.indices.base.create_method` with
        ``method_options`` forwarded. The sharded-only ``shards`` is
        rejected for other methods rather than silently ignored.
        Refuses to replace an existing name unless ``overwrite=True``
        (rebuilding a served index should be a deliberate act); see
        :meth:`add` for what a replacement does to the cache.
        """
        name = _check_name(name)
        if not overwrite and name in self.names():
            raise InvalidParameterError(
                f"index {name!r} already exists; pass overwrite=True to rebuild"
            )
        if method == "sharded":
            index: SubsequenceIndex = ShardedTSIndex.build(
                series,
                length,
                normalization=normalization,
                shards=shards,
                params=params,
                **method_options,
            )
        else:
            if shards is not None:
                raise InvalidParameterError(
                    f"shards only applies to method='sharded', "
                    f"not method={method!r}"
                )
            if params is not None:
                method_options["params"] = params
            index = create_method(
                method,
                series,
                length,
                normalization=normalization,
                **method_options,
            )
        return self.add(name, index, overwrite=overwrite)

    def add(
        self, name: str, index: Any, *, overwrite: bool = False
    ) -> SubsequenceIndex:
        """Register a plane built elsewhere and return it.

        Any :class:`~repro.indices.base.SubsequenceIndex` registers —
        sharded engines, live planes, frozen snapshots or the paper
        methods. Each registration moves the name's generation, so a
        replaced plane's cached results become unreachable; with
        ``overwrite=True`` the cache is also cleared, which just
        releases their memory early.
        """
        name = _check_name(name)
        if not isinstance(index, SubsequenceIndex):
            raise InvalidParameterError(
                "engine planes must implement the SubsequenceIndex "
                f"query surface, got {type(index).__name__}"
            )
        with self._lock:
            if not overwrite and name in self._planes:
                raise InvalidParameterError(
                    f"index {name!r} already exists; pass overwrite=True"
                )
            self._planes[name] = index
            self._built_at[name] = time.time()  # lint: disable=wall-clock epoch timestamp, not a duration
            self._generations[name] = self._generations.get(name, 0) + 1
        if overwrite:
            self._clear_cache(f"re-registration of {name!r}")
        return index

    def get(self, name: str) -> SubsequenceIndex:
        """The plane registered under ``name``."""
        return self._resolve(name)[0]

    def names(self) -> list[str]:
        """Registered names, sorted."""
        with self._lock:
            return sorted(self._planes)

    def evict(self, name: str) -> SubsequenceIndex:
        """Remove and return the plane under ``name``, dropping the
        cache (the name's generation survives, so a plane registered
        under it later never serves this one's results)."""
        with self._lock:
            try:
                index = self._planes.pop(name)
            except KeyError:
                raise IndexNotBuiltError(f"no index named {name!r}") from None
            self._built_at.pop(name, None)
        self._clear_cache(f"eviction of {name!r}")
        return index

    def save(self, name: str, path: Any) -> None:
        """Persist the plane under ``name`` as an archive directory of
        uncompressed per-array files that later loads open O(1) via
        ``mmap`` (see :func:`repro.persistence.save_index`)."""
        index = self.get(name)
        if getattr(index, "method_name", "") == "live":
            raise InvalidParameterError(
                f"index {name!r} is a live plane; it persists through its "
                "write-ahead-log directory (LiveTwinIndex.create/recover), "
                "not through snapshot archives"
            )
        from ..persistence import save_index  # lazy: avoids import cycle

        save_index(index, path)

    def load(self, name: str, path: Any, *, overwrite: bool = False) -> ShardedTSIndex:
        """Restore a sharded plane from ``path`` and register it as
        ``name`` (archives of other planes are refused)."""
        from ..persistence import load_index  # lazy: avoids import cycle

        index = load_index(path)
        if not isinstance(index, ShardedTSIndex):
            raise InvalidParameterError(
                f"archive {path!r} holds a {type(index).__name__}, "
                "not a sharded engine"
            )
        self.add(name, index, overwrite=overwrite)
        return index

    def append(self, name: str, readings: Any) -> int:
        """Append readings to the live plane registered under ``name``;
        returns the number of newly indexed windows.

        Invalidation is scoped to this plane's generation: the append
        bumps its mutation counter, so every subsequent query computes
        fresh results under a new cache key while other indexes' cached
        entries remain served.
        """
        append = getattr(self.get(name), "append", None)
        if append is None:
            raise InvalidParameterError(
                f"index {name!r} is not appendable; register a "
                "LiveTwinIndex with add() to serve a growing series"
            )
        return append(readings)

    def _resolve(self, name: str) -> tuple[SubsequenceIndex, object]:
        """The plane under ``name`` plus its cache generation, read
        atomically. A mutable plane (anything exposing a ``mutations``
        counter, i.e. :class:`~repro.live.LiveTwinIndex`) has the pair
        ``(registration, mutations)``: every accepted append moves it,
        so entries cached before the append become unreachable."""
        with self._lock:
            try:
                index = self._planes[name]
                generation = self._generations[name]
            except KeyError:
                known = ", ".join(sorted(self._planes)) or "<none>"
                raise IndexNotBuiltError(
                    f"no index named {name!r} (built: {known})"
                ) from None
        mutations = getattr(index, "mutations", None)
        if mutations is not None:
            return index, (generation, mutations)
        return index, generation

    def _clear_cache(self, reason: str) -> None:
        self._cache.clear()
        _log.debug("query cache invalidated: %s", reason)

    # ------------------------------------------------------------------
    # Fan-out executor
    # ------------------------------------------------------------------
    @property
    def executor_kind(self) -> str:
        """``"thread"`` or ``"process"`` — where shard/segment work
        goes when it leaves the calling thread: the thread pool (calls
        with a ``timeout=`` only) or the worker processes (every
        call)."""
        return self._executor_kind

    def _fanout(self, index: SubsequenceIndex, *, deadline: bool = False) -> object:
        """The executor a plan's fan-out runs on; ``None`` means the
        calling thread. The process pool when configured (spooling
        in-memory sharded planes to raw archives first, so workers can
        open them by path); otherwise the thread pool only for a call
        that carries a ``deadline`` — a loop cannot abandon a slow
        part, and that is all threads buy under the GIL."""
        if self._fanout_pool is not None:
            self._ensure_process_servable(index)
            return self._fanout_pool
        return self._pool if deadline else None

    def _ensure_process_servable(self, index: SubsequenceIndex) -> None:
        """Give an unarchived sharded plane an on-disk identity for
        process workers: save it once as a raw (mmap) archive in the
        engine spool and attach the path. Planes loaded from disk or
        saved explicitly already carry one; other plane kinds serve
        through their own archives (live) or fall back to the serial
        path inside :func:`~repro._util.fan_out` — byte-identical
        either way."""
        if (
            not isinstance(index, ShardedTSIndex)
            or index.archive_path is not None
        ):
            return
        with self._spool_lock:
            if index.archive_path is not None:
                return
            if self._spool is None:
                self._spool = tempfile.mkdtemp(prefix="repro-spool-")
            from ..persistence import save_index  # lazy: avoids cycle

            self._spool_seq += 1
            path = os.path.join(self._spool, f"plane-{self._spool_seq}")
            save_index(index, path)
            index.attach_archive(path)
            _log.debug("spooled %r for process fan-out", path)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def query(
        self,
        name: str,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        domain: str = "index",
        use_cache: bool = True,
        timeout: float | None = None,
        degraded: bool = False,
    ) -> SearchResult:
        """One twin query against the named plane.

        ``timeout`` bounds each fan-out part (shard/segment) on the
        planes served as parts — sharded and live (the planner drops it
        elsewhere); parts missing the deadline
        fail fast with :class:`~repro.exceptions.ShardTimeoutError`
        unless ``degraded=True``, which instead serves the parts that
        answered and marks the result's ``degraded`` record. Degraded
        results are never cached — a later complete answer must not be
        shadowed by a partial one.

        Options the plane does not understand are dropped by the
        planner, so the same call serves a sweepline and a sharded
        engine alike. Queries of any length ``m <= l`` are served —
        shorter ones run on the plane's variable-length prefix kernels
        (or the planner's prefix scan), and the cache key's query
        digest covers the value bytes *and shape*, so results for one
        length are never served to another. Cache hits return the
        previously computed
        :class:`~repro.core.stats.SearchResult` object itself; misses
        visit the shards one after another in the calling thread (on
        the engine pool only with ``timeout=``, on the worker
        processes under ``executor="process"``) and populate the
        cache. Treat results as immutable (the library never mutates
        them). Keys derive from the spec's *effective* parameters plus
        the plane's registration/mutation *generation*, so a miss
        computed against an index that is rebuilt mid-flight lands
        under a key the rebuilt index never reads — the new index can
        never serve the old one's results.
        """
        options: dict[str, Any] = {"verification": verification}
        if timeout is not None:
            options["timeout"] = timeout
        if degraded:
            options["degraded"] = True
            # A degraded answer is partial by design; caching it
            # would serve the hole to later complete-answer calls.
            use_cache = False
        spec = QuerySpec(
            query=query,
            mode="search",
            epsilon=epsilon,
            domain=domain,
            options=options,
        )
        return self._call(
            name, spec, use_cache=use_cache, deadline=timeout is not None
        )

    def knn(self, name: str, query: Any, k: int, *, exclude: Any = None) -> SearchResult:
        """k-NN twin query against the named plane (never cached: the
        result depends on ``k`` and ``exclude``, and k-NN traffic rarely
        repeats exactly). Planes without a native k-NN kernel are
        served by the planner's exact scan."""
        return self._call(
            name, QuerySpec(query=query, mode="knn", k=k, exclude=exclude)
        )

    def exists(self, name: str, query: Any, epsilon: float) -> bool:
        """Whether the named plane holds any twin of ``query`` within
        ``epsilon`` (the plane's native ``exists`` where it has one, a
        search otherwise; partitioned planes stop at the first part
        with a twin)."""
        return self._call(
            name, QuerySpec(query=query, mode="exists", epsilon=epsilon)
        )

    def count(self, name: str, query: Any, epsilon: float) -> int:
        """Number of twins in the named plane (non-materializing where
        the plane or the planner supports it)."""
        return self._call(
            name, QuerySpec(query=query, mode="count", epsilon=epsilon)
        )

    def batch(
        self,
        name: str,
        queries: Any,
        epsilon: float,
        *,
        use_cache: bool = True,
        **search_options: Any,
    ) -> BatchResult:
        """A whole workload against the named plane.

        A plain loop over the queries in the calling thread, each
        walking its shards in turn (pool threads sharing the GIL made
        a batch of 8 slower, 17.7 against 14.6 ms); each member is a
        ``search`` — it consults the shared cache, so repeated
        workloads are mostly hits, and it counts as one. Under the
        process executor each query fans its *shards* across the
        worker processes — identical results either way.
        """
        queries = list(queries)
        # Key on the *effective* verification mode so batch() and
        # query() share cache entries for the same logical query.
        search_options.setdefault("verification", "bulk")
        # One envelope trace; member queries run in this thread, so
        # their per-shard spans land in it.
        with self._instrumented("batch", name, queries=len(queries)) as (entry, trace):
            specs = (
                QuerySpec(query=query, mode="search", epsilon=epsilon,
                          options=dict(search_options))
                for query in queries
            )
            with trace.span("execute"):
                results = [
                    self._serve(name, entry, spec, use_cache=use_cache)
                    for spec in specs
                ]
            with trace.span("merge"):
                return batch_result(results, epsilon)

    def _call(
        self, name: str, spec: QuerySpec, *, use_cache: bool = False,
        deadline: bool = False,
    ) -> Any:
        """One instrumented call serving one spec."""
        with self._instrumented(spec.mode, name) as (entry, trace):
            return self._serve(
                name, entry, spec, trace=trace, use_cache=use_cache,
                deadline=deadline,
            )

    @contextlib.contextmanager
    def _instrumented(
        self, mode: str, name: str, **meta: Any
    ) -> Iterator[tuple[tuple[SubsequenceIndex, object], Any]]:
        """Resolve ``name`` and wrap the call in its instrumentation: a
        (possibly sampled-out) trace, active for everything the call
        runs, and the per-mode latency histogram. Yields the resolved
        ``(plane, generation)`` and the trace. An unknown name raises
        :class:`~repro.exceptions.IndexNotBuiltError` before anything
        is traced, timed or counted."""
        entry = self._resolve(name)
        trace = self._tracer.start(mode, index=name, **meta)
        token = activate_trace(trace) if trace else None
        started = time.perf_counter()
        try:
            yield entry, trace
        finally:
            self._mode_latency[mode].observe(time.perf_counter() - started)
            if token is not None:
                deactivate_trace(token)
            self._tracer.finish(trace)

    def _serve(
        self,
        name: str,
        entry: tuple[SubsequenceIndex, object],
        spec: QuerySpec,
        *,
        trace: Any = NULL_TRACE,
        use_cache: bool = False,
        deadline: bool = False,
    ) -> Any:
        """The one serving path: count the query, plan ``spec`` against
        the resolved plane, execute it on :meth:`_fanout`, record its
        structural counters, and — with ``use_cache`` — go through the
        cache under the plane's generation. A query counts once, under
        its spec's mode, in :class:`EngineStats` and in the
        ``repro_engine_queries_total`` / ``_index_queries_total``
        metrics alike."""
        index, generation = entry
        with self._lock:
            self._queries += 1
            self._queries_by_mode[spec.mode] += 1
        self._mode_queries[spec.mode].inc()
        self._index_queries.labels(index=name).inc()
        with trace.span("plan"):
            executed = plan(index, spec)

        def execute() -> Any:
            with trace.span("execute"):
                result = executed.execute(
                    executor=self._fanout(index, deadline=deadline)
                )
            if isinstance(result, SearchResult):
                with self._lock:
                    self._query_stats = self._query_stats.merge(result.stats)
            return result

        if not use_cache:
            return execute()
        key = _spec_key(spec, executed, name, generation)
        return self._cache.get_or_compute(key, execute)

    # ------------------------------------------------------------------
    # Stats and observability
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """A consistent snapshot of serving, cache and index stats."""
        with self._lock:
            queries = self._queries
            queries_by_mode = dict(self._queries_by_mode)
            query_stats = dataclasses.replace(self._query_stats)
            planes = sorted(self._planes.items())
            built_at = dict(self._built_at)
        return EngineStats(
            queries=queries,
            query_stats=query_stats,
            cache=self._cache.stats(),
            indexes=[
                _index_row(name, index, built_at[name])
                for name, index in planes
            ],
            queries_by_mode=queries_by_mode,
        )

    def metrics(self) -> Any:
        """The :class:`~repro.obs.MetricsRegistry` this engine records
        into (export it with :func:`repro.obs.to_prometheus` or
        :func:`repro.obs.to_json`)."""
        return self._metrics

    @property
    def tracer(self) -> Any:
        """The engine's :class:`~repro.obs.Tracer` (sampling policy +
        ring buffer of recent traces)."""
        return self._tracer

    def traces(self) -> list:
        """Recently completed :class:`~repro.obs.QueryTrace` objects,
        oldest first (bounded by the constructor's ``trace_capacity``)."""
        return self._tracer.traces()

    def __repr__(self) -> str:
        return f"QueryEngine(indexes={self.names()}, cache={self._cache!r})"


def _check_name(name: object) -> str:
    if not isinstance(name, str) or not name.strip():
        raise InvalidParameterError(
            f"index name must be a non-empty string, got {name!r}"
        )
    return name


def _spec_key(
    spec: QuerySpec, executed: QueryPlan, name: str, generation: object
) -> tuple:
    """The cache key for one planned spec: query digest + effective
    (capability-filtered) options + plane name and generation. The
    arrival domain is part of the key — the same raw values mean a
    different query after raw→index mapping."""
    return query_key(
        spec.query,
        spec.epsilon,
        index=name,
        generation=generation,
        mode=spec.mode,
        domain=spec.domain,
        **{str(k): v for k, v in executed.options.items()},
    )


def _index_row(name: str, index: SubsequenceIndex, built_at: float) -> dict:
    """One plane's structural stats row (shape, shards/segments, build
    cost). Live planes report their LSM shape (segments, delta, seals)
    instead of shard rows; other non-sharded planes report
    a generic row keyed by their plane kind. Every row carries the
    plane's declared ``capabilities`` (sorted), so operators can see at
    a glance which kernels — including variable-length ``search`` — a
    registered plane serves natively."""
    capabilities = sorted(capabilities_of(index))
    if getattr(index, "method_name", "") == "live":
        return {"name": name, "kind": "live", "built_at": built_at,
                "capabilities": capabilities, **index.stats()}
    build = index.build_stats
    if not isinstance(index, ShardedTSIndex):
        # A generic plane (paper method or frozen snapshot).
        return {
            "name": name,
            "kind": index.method_name or type(index).__name__,
            "windows": index.source.count,
            "length": index.source.length,
            "normalization": index.source.normalization.value,
            "nodes": build.nodes,
            "splits": build.splits,
            "build_seconds": round(build.seconds, 4),
            "built_at": built_at,
            "capabilities": capabilities,
        }
    return {
        "name": name,
        "kind": "sharded",
        "windows": index.size,
        "length": index.length,
        "normalization": index.source.normalization.value,
        "shards": index.shard_count,
        "nodes": build.nodes,
        "splits": build.splits,
        "build_seconds": round(build.seconds, 4),
        "built_at": built_at,
        "capabilities": capabilities,
        "shard_stats": index.shard_stats(),
    }
