"""The query-serving front door: registry + cache + concurrent execution.

:class:`QueryEngine` is what a server embeds. It composes

* an :class:`~repro.engine.registry.IndexRegistry` owning the built
  query planes,
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
  byte-identical results,

behind a small surface — ``build`` / ``query`` / ``knn`` / ``exists`` /
``count`` / ``batch`` / ``stats`` — that is safe to call from many
threads at once. Per-query structural counters stay exact and
deterministic; the engine aggregates them across calls into
:class:`EngineStats`.

Every call routes through the unified query pipeline
(:mod:`repro.query`): a :class:`~repro.query.QuerySpec` describes the
query, the planner negotiates the target plane's capabilities, and the
plane's native kernels (or centrally synthesized fallbacks) execute it.
That makes **every** registered plane — the paper's sweepline /
KV-Index / iSAX baselines included — fully servable, with results
byte-identical to the plane's direct call.

Growing series serve through the same front door: register a
:class:`~repro.live.LiveTwinIndex` with :meth:`QueryEngine.add_live`
and feed it with :meth:`QueryEngine.append`. Cached results are keyed
on the plane's mutation generation, so appends invalidate exactly the
entries they outdate; live planes appear in :class:`EngineStats`
``indexes`` rows with ``kind: "live"``.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import shutil
import tempfile
import threading
import time
from typing import Any, Callable

from .._util import available_cpu_count
from ..core.batch import BatchResult
from ..core.stats import QueryStats, SearchResult
from ..exceptions import InvalidParameterError
from ..indices.base import SubsequenceIndex
from ..obs.logsetup import get_logger
from ..obs.metrics import resolve_registry
from ..obs.trace import (
    DEFAULT_TRACE_CAPACITY,
    Tracer,
    activate_trace,
    deactivate_trace,
)
from ..query import QueryPlan, QuerySpec, batch_result, plan
from ..query.spec import MODES
from .cache import CacheStats, QueryCache, query_key
from .registry import IndexRegistry
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
    ...     _ = engine.build("demo", series, length=50,
    ...                      shards=2, normalization="none")
    ...     first = engine.query("demo", series[100:150], epsilon=0.25)
    ...     again = engine.query("demo", series[100:150], epsilon=0.25)
    >>> again is first  # served from the cache
    True
    """

    def __init__(
        self,
        registry: IndexRegistry | None = None,
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
        self._registry = registry if registry is not None else IndexRegistry()
        self._cache = QueryCache(cache_capacity)
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-engine"
        )
        self._executor_kind = executor
        self._fanout_pool = None
        self._fanout_workers = 0
        # Planes built in memory have no archive for workers to open;
        # process mode spools them to raw (mmap) archives here, once
        # per (name, generation), and removes the tree on close().
        self._spool: str | None = None  # lint: guarded-by(_spool_lock)
        self._spool_seq = 0  # lint: guarded-by(_spool_lock)
        self._spool_lock = threading.Lock()
        if executor == "process":
            self._fanout_workers = max_workers or available_cpu_count()
            self._fanout_pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._fanout_workers
            )
        self._lock = threading.Lock()
        self._queries = 0  # lint: guarded-by(_lock)
        self._queries_by_mode = {mode: 0 for mode in MODES}  # lint: guarded-by(_lock)
        self._query_stats = QueryStats()  # lint: guarded-by(_lock)
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
        self._mode_metrics = {
            mode: (queries.labels(mode=mode), latency.labels(mode=mode))
            for mode in MODES
        }
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
    def registry(self) -> IndexRegistry:
        """The registry owning this engine's indexes."""
        return self._registry

    @property
    def cache(self) -> QueryCache:
        """The shared result cache."""
        return self._cache

    def close(self) -> None:
        """Shut the fan-out pools down and remove the process spool
        (idempotent); indexes stay usable through the registry."""
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
    # Index management (delegates to the registry)
    # ------------------------------------------------------------------
    def build(self, name: str, series: Any, length: int, **build_options: Any) -> SubsequenceIndex:
        """Build and register a query plane (see
        :meth:`IndexRegistry.build`; the default ``method="sharded"``
        builds a fan-out sharded index with shards frozen into flat
        read-optimized arrays, and any registered plane name — ``"sweepline"``, ``"kvindex"``,
        ``"isax"``, ``"tsindex"``, ``"frozen"``, ``"live"`` — builds
        through the same factory).

        Rebuilding an existing name (``overwrite=True``) also drops the
        cache, so the new index can never serve the old one's results.
        Mutating :attr:`registry` directly bypasses this invalidation —
        route index changes through the engine.
        """
        index = self._registry.build(name, series, length, **build_options)
        if build_options.get("overwrite"):
            # Correctness comes from generation-stamped cache keys (a
            # replaced index's entries become unreachable); the clear
            # just releases their memory promptly.
            self._clear_cache(f"rebuild of {name!r}")
        return index

    def add(self, name: str, index: Any, *, overwrite: bool = False) -> Any:
        """Register a plane built elsewhere (any
        :class:`~repro.indices.base.SubsequenceIndex`), invalidating
        the cache when it may replace an existing name."""
        self._registry.add(name, index, overwrite=overwrite)
        if overwrite:
            self._clear_cache(f"re-registration of {name!r}")
        return index

    def add_live(self, name: str, index: Any, *, overwrite: bool = False) -> Any:
        """Register a :class:`~repro.live.LiveTwinIndex` ingestion plane
        for serving (see :meth:`IndexRegistry.add_live`).

        Cached results for live planes are keyed on the plane's
        *mutation generation*: every accepted append moves it, so a
        stale pre-append result can never be served afterwards — no
        blanket cache clear, entries for other indexes stay warm.
        """
        self._registry.add_live(name, index, overwrite=overwrite)
        if overwrite:
            # As in build(): correctness comes from generation-stamped
            # keys; the clear just releases unreachable entries early.
            self._clear_cache(f"live re-registration of {name!r}")
        return index

    def append(self, name: str, readings: Any) -> int:
        """Append readings to the live plane registered under ``name``;
        returns the number of newly indexed windows.

        Invalidation is scoped to this plane's generation: the append
        bumps its mutation counter, so every subsequent query computes
        fresh results under a new cache key while other indexes' cached
        entries remain served.
        """
        index = self._registry.get(name)
        append = getattr(index, "append", None)
        if append is None:
            raise InvalidParameterError(
                f"index {name!r} is not appendable; register a live "
                "plane with add_live() to serve a growing series"
            )
        return append(readings)

    def load(self, name: str, path: Any, *, overwrite: bool = False) -> ShardedTSIndex:
        """Restore an index from disk and register it (see
        :meth:`IndexRegistry.load`), invalidating the cache when it
        may replace an existing name."""
        index = self._registry.load(name, path, overwrite=overwrite)
        if overwrite:
            self._clear_cache(f"reload of {name!r}")
        return index

    def evict(self, name: str) -> SubsequenceIndex:
        """Evict the named index and drop its cached results."""
        engine = self._registry.evict(name)
        # Cached entries key on the index name; a blanket clear keeps
        # eviction O(1) and correctness obvious (a rebuilt index under
        # the same name must never serve the old index's results).
        self._clear_cache(f"eviction of {name!r}")
        return engine

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

        ``timeout`` bounds each fan-out part (shard/segment) on planes
        declaring :data:`~repro.query.capabilities.CAP_FANOUT_TIMEOUT`
        (the planner drops it elsewhere); parts missing the deadline
        fail fast with :class:`~repro.exceptions.ShardTimeoutError`
        unless ``degraded=True``, which instead serves the parts that
        answered and marks the result's ``degraded`` record. Degraded
        results are never cached — a later complete answer must not be
        shadowed by a partial one.

        The query routes through the unified pipeline: a
        :class:`~repro.query.QuerySpec` is planned against the plane's
        capabilities (options the plane does not understand are
        dropped, so the same call serves a sweepline and a sharded
        engine alike). Queries of any length ``m <= l`` are served —
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
        counter, latency = self._mode_metrics["search"]
        trace = self._tracer.start("search", index=name)
        token = activate_trace(trace) if trace else None
        started = time.perf_counter()
        try:
            index, generation = self._registry.get_with_generation(name)
            options = {"verification": verification}
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
            with trace.span("plan"):
                executed = plan(index, spec)

            def execute() -> SearchResult:
                with trace.span("execute"):
                    result = executed.execute(
                        executor=self._fanout(
                            index, deadline=timeout is not None
                        )
                    )
                self._record(result.stats)
                return result

            self._count_query("search")
            if not use_cache:
                return execute()
            key = self._spec_key(spec, executed, name, generation)
            return self._cache.get_or_compute(key, execute)
        finally:
            latency.observe(time.perf_counter() - started)
            counter.inc()
            self._index_queries.labels(index=name).inc()
            if token is not None:
                deactivate_trace(token)
            self._tracer.finish(trace)

    def knn(self, name: str, query: Any, k: int, *, exclude: Any = None) -> SearchResult:
        """k-NN twin query against the named plane (never cached: the
        result depends on ``k`` and ``exclude``, and k-NN traffic rarely
        repeats exactly). Planes without a native k-NN kernel are
        served by the planner's exact scan."""
        def run() -> SearchResult:
            index = self._registry.get(name)
            spec = QuerySpec(query=query, mode="knn", k=k, exclude=exclude)
            result = plan(index, spec).execute(executor=self._fanout(index))
            self._record(result.stats)
            return result

        return self._serve("knn", name, run)

    def exists(self, name: str, query: Any, epsilon: float) -> bool:
        """Whether the named plane holds any twin of ``query`` within
        ``epsilon`` (early-exit on planes with a native ``exists``)."""
        def run() -> bool:
            index = self._registry.get(name)
            spec = QuerySpec(query=query, mode="exists", epsilon=epsilon)
            return plan(index, spec).execute(executor=self._fanout(index))

        return self._serve("exists", name, run)

    def count(self, name: str, query: Any, epsilon: float) -> int:
        """Number of twins in the named plane (non-materializing where
        the plane or the planner supports it)."""
        def run() -> int:
            index = self._registry.get(name)
            spec = QuerySpec(query=query, mode="count", epsilon=epsilon)
            return plan(index, spec).execute(executor=self._fanout(index))

        return self._serve("count", name, run)

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
        a batch of 8 slower, 17.7 against 14.6 ms); each query still
        consults the shared cache, so repeated workloads are mostly
        hits. Under the process executor each query fans its *shards*
        across the worker processes — identical results either way.
        """
        index, generation = self._registry.get_with_generation(name)
        queries = list(queries)
        # Key on the *effective* verification mode so batch() and
        # query() share cache entries for the same logical query.
        search_options.setdefault("verification", "bulk")
        counter, latency = self._mode_metrics["batch"]
        # One envelope trace; member queries run in this thread, so
        # their per-shard spans land in it.
        trace = self._tracer.start("batch", index=name,
                                   queries=len(queries))
        token = activate_trace(trace) if trace else None
        started = time.perf_counter()
        fanout = self._fanout(index)

        def one(query: Any) -> SearchResult:
            self._count_query()
            spec = QuerySpec(
                query=query,
                mode="search",
                epsilon=epsilon,
                options=dict(search_options),
            )
            executed = plan(index, spec)

            def execute() -> SearchResult:
                result = executed.execute(executor=fanout)
                self._record(result.stats)
                return result

            if not use_cache:
                return execute()
            key = self._spec_key(spec, executed, name, generation)
            return self._cache.get_or_compute(key, execute)

        try:
            with trace.span("execute"):
                results = [one(query) for query in queries]
            with trace.span("merge"):
                return batch_result(results, epsilon)
        finally:
            latency.observe(time.perf_counter() - started)
            counter.inc()
            self._index_queries.labels(index=name).inc()
            if token is not None:
                deactivate_trace(token)
            self._tracer.finish(trace)

    @staticmethod
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

    def _serve(self, mode: str, name: str, run: Callable[[], Any]) -> Any:
        """Wrap one serving call in the per-mode instrumentation: a
        (possibly sampled-out) trace, the latency histogram, and the
        mode / index counters."""
        counter, latency = self._mode_metrics[mode]
        trace = self._tracer.start(mode, index=name)
        token = activate_trace(trace) if trace else None
        started = time.perf_counter()
        try:
            self._count_query(mode)
            return run()
        finally:
            latency.observe(time.perf_counter() - started)
            counter.inc()
            self._index_queries.labels(index=name).inc()
            if token is not None:
                deactivate_trace(token)
            self._tracer.finish(trace)

    # ------------------------------------------------------------------
    # Stats and observability
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        """A consistent snapshot of serving, cache and index stats."""
        with self._lock:
            queries = self._queries
            queries_by_mode = dict(self._queries_by_mode)
            query_stats = dataclasses.replace(self._query_stats)
        return EngineStats(
            queries=queries,
            query_stats=query_stats,
            cache=self._cache.stats(),
            indexes=self._registry.stats_all(),
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

    def _count_query(self, mode: str = "search") -> None:
        with self._lock:
            self._queries += 1
            self._queries_by_mode[mode] = (
                self._queries_by_mode.get(mode, 0) + 1
            )

    def _record(self, stats: QueryStats) -> None:
        with self._lock:
            self._query_stats = self._query_stats.merge(stats)

    def __repr__(self) -> str:
        return (
            f"QueryEngine(indexes={self._registry.names()}, "
            f"cache={self._cache!r})"
        )
