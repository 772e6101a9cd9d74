"""Query planner: QuerySpec → plan → execute.

One pipeline answers every query mode on every plane:

1. a :class:`~repro.query.spec.QuerySpec` describes the query;
2. :func:`plan` dispatches on what it can observe of the target plane.
   A plane served as parts (the sharded and live planes,
   :class:`~repro.query.parts.PartitionedPlane`) hands the planner its
   parts through its one ``_take`` method, and the planner answers
   every mode on that :class:`~repro.query.parts.PartSet` — it never
   calls such a plane's public query methods, which are themselves
   planned calls. Any other plane answers through its own methods: a
   full-length ``search`` / ``knn`` / ``batch`` is its ``search`` /
   ``knn`` / ``search_batch``, a query shorter than the window length
   its ``search_varlength`` (a prefix k-NN is the exact prefix scan,
   :func:`~repro.query.varlength.scan_prefix_knn`), and ``exists`` /
   ``count`` are the length of that search. Per-call options a mode
   does not take are dropped;
3. :meth:`QueryPlan.execute` runs it. Only a partitioned plane's work
   fans out on an executor: its parts, or the queries of its batch.

:func:`scan_knn` is the exact k-NN any plane without a tree of its own
serves (the :class:`~repro.indices.base.SubsequenceIndex` default), so
its results agree exactly (positions, distances, ``(distance,
position)`` tie-breaks) with a tree k-NN over the same windows.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    is_process_executor,
    fan_out,
    iter_chunks,
)
from ..core.normalization import Normalization
from ..core.stats import QueryStats, SearchResult
from ..core.windows import assemble_source
from ..exceptions import IndexNotBuiltError, UnsupportedCapabilityError
from ..obs.metrics import HandleCache
from ..obs.trace import current_trace
from .merge import batch_result
from .spec import QuerySpec, prepare_values
from .varlength import is_prefix_query, scan_prefix_knn

#: Windows per block in the scan kernels (bounds the temporary
#: ``(block, l)`` matrix regardless of index size).
SCAN_BLOCK = 4096

#: Planner counters (recorded into the process default registry): how
#: many plans ran, by mode, and how many dispatched to the
#: variable-length prefix path.
_metrics = HandleCache(
    lambda registry: (
        registry.counter(
            "repro_planner_plans_total",
            "Query plans produced, by mode.",
            labels=("mode",),
        ),
        registry.counter(
            "repro_planner_varlength_plans_total",
            "Query plans dispatched to the variable-length prefix "
            "kernels (query length m < indexed window length l).",
        ),
    )
)


# ----------------------------------------------------------------------
# Scan kernels
# ----------------------------------------------------------------------
def scan_distances(source: Any, query: np.ndarray) -> np.ndarray:
    """Exact Chebyshev distance from ``query`` to every window,
    computed blockwise so memory stays bounded."""
    distances = np.empty(source.count, dtype=FLOAT_DTYPE)
    for start, stop in iter_chunks(source.count, SCAN_BLOCK):
        block = source.window_block(start, stop)
        distances[start:stop] = np.max(np.abs(block - query), axis=1)
    return distances


def scan_knn(source: Any, query: Any, k: int, exclude: Any = None) -> SearchResult:
    """Exact k-NN over every window of ``source`` — the k-NN of any
    plane without a tree of its own.

    Ranks by the library-wide ``(distance, position)`` tie-break, so
    the answer equals what a tree k-NN over the same windows returns.
    """
    query = prepare_values(source, query)
    count = source.count
    stats = QueryStats()
    distances = scan_distances(source, query)
    positions = np.arange(count, dtype=POSITION_DTYPE)
    if exclude is not None:
        lo, hi = max(0, int(exclude[0])), min(count, int(exclude[1]))
        if lo < hi:
            keep = np.ones(count, dtype=bool)
            keep[lo:hi] = False
            positions = positions[keep]
            distances = distances[keep]
    stats.candidates = int(positions.size)
    stats.verified = int(positions.size)
    k_eff = min(int(k), int(positions.size))
    if k_eff == 0:
        return SearchResult.empty(stats)
    # Full lexsort keeps ties exact at the k-th distance (argpartition
    # alone could pick the wrong tied positions).
    order = np.lexsort((positions, distances))[:k_eff]
    stats.matches = k_eff
    return SearchResult(
        positions=positions[order],
        distances=distances[order],
        stats=stats,
    )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _plane_length(index: Any) -> int | None:
    """The plane's indexed window length ``l`` (``None`` when it cannot
    be determined without touching the plane's source — e.g. a foreign
    plane exposing neither a ``length`` nor a ``source``)."""
    length = getattr(index, "length", None)
    if length is not None:
        try:
            return int(length)
        except (TypeError, ValueError):
            return None
    source = getattr(index, "source", None)
    if source is None:
        return None
    return int(source.length)


@dataclasses.dataclass
class QueryPlan:
    """One execution plan: spec + plane + the options it runs with."""

    index: object
    spec: QuerySpec
    #: Per-call options the mode takes.
    options: dict
    #: Whether the plane hands the planner its parts (a
    #: :class:`~repro.query.parts.PartitionedPlane`: sharded, live) —
    #: the only planes whose work fans out on an executor.
    partitioned: bool
    #: Whether (any of) the spec's queries are shorter than the plane's
    #: window length — executed through the prefix kernels.
    varlength: bool = False

    def describe(self) -> str:
        """One diagnostic line (for logs and tests)."""
        return (
            f"mode={self.spec.mode} plane={type(self.index).__name__} "
            f"partitioned={self.partitioned} "
            f"varlength={self.varlength} options={sorted(self.options)}"
        )

    # ------------------------------------------------------------------
    def _queries(self) -> list:
        """The spec's queries, domain-mapped when they arrived raw.

        Index-domain queries are forwarded untouched — the plane's own
        kernel runs the (idempotent) preparation, exactly as a direct
        call would, so planned results stay byte-identical to direct
        ones.
        """
        if self.spec.domain == "raw":
            with current_trace().span("prepare", domain="raw"):
                try:
                    source = self.index.source
                except IndexNotBuiltError:
                    # A mutable plane before its first full window
                    # (live): nothing is indexed yet, and such planes
                    # reject the GLOBAL regime, so the raw→index
                    # mapping is the identity — the kernels validate
                    # the values themselves.
                    return self.spec.query_list()
                return list(self.spec.prepare(source).queries)
        return self.spec.query_list()

    def _search(self, query: Any) -> SearchResult:
        """One ``search`` with no fan-out of its own: on a partitioned
        plane's parts, walked in turn; for a query shorter than ``l``,
        the plane's ``search_varlength``; else the plane's ``search``."""
        if self.partitioned:
            return self._on_parts(query, None)
        epsilon = self.spec.epsilon
        if self.varlength and is_prefix_query(query, _plane_length(self.index)):
            return self.index.search_varlength(query, epsilon, **self.options)
        return self.index.search(query, epsilon, **self.options)

    def _on_parts(self, query: Any, executor: Any) -> Any:
        """One query of any mode on a partitioned plane: take its parts,
        then answer on them. A query shorter than ``l`` runs the parts'
        prefix search — ``exists`` / ``count`` derive from it — or, for
        ``knn``, the exact prefix scan over the series the parts cover."""
        spec = self.spec
        taken = self.index._take(query, executor)
        if taken is None:  # nothing indexed for this query yet
            if spec.mode == "count":
                return 0
            return False if spec.mode == "exists" else SearchResult.empty()
        query, parts = taken
        if query.size < self.index.length:
            if spec.mode == "knn":
                series = assemble_source(parts.values, query.size, Normalization.NONE)
                return scan_prefix_knn(series, query, spec.k, exclude=spec.exclude)
            found = parts.prefix_search(query, spec.epsilon, executor=executor, **self.options)
            if spec.mode == "exists":
                return len(found) > 0
            return len(found) if spec.mode == "count" else found
        if spec.mode == "knn":
            return parts.knn(query, spec.k, exclude=spec.exclude, executor=executor)
        if spec.mode == "count":
            return parts.count(query, spec.epsilon, executor=executor)
        if spec.mode == "exists":
            return parts.exists(query, spec.epsilon)
        return parts.search(query, spec.epsilon, executor=executor, **self.options)

    def _batch(self, executor: Any) -> Any:
        """A workload. On a partitioned plane the queries fan out on
        ``executor``, each walking its parts in turn — except on a
        process pool: query closures cannot cross a process boundary,
        so the loop runs here and each query's parts fan out. Any other
        plane runs its own ``search_batch`` when every query is full
        length, else one :meth:`_search` per query, in this thread."""
        spec = self.spec
        queries = self._queries()
        if self.partitioned and is_process_executor(executor):
            results = [self._on_parts(query, executor) for query in queries]
        elif self.partitioned:
            results = fan_out(executor, self._search, queries)
        elif not self.varlength:
            return self.index.search_batch(queries, spec.epsilon, **self.options)
        else:
            results = [self._search(query) for query in queries]
        return batch_result(results, spec.epsilon)

    def execute(self, executor: Any = None) -> Any:
        """Run the plan; returns the mode's natural result type
        (:class:`SearchResult`, :class:`~repro.core.batch.BatchResult`,
        ``bool`` or ``int``). Only a partitioned plane's work fans out
        on ``executor``."""
        spec = self.spec
        if spec.mode == "batch":
            return self._batch(executor)
        query = self._queries()[0]
        if self.partitioned:
            return self._on_parts(query, executor)
        if spec.mode == "knn":
            if self.varlength:
                # Exact prefix scan, ranked by ``(distance, position)``.
                return scan_prefix_knn(
                    self.index.source, query, spec.k, exclude=spec.exclude
                )
            return self.index.knn(query, spec.k, exclude=spec.exclude)
        found = self._search(query)
        if spec.mode == "search":
            return found
        return len(found) > 0 if spec.mode == "exists" else len(found)


def plan(index: Any, spec: QuerySpec) -> QueryPlan:
    """Plan ``spec`` against ``index``.

    A plane that hands over its parts (``_take``, see
    :class:`~repro.query.parts.PartitionedPlane`) is served on them.
    Any other plane's full-length ``search`` / ``knn`` / ``batch`` is
    its own ``search`` / ``knn`` / ``search_batch``; a query shorter
    than the plane's window length is its ``search_varlength`` (a
    batch holding one runs per query), except a prefix ``knn``, which
    is the exact prefix scan; ``exists`` / ``count`` are the length of
    the search. Targets
    that are not query planes at all (no ``search`` kernel) fail with
    the typed :class:`~repro.exceptions.UnsupportedCapabilityError`
    instead of an ``AttributeError`` deep inside a kernel.
    """
    if not callable(getattr(index, "search", None)):
        raise UnsupportedCapabilityError(
            f"{type(index).__name__} is not a query plane: it has no "
            "search kernel"
        )
    partitioned = callable(getattr(index, "_take", None))
    options = dict(spec.options)
    varlength = False
    length = _plane_length(index)
    if length is not None:
        varlength = any(
            is_prefix_query(query, length) for query in spec.query_list()
        )
    if not varlength and spec.mode in ("knn", "exists", "count"):
        # These modes take no kernel options — ``verification``
        # parameterizes the search kernels only, and no plane's knn
        # accepts it either.
        options = {}
    plans_total, varlength_total = _metrics()
    plans_total.labels(mode=spec.mode).inc()
    if varlength:
        varlength_total.inc()
    return QueryPlan(
        index=index,
        spec=spec,
        options=options,
        partitioned=partitioned,
        varlength=varlength,
    )


def execute(index: Any, spec: QuerySpec, *, executor: Any = None) -> Any:
    """Plan and run ``spec`` against ``index`` in one call."""
    return plan(index, spec).execute(executor=executor)
