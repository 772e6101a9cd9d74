"""Capability-negotiating planner: QuerySpec → plan → execute.

One pipeline answers every query mode on every plane:

1. a :class:`~repro.query.spec.QuerySpec` describes the query;
2. :func:`plan` negotiates with the target plane's declared
   :mod:`capabilities <repro.query.capabilities>` — native kernels are
   used where the plane has them, per-call options the plane does not
   understand are dropped, and the rest is **synthesized centrally**
   (exact scan k-NN, search-backed existence and counting, a fan-out
   batch loop) — so a plane that only implements
   ``search`` (KV-Index, iSAX) is still fully servable
   through :class:`~repro.engine.executor.QueryEngine`;
3. :meth:`QueryPlan.execute` runs it. A plane served as parts (the
   sharded and live planes, :class:`~repro.query.parts.PartitionedPlane`)
   hands the planner its parts through its one ``_take`` method, and
   the planner answers every mode on that
   :class:`~repro.query.parts.PartSet` — it never calls such a plane's
   public query methods, which are themselves planned calls. Only those
   parts fan out on an executor; synthesized batches fan out at the
   planner level.

The synthesized kernels answer from the plane's own
:class:`~repro.core.windows.WindowSource`, so their results agree
exactly (positions, distances, ``(distance, position)`` tie-breaks)
with what a native kernel over the same windows would return.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    is_process_executor,
    iter_chunks,
    map_with_executor,
)
from ..core.normalization import Normalization
from ..core.stats import QueryStats, SearchResult
from ..core.windows import assemble_source
from ..exceptions import IndexNotBuiltError, UnsupportedCapabilityError
from ..obs.metrics import HandleCache
from ..obs.trace import current_trace
from .capabilities import (
    CAP_COUNT,
    CAP_EXISTS,
    CAP_KNN,
    CAP_SEARCH_BATCH,
    CAP_VARLENGTH,
    CAP_VERIFICATION,
    capabilities_of,
)
from .merge import batch_result
from .spec import QuerySpec, prepare_values
from .varlength import is_prefix_query, scan_prefix_knn, scan_prefix_search

#: Windows per block in the synthesized scan kernels (bounds the
#: temporary ``(block, l)`` matrix regardless of index size).
SCAN_BLOCK = 4096

#: Planner counters (recorded into the process default registry):
#: how many plans ran on a native plane kernel vs. a synthesized one,
#: and how many dispatched to the variable-length prefix path.
_metrics = HandleCache(
    lambda registry: (
        registry.counter(
            "repro_planner_plans_total",
            "Query plans produced, by mode and whether the mode runs "
            "on a native plane kernel.",
            labels=("mode", "native"),
        ),
        registry.counter(
            "repro_planner_varlength_plans_total",
            "Query plans dispatched to the variable-length prefix "
            "kernels (query length m < indexed window length l).",
        ),
    )
)


# ----------------------------------------------------------------------
# Synthesized kernels (used when a plane lacks the native capability)
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
    """Exact k-NN over every window of ``source`` — the synthesized
    k-NN any search-only plane serves through the planner.

    Ranks by the library-wide ``(distance, position)`` tie-break, so
    the answer equals what a native tree k-NN over the same windows
    returns.
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


def scan_count(source: Any, query: Any, epsilon: float) -> int:
    """Count twins without materializing a result: no position/distance
    arrays are built, just a blockwise running total. The
    memory-bounded alternative to ``len(search(...))`` for huge result
    sets (the planner's synthesized count prefers the plane's own
    pruned search — see :meth:`QueryPlan.execute`)."""
    query = prepare_values(source, query)
    total = 0
    for start, stop in iter_chunks(source.count, SCAN_BLOCK):
        block = source.window_block(start, stop)
        twins = np.max(np.abs(block - query), axis=1) <= epsilon
        total += int(np.count_nonzero(twins))
    return total


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
    """One negotiated execution plan: spec + plane + chosen kernels."""

    index: object
    spec: QuerySpec
    #: The plane's declared capability set.
    capabilities: frozenset
    #: Whether the spec's mode runs on a native plane kernel (False →
    #: the planner synthesizes it).
    native: bool
    #: Per-call options surviving capability filtering.
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
            f"native={self.native} partitioned={self.partitioned} "
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

    def _source_or_raise(self) -> Any:
        """The plane's window source (needed to synthesize a kernel);
        typed failure for planes that truly cannot serve the mode."""
        source = getattr(self.index, "source", None)
        if source is None:
            raise UnsupportedCapabilityError(
                f"{type(self.index).__name__} cannot serve "
                f"variable-length queries: it declares no native prefix "
                "kernel and exposes no window source to synthesize one "
                "from"
            )
        return source

    def _search(self, query: Any) -> SearchResult:
        """One ``search`` with no fan-out of its own: on a partitioned
        plane's parts, walked in turn; for a query shorter than ``l``,
        the plane's native prefix kernel where declared, the synthesized
        prefix scan otherwise; else the plane's own ``search``."""
        if self.partitioned:
            return self._on_parts(query, None)
        epsilon = self.spec.epsilon
        if self.varlength and is_prefix_query(query, _plane_length(self.index)):
            if CAP_VARLENGTH in self.capabilities:
                return self.index.search_varlength(query, epsilon, **self.options)
            return scan_prefix_search(self._source_or_raise(), query, epsilon, **self.options)
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
        """A workload: the plane's own batch kernel where it has one
        (full-length queries, not a partitioned plane), else one
        :meth:`_search` per query. Those fan out *at the planner level*
        on ``executor``, so even planes with no concurrency support
        serve parallel workloads — except a partitioned plane on a
        process pool: query closures cannot cross a process boundary,
        so the loop runs here and each query's parts fan out."""
        spec = self.spec
        queries = self._queries()
        if self.native and not (self.varlength or self.partitioned):
            return self.index.search_batch(queries, spec.epsilon, **self.options)
        if self.partitioned and is_process_executor(executor):
            results = [self._on_parts(query, executor) for query in queries]
        else:
            results = map_with_executor(executor, self._search, queries)
        return batch_result(results, spec.epsilon)

    def execute(self, executor: Any = None) -> Any:
        """Run the plan; returns the mode's natural result type
        (:class:`SearchResult`, :class:`~repro.core.batch.BatchResult`,
        ``bool`` or ``int``). Only a partitioned plane's parts fan out
        on ``executor`` (and any plane's synthesized batch)."""
        spec = self.spec
        if spec.mode == "batch":
            return self._batch(executor)
        query = self._queries()[0]
        if self.partitioned:
            return self._on_parts(query, executor)
        if spec.mode == "search":
            return self._search(query)
        if spec.mode == "knn":
            if self.varlength:
                # Exact prefix scan, ranked by ``(distance, position)``.
                return scan_prefix_knn(
                    self._source_or_raise(), query, spec.k, exclude=spec.exclude
                )
            if self.native:
                return self.index.knn(query, spec.k, exclude=spec.exclude)
            return scan_knn(self.index.source, query, spec.k, exclude=spec.exclude)
        if self.native and not self.varlength:
            if spec.mode == "exists":
                return self.index.exists(query, spec.epsilon)
            return self.index.count(query, spec.epsilon)
        # Search-backed synthesis (and the prefix path's exists/count):
        # the plane's own (pruned) traversal beats an exhaustive scan on
        # every indexed plane; callers who need bounded memory on huge
        # result sets use scan_count.
        found = len(self._search(query))
        return found > 0 if spec.mode == "exists" else found


#: Capability a mode needs to run natively.
_MODE_CAPABILITY = {
    "search": None,  # mandatory: every plane brings search
    "knn": CAP_KNN,
    "exists": CAP_EXISTS,
    "count": CAP_COUNT,
    "batch": CAP_SEARCH_BATCH,
}


def plan(index: Any, spec: QuerySpec) -> QueryPlan:
    """Negotiate ``spec`` against ``index``'s declared capabilities.

    Queries shorter than the plane's window length plan onto the
    variable-length path: ``search`` (and the search-derived
    ``exists``/``count``) runs on the plane's native prefix kernel when
    it declares :data:`~repro.query.capabilities.CAP_VARLENGTH`, the
    synthesized prefix scan otherwise; ``knn`` is always the exact
    prefix scan; batches dispatch per query. A plane that hands over
    its parts (``_take``, see :class:`~repro.query.parts.PartitionedPlane`)
    is served on them, and only it keeps ``timeout`` / ``degraded``.
    Targets that are not query planes at all (no ``search`` kernel)
    fail with the typed :class:`~repro.exceptions.UnsupportedCapabilityError`
    instead of an ``AttributeError`` deep inside a kernel.
    """
    if not callable(getattr(index, "search", None)):
        raise UnsupportedCapabilityError(
            f"{type(index).__name__} is not a query plane: it has no "
            "search kernel"
        )
    caps = capabilities_of(index)
    required = _MODE_CAPABILITY[spec.mode]
    native = required is None or required in caps
    partitioned = callable(getattr(index, "_take", None))
    options = dict(spec.options)
    if CAP_VERIFICATION not in caps:
        options.pop("verification", None)
    varlength = False
    length = _plane_length(index)
    if length is not None:
        varlength = any(
            is_prefix_query(query, length) for query in spec.query_list()
        )
    if varlength or not partitioned:
        # Only a partitioned plane bounds its parts with a deadline or
        # answers degraded, and its prefix path takes no deadline.
        options.pop("timeout", None)
        options.pop("degraded", None)
    if varlength:
        # ``native`` reports whether the *prefix* kernel is the plane's
        # own.
        native = CAP_VARLENGTH in caps and spec.mode != "knn"
    elif spec.mode in ("knn", "exists", "count"):
        # These modes take no kernel options — ``verification``
        # parameterizes the search kernels only, and no plane's native
        # knn accepts it either.
        options = {}
    plans_total, varlength_total = _metrics()
    plans_total.labels(mode=spec.mode, native=str(native).lower()).inc()
    if varlength:
        varlength_total.inc()
    return QueryPlan(
        index=index,
        spec=spec,
        capabilities=caps,
        native=native,
        options=options,
        partitioned=partitioned,
        varlength=varlength,
    )


def execute(index: Any, spec: QuerySpec, *, executor: Any = None) -> Any:
    """Plan and run ``spec`` against ``index`` in one call."""
    return plan(index, spec).execute(executor=executor)
