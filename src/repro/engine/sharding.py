"""Sharded TS-Index: partitioned build and fan-out query execution.

A :class:`ShardedTSIndex` splits the position range of a series into
contiguous spans, bulk-loads one TS-Index per span and answers
queries by fanning out across the shards and merging. It is a
:class:`~repro.query.parts.PartitionedPlane`: its one ``_take``
validates and prepares a query and hands the planner the shards as a
:class:`~repro.query.parts.PartSet` (the fan-out loop shared with the
live plane); the planner serves every mode on them, and the query
methods are the shared planned calls.
Consecutive shards cover value chunks that overlap by ``length - 1``
points, so every window of the series belongs to exactly one shard and
no window is lost at a boundary. Shard window sources are zero-copy
views created by :meth:`~repro.core.windows.WindowSource.shard`, which
guarantees each shard window is bitwise identical to the corresponding
monolithic window — making sharded results *exactly* equal to the
monolithic ones, not merely approximately (enforced by the equivalence
property tests).

Shards build one after another in the calling thread; a bulk load
packs a few hundred nodes per shard in milliseconds, so there is
nothing for a build pool to overlap. Queries run the per-shard work in
the calling thread too, unless the caller passes a pool (see the
``executor`` arguments) — worth it for a deadline (``timeout=``) or a
process pool, not for thread parallelism.

Shard trees are bulk loaded straight into **frozen** form (see
:class:`~repro.core.frozen.FrozenTSIndex`): each shard is a flat
structure-of-arrays query plane with vectorized frontier traversal —
byte-identical answers, much lower per-query latency, and a batched
``search_batch`` path in which all queries share one level walk per
shard (chosen automatically: no executor, more than one query, all of
full length, and no option but ``verification``).
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Any

import numpy as np

from .._util import (
    available_cpu_count,
    check_non_negative,
    check_positive_int,
    is_process_executor,
)
from ..core.batch import BatchResult
from ..core.bulkload import bulk_load_source
from ..core.frozen import FrozenTSIndex
from ..core.normalization import Normalization
from ..core.stats import BuildStats
from ..core.tsindex import TSIndexParams
from ..core.windows import WindowSource, assemble_source
from ..exceptions import InvalidParameterError
from ..indices.sweepline import SweeplineSearch
from ..query.capabilities import (
    CAP_COUNT,
    CAP_EXISTS,
    CAP_KNN,
    CAP_SEARCH,
    CAP_SEARCH_BATCH,
    CAP_VARLENGTH,
    CAP_VERIFICATION,
)
from ..query.merge import batch_result, merge_offset_search
from ..query.parts import Part, PartitionedPlane, PartSet
from ..query.registration import register_plane
from ..query.spec import check_varlength_query, prepare_values
from ..query.varlength import is_prefix_query

#: A shard smaller than this many windows is pointless overhead; the
#: automatic shard count keeps every shard at least this large.
MIN_SHARD_WINDOWS = 256


def default_shard_count(window_count: int) -> int:
    """Shard count used when the caller does not pick one.

    One shard per available core (the cores this process may actually
    run on, not the machine's total), but never so many that a shard
    drops below :data:`MIN_SHARD_WINDOWS` windows, and always at least
    one.
    """
    cores = available_cpu_count()
    return max(1, min(cores, window_count // MIN_SHARD_WINDOWS))


def shard_spans(window_count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(window_count)`` into ``shards`` contiguous spans.

    Spans are half-open ``[start, stop)`` position ranges differing in
    size by at most one. Raises if there are more shards than windows.

    >>> shard_spans(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    shards = check_positive_int(shards, name="shards")
    if shards > window_count:
        raise InvalidParameterError(
            f"cannot split {window_count} windows into {shards} shards"
        )
    base, extra = divmod(window_count, shards)
    spans = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


@register_plane(
    "sharded",
    aliases=("shardedtsindex", "engine"),
    summary="partitioned TS-Index with fan-out serving (repro.engine)",
)
class ShardedTSIndex(PartitionedPlane):
    """A TS-Index partitioned into per-span shard trees.

    Answers the same query surface as :class:`~repro.core.tsindex.TSIndex`
    (``search``, ``knn``, ``exists``, ``count``, a batch entry point)
    with results merged across shards and positions re-offset to the
    global frame: each shard runs Algorithm 1 over its span, and the
    spans are disjoint and ascending, so the merge needs no sort.
    Results are exactly those a monolithic index would return.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.engine import ShardedTSIndex
    >>> series = np.cumsum(np.random.default_rng(3).normal(size=4000))
    >>> engine = ShardedTSIndex.build(
    ...     series, length=64, shards=4, normalization="none"
    ... )
    >>> result = engine.search(series[300:364], epsilon=0.3)
    >>> 300 in result.positions
    True
    """

    method_name = "sharded"

    #: Modes the planner serves on the shards themselves.
    capabilities = frozenset(
        {
            CAP_SEARCH,
            CAP_KNN,
            CAP_EXISTS,
            CAP_COUNT,
            CAP_SEARCH_BATCH,
            CAP_VARLENGTH,
            CAP_VERIFICATION,
        }
    )

    def __init__(
        self,
        source: WindowSource,
        starts: list[int],
        shards: list[FrozenTSIndex],
        params: TSIndexParams,
    ):
        self._source = source
        self._starts = starts
        self._shards = shards
        self._params = params
        self._archive_path: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        series: Any,
        length: int,
        *,
        normalization: Any = Normalization.GLOBAL,
        shards: int | None = None,
        params: TSIndexParams | None = None,
    ) -> "ShardedTSIndex":
        """Build shard trees over all ``length``-windows of ``series``.

        ``shards`` defaults to :func:`default_shard_count`; each shard
        tree is bulk-loaded in the calling thread (see
        :meth:`from_source`) and frozen into a flat
        :class:`~repro.core.frozen.FrozenTSIndex` as soon as it is
        built.
        """
        source = WindowSource(series, length, normalization)
        return cls.from_source(source, shards=shards, params=params)

    @classmethod
    def from_source(
        cls,
        source: WindowSource,
        *,
        shards: int | None = None,
        params: TSIndexParams | None = None,
    ) -> "ShardedTSIndex":
        """Build from a prepared monolithic window source.

        Each shard is bulk-loaded (windows packed into leaves in
        position order, levels stacked bottom-up), not built by the
        paper's insertion: the answers are the same, the packed leaves
        admit fewer candidates, and the build takes milliseconds, not
        seconds. Shards build in sequence in the caller, each written
        straight into its frozen arrays.
        """
        if shards is None:
            shards = default_shard_count(source.count)
        spans = shard_spans(source.count, shards)
        params = params or TSIndexParams()
        trees = [
            bulk_load_source(source.shard(start, stop), params=params)
            for start, stop in spans
        ]
        return cls(source, [start for start, _ in spans], trees, params)

    @classmethod
    def _from_prebuilt(
        cls,
        source: WindowSource,
        starts: list[int],
        shards: list[FrozenTSIndex],
        params: TSIndexParams,
    ) -> "ShardedTSIndex":
        """Internal hook used by the persistence layer."""
        return cls(source, starts, shards, params)

    # ------------------------------------------------------------------
    # Archive identity (process fan-out)
    # ------------------------------------------------------------------
    @property
    def archive_path(self) -> str:
        """The on-disk archive this engine was loaded from (or spooled
        to), ``None`` for purely in-memory engines. Process fan-out
        needs it: workers reopen the archive by path instead of
        receiving index data over the pipe."""
        return self._archive_path

    def attach_archive(self, path: Any) -> None:
        """Record ``path`` as this engine's on-disk identity (called by
        :func:`~repro.persistence.load_index`, and by
        :class:`~repro.engine.executor.QueryEngine` after spooling an
        in-memory engine). The archive must hold exactly this index."""
        self._archive_path = os.fspath(path)

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The monolithic window source the shards partition."""
        return self._source

    @property
    def params(self) -> TSIndexParams:
        """Tree construction parameters shared by every shard."""
        return self._params

    @property
    def length(self) -> int:
        """Indexed window length ``l``."""
        return self._source.length

    @property
    def size(self) -> int:
        """Total number of indexed windows across all shards."""
        return self._source.count

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def shards(self) -> tuple[FrozenTSIndex, ...]:
        """The per-span frozen shard trees (read-only view)."""
        return tuple(self._shards)

    @property
    def spans(self) -> list[tuple[int, int]]:
        """Half-open global position spans, one per shard."""
        return [
            (start, start + tree.size)
            for start, tree in zip(self._starts, self._shards)
        ]

    @property
    def build_stats(self) -> BuildStats:
        """Shard build stats aggregated (seconds and counters summed —
        shards build one after another; height: the tallest shard)."""
        merged = BuildStats()
        for tree in self._shards:
            stats = tree.build_stats
            merged.seconds += stats.seconds
            merged.windows += stats.windows
            merged.splits += stats.splits
            merged.height = max(merged.height, stats.height)
            merged.nodes += stats.nodes
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedTSIndex(windows={self.size}, length={self.length}, "
            f"shards={self.shard_count})"
        )

    def shard_stats(self) -> list[dict]:
        """One diagnostics row per shard (for `engine stats` and tests)."""
        rows = []
        for (start, stop), tree in zip(self.spans, self._shards):
            rows.append(
                {
                    "span": f"[{start}, {stop})",
                    "windows": tree.size,
                    "height": tree.height,
                    "nodes": tree.node_count,
                    "build_seconds": round(tree.build_stats.seconds, 4),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _take(self, query: Any, executor: Any = None) -> tuple[np.ndarray, PartSet]:
        """``query`` prepared, and the shards as the shared fan-out plane
        sees them: labelled by shard number, reopened by workers as the
        archive's ``i``-th shard. Built per call (a tuple per shard), so
        they always show the current :meth:`attach_archive` path — which
        a process pool on ``executor`` needs. A query of length
        ``m < l`` adds the series tail (the ``l - m`` starts past the
        last indexed window) as one more part, labelled ``"tail"``: a
        sweepline over its ``m``-windows, with no archive (a process
        pool leaves it to this thread). Each shard verifies prefix
        candidates against its own value chunk: chunks overlap by
        ``l - 1 >= m - 1`` values, so every ``m``-window of a shard's
        window span lies inside its chunk."""
        path = self._archive_path
        if path is None and is_process_executor(executor):
            raise InvalidParameterError(
                "process fan-out needs an on-disk archive to reopen in "
                "each worker; save this engine with save_index() and "
                "reopen it with load_index(), or "
                "serve it through QueryEngine(executor='process') "
                "(which spools unarchived engines automatically)"
            )
        source = self._source
        prefix = is_prefix_query(query, source.length)
        if prefix:
            query = check_varlength_query(query, source.length, source.normalization)
        else:
            query = prepare_values(source, query, expected=source.length)
        parts = [
            Part(start, tree, shard, None if path is None else (path, shard))
            for shard, (start, tree) in enumerate(zip(self._starts, self._shards))
        ]
        if prefix:
            tail = assemble_source(source.values[self.size :], query.size, Normalization.NONE)
            parts.append(Part(self.size, SweeplineSearch.from_source(tail), "tail", None))
        return query, PartSet(parts, "shard", source.values)

    def search_batch(
        self,
        queries: Any,
        epsilon: float,
        *,
        executor: concurrent.futures.Executor | None = None,
        **search_options: Any,
    ) -> BatchResult:
        """Run every query of ``queries`` at ``epsilon``, in input order.

        When no executor is supplied, the workload holds more than one
        query, all of full length, and ``search_options`` holds nothing
        but ``verification``, each shard answers the whole workload with
        one level walk (:meth:`FrozenTSIndex.search_batch
        <repro.core.frozen.FrozenTSIndex.search_batch>`) — identical
        results, fewer NumPy dispatches. Every other workload, a
        deadline or a degraded answer included, is the planner's
        per-query loop (see :meth:`PartitionedPlane.search_batch
        <repro.query.parts.PartitionedPlane.search_batch>`), which gives
        those options their meaning.
        """
        queries = list(queries)
        if (
            executor is None
            and len(queries) > 1
            and set(search_options) <= {"verification"}
            and not any(is_prefix_query(query, self.length) for query in queries)
        ):
            epsilon = check_non_negative(epsilon, name="epsilon")
            per_shard = [
                tree.search_batch(queries, epsilon, **search_options)
                for tree in self._shards
            ]
            results = [
                merge_offset_search(
                    zip(self._starts, (batch.results[i] for batch in per_shard))
                )
                for i in range(len(queries))
            ]
            return batch_result(results, epsilon)
        return super().search_batch(queries, epsilon, executor=executor, **search_options)
