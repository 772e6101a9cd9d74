"""Bottom-up bulk loading for TS-Index (an extension of the paper).

The paper constructs TS-Index by sequential insertion. For long series
this dominates build time, so — in the spirit of iSAX 2.0 / Coconut,
which the paper cites as the corresponding evolution for SAX indices —
we provide a bottom-up bulk loader: pack consecutive runs of windows
into leaves, then stack internal levels until a single root remains.
The resulting tree answers queries with the exact same machinery (and
the same correctness guarantees — Lemma 1 only needs nodes' MBTS to
cover their subtrees, which holds by construction).

**Leaves** are runs of ``fill`` windows in position order: neighbouring
windows overlap in ``l - 1`` points, so a run's envelope is tight for a
smooth series. (Sorting windows by mean or by a PAA word instead cost
10–12× the candidates per query.) A leaf envelope is the max / min over
its windows, computed for a block of leaves at a time over a
``(leaves, fill, l)`` view of the windows; max and min do not round, so
the envelopes are those of :meth:`MBTS.from_sequences`, bit for bit.

**Upper levels** are packed by a sort-tile-recursive (STR) sort: while
a level holds more than ``fill`` nodes it is ordered by a 4-segment PAA
of each node's envelope midline (a parent's summary is the mean of its
children's) before runs of ``fill`` become parents. Position order
stacks parents whose children lie far apart in value, so those levels
pruned almost nothing; STR groups children that are near in value, and
the group sizes — hence the node count — stay those of position order.

The result is a :class:`~repro.core.frozen.FrozenTSIndex` whose arrays
are written directly, in a BFS order composed top-down from each
level's STR grouping; no node object is built (``thaw()`` it to
insert). Every live segment (:mod:`repro.live.segments`) and every
shard of a :class:`~repro.engine.sharding.ShardedTSIndex` is one.
"""

from __future__ import annotations

import math
import time

import numpy as np
import numpy.typing as npt

from .frozen import FrozenTSIndex, _concat_ranges
from .normalization import Normalization
from .stats import BuildStats
from .tsindex import TSIndexParams
from .windows import WindowSource

__all__ = ["bulk_load", "bulk_load_source"]

#: Leaf/internal fill as a fraction of ``max_children``.
_FILL_FRACTION = 0.75

#: PAA segments of the envelope-midline summary the upper levels are
#: sorted by.
_SUMMARY_SEGMENTS = 4

#: Leaves whose envelopes are reduced in one block (bounds the
#: temporaries a per-window normalization copies).
_LEAF_BLOCK = 64

_Pair = tuple[np.ndarray, np.ndarray]


def bulk_load(
    series: npt.ArrayLike,
    length: int,
    *,
    normalization: Normalization | str = Normalization.GLOBAL,
    params: TSIndexParams | None = None,
) -> FrozenTSIndex:
    """Build a TS-Index bottom-up over all windows of ``series``."""
    source = WindowSource(series, length, normalization)
    return bulk_load_source(source, params=params)


def bulk_load_source(
    source: WindowSource, *, params: TSIndexParams | None = None
) -> FrozenTSIndex:
    """Bulk load from a prepared :class:`WindowSource`."""
    params = params or TSIndexParams()
    fill = max(
        params.min_children,
        min(params.max_children, int(round(params.max_children * _FILL_FRACTION))),
    )

    started = time.perf_counter()
    runs = _leaf_runs(source.count, fill, params.min_children)
    uppers, lowers, keys = _leaf_envelopes(source, runs, fill)
    levels, groupings = _stack_levels(uppers, lowers, keys, fill)
    arrays = _bfs_arrays(levels, groupings, np.array(runs, dtype=np.int64))
    stats = BuildStats(
        windows=source.count, height=len(levels), nodes=arrays["kinds"].size
    )
    index = FrozenTSIndex(source, params, stats, arrays)
    stats.seconds = time.perf_counter() - started
    return index


def _leaf_runs(total: int, fill: int, minimum: int) -> list[tuple[int, int]]:
    """``[start, stop)`` position runs of the leaves: ``fill`` windows
    each, except that a final run below ``minimum`` is merged with the
    one before it and the two re-split evenly (or kept as one when they
    cannot both reach ``minimum``)."""
    runs = [(start, min(start + fill, total)) for start in range(0, total, fill)]
    if len(runs) > 1 and runs[-1][1] - runs[-1][0] < minimum:
        runs.pop()
        start = runs.pop()[0]
        size = total - start
        if size >= 2 * minimum:
            half = start + size // 2
            runs += [(start, half), (half, total)]
        else:
            runs.append((start, total))
    return runs


def _leaf_envelopes(
    source: WindowSource, runs: list[tuple[int, int]], fill: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(leaves, l)`` upper / lower envelopes of the leaf runs and their
    ``(leaves, s)`` :func:`_summaries`. The runs of exactly ``fill``
    windows are reduced :data:`_LEAF_BLOCK` at a time over a
    ``(leaves, fill, l)`` view of their windows; the one or two
    irregular tail runs one at a time."""
    length = source.length
    uppers = np.empty((len(runs), length))
    lowers = np.empty((len(runs), length))
    full = sum(1 for start, stop in runs if stop - start == fill)
    blocks = [
        (first, min(first + _LEAF_BLOCK, full))
        for first in range(0, full, _LEAF_BLOCK)
    ] + [(leaf, leaf + 1) for leaf in range(full, len(runs))]
    keys = []
    for first, last in blocks:
        start, stop = runs[first][0], runs[last - 1][1]
        if last - first == 1:
            block = source.window_block(start, stop)[None]
        else:
            block = source.window_block(start, stop).reshape(-1, fill, length)
        np.max(block, axis=1, out=uppers[first:last])
        np.min(block, axis=1, out=lowers[first:last])
        keys.append(_summaries(uppers[first:last], lowers[first:last]))
    return uppers, lowers, np.concatenate(keys)


def _summaries(uppers: np.ndarray, lowers: np.ndarray) -> np.ndarray:
    """``(n, s)`` PAA of every envelope's midline, ``s`` =
    :data:`_SUMMARY_SEGMENTS` (fewer for windows shorter than that)."""
    length = uppers.shape[1]
    segments = min(_SUMMARY_SEGMENTS, length)
    bounds = np.round(np.linspace(0.0, length, segments + 1)).astype(np.int64)
    sums = np.add.reduceat(uppers + lowers, bounds[:-1], axis=1)
    return sums / (2 * np.diff(bounds))


def _str_order(keys: np.ndarray, fill: int) -> np.ndarray:
    """Sort-tile-recursive order of the rows of ``keys``: sort by the
    first column, cut into slabs of whole ``fill``-runs, sort each slab
    by the next column, and so on; the last column orders the runs."""
    dims = keys.shape[1]

    def tile(ids: np.ndarray, dim: int) -> list[np.ndarray]:
        ids = ids[np.argsort(keys[ids, dim], kind="stable")]
        if dim == dims - 1 or ids.size <= fill:
            return [ids]
        pages = -(-ids.size // fill)
        slabs = math.ceil(pages ** (1.0 / (dims - dim)))
        slab = fill * -(-pages // slabs)
        return [
            part
            for start in range(0, ids.size, slab)
            for part in tile(ids[start : start + slab], dim + 1)
        ]

    return np.concatenate(tile(np.arange(keys.shape[0]), 0))


def _stack_levels(
    uppers: np.ndarray, lowers: np.ndarray, keys: np.ndarray, fill: int
) -> tuple[list[_Pair], list[_Pair]]:
    """Stack parents over the leaves (whose envelopes are the rows of
    ``uppers`` / ``lowers``, and summaries those of ``keys``) until one
    root remains. Returns every level's ``(uppers, lowers)``, leaves
    first, and per parent level its ``(order, bounds)``: parent ``j``'s
    children are ``order[bounds[j]:bounds[j + 1]]`` of the level below."""
    levels = [(uppers, lowers)]
    groupings = []
    while len(uppers) > 1:
        order = np.arange(len(uppers))
        if len(uppers) > fill:
            order = _str_order(keys, fill)
        bounds = list(range(0, len(uppers), fill)) + [len(uppers)]
        # Never leave a singleton parent group unless it is the root.
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        groups = [order[start:stop] for start, stop in zip(bounds, bounds[1:])]
        uppers = np.array([uppers[group].max(axis=0) for group in groups])
        lowers = np.array([lowers[group].min(axis=0) for group in groups])
        keys = np.array([keys[group].mean(axis=0) for group in groups])
        levels.append((uppers, lowers))
        groupings.append((order, np.array(bounds, dtype=np.int64)))
    return levels, groupings


def _bfs_arrays(
    levels: list[_Pair], groupings: list[_Pair], runs: np.ndarray
) -> dict:
    """The :data:`~repro.core.frozen.ARRAY_FIELDS` of the stacked
    levels in BFS order, root first: walking down, a level's nodes are
    its parents' child groups, taken in the parents' order. ``runs``
    holds each leaf's ``[start, stop)`` positions."""
    orders = [np.zeros(1, dtype=np.int64)]
    fanouts = []
    for order, bounds in reversed(groupings):
        sizes = np.diff(bounds)[orders[-1]]
        orders.append(order[_concat_ranges(bounds[orders[-1]], sizes)])
        fanouts.append(sizes)
    leaves = orders[-1]
    n = sum(ids.size for ids in orders)
    internal = n - leaves.size
    envelopes = [np.empty((n, levels[0][0].shape[1])) for _ in range(2)]
    start = 0
    for ids, level in zip(orders, reversed(levels)):
        for rows, matrix in zip(level, envelopes):
            np.take(rows, ids, axis=0, out=matrix[start : start + ids.size])
        start += ids.size
    sizes = runs[leaves, 1] - runs[leaves, 0]
    fanout = np.concatenate([*fanouts, np.zeros_like(sizes)])
    leaf_sizes = np.concatenate([np.zeros(internal, dtype=np.int64), sizes])
    return {
        "uppers": envelopes[0],
        "lowers": envelopes[1],
        "kinds": (np.arange(n) >= internal).astype(np.int8),
        "children_offsets": np.concatenate([[0], np.cumsum(fanout)]),
        "leaf_offsets": np.concatenate([[0], np.cumsum(leaf_sizes)]),
        "positions": _concat_ranges(runs[leaves, 0], sizes),
    }
