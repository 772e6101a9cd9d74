"""Bottom-up bulk loading for TS-Index (an extension of the paper).

The paper constructs TS-Index by sequential insertion. For long series
this dominates build time, so — in the spirit of iSAX 2.0 / Coconut,
which the paper cites as the corresponding evolution for SAX indices —
we provide a bottom-up bulk loader: pack consecutive runs of windows
into leaves, then stack internal levels until a single root remains.
The resulting tree answers queries with the exact same machinery (and
the same correctness guarantees — Lemma 1 only needs nodes' MBTS to
cover their subtrees, which holds by construction).

**Leaves** are runs of ``fill`` windows in position order
(:attr:`~repro.core.tsindex.TSIndexParams.bulk_fill`): neighbouring
windows overlap in ``l - 1`` points, so a run's envelope is tight for a
smooth series. (Sorting windows by mean or by a PAA word instead cost
10–12× the candidates per query.) A leaf envelope is the max / min over
its windows, and for a run ``[s, s + fill)`` its entry at timestamp
``t`` is the max / min of the ``fill`` values from ``s + t`` on: entry
``s + t`` of the series' width-``fill`` *sliding extrema*
(:func:`sliding_extrema`, O(n) by van Herk / Gil-Werman block prefixes
and suffixes). So the sliding extrema are computed once, the full runs'
rows are read from them, and the tree keeps them instead of those rows
(the run layout of :class:`~repro.core.frozen.FrozenTSIndex`). Max and
min do not round, so the envelopes are those of
:meth:`MBTS.from_sequences`, bit for bit. Two kinds of leaf are reduced
over their windows instead: the one or two irregular last runs, and,
under per-window normalization (each window scaled on its own, so no
series-wide extrema exist), every leaf, a block of
:data:`_LEAF_BLOCK` leaves at a time over a ``(leaves, fill, l)`` view.

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

from .._util import FLOAT_DTYPE
from .frozen import FrozenTSIndex, _concat_ranges
from .normalization import Normalization
from .stats import BuildStats
from .tsindex import TSIndexParams
from .windows import WindowSource

__all__ = ["bulk_load", "bulk_load_source"]

#: PAA segments of the envelope-midline summary the upper levels are
#: sorted by.
_SUMMARY_SEGMENTS = 4

#: Leaves whose envelopes are reduced in one block under per-window
#: normalization (bounds the temporaries it copies).
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
    fill = params.bulk_fill

    started = time.perf_counter()
    runs = np.array(_leaf_runs(source.count, fill, params.min_children), dtype=np.int64)
    slides = None
    if source.normalization is not Normalization.PER_WINDOW:
        slides = sliding_extrema(source.values, fill)
    uppers, lowers = _leaf_envelopes(source, runs, fill, slides)
    levels, groupings = _stack_levels(uppers, lowers, _summaries(uppers, lowers), fill)
    arrays = _bfs_arrays(levels, groupings, runs, slides)
    stats = BuildStats(
        windows=source.count, height=len(levels), nodes=arrays["kinds"].size
    )
    index = FrozenTSIndex(source, params, stats, arrays)
    stats.seconds = time.perf_counter() - started
    return index


def sliding_extrema(values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(max, min)`` of every ``width`` consecutive entries of
    ``values``: ``values.size - width + 1`` entries each (none when
    ``values`` is shorter), in O(n) by the van Herk / Gil-Werman scheme.
    The values are cut into blocks of ``width``; a window covers the
    end of one block and the start of the next, so its extremum is that
    of a block suffix and a block prefix, both running accumulations.
    Max and min do not round: every entry equals a direct reduction of
    its window."""
    count = values.size - width + 1
    if count <= 0:
        return np.empty(0, dtype=FLOAT_DTYPE), np.empty(0, dtype=FLOAT_DTYPE)
    blocks = -(-values.size // width)
    extrema = []
    for ufunc, pad in ((np.maximum, -np.inf), (np.minimum, np.inf)):
        padded = np.full(blocks * width, pad)
        padded[: values.size] = values
        # Accumulate down the columns of the (width, blocks) transpose:
        # ``width`` vector steps across all blocks at once.
        columns = padded.reshape(blocks, width).T
        prefix = ufunc.accumulate(columns, axis=0).T.ravel()
        suffix = ufunc.accumulate(columns[::-1], axis=0)[::-1].T.ravel()
        extrema.append(ufunc(suffix[:count], prefix[width - 1 : width - 1 + count]))
    return extrema[0], extrema[1]


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
    source: WindowSource,
    runs: np.ndarray,
    fill: int,
    slides: _Pair | None,
) -> _Pair:
    """``(leaves, l)`` upper / lower envelopes of the leaf ``runs``. The
    runs of exactly ``fill`` windows (all but the last one or two) are
    rows of the sliding extrema ``slides`` when there are any, else
    reduced :data:`_LEAF_BLOCK` at a time over a ``(leaves, fill, l)``
    view of their windows; the irregular runs are reduced one at a
    time."""
    length = source.length
    uppers = np.empty((len(runs), length))
    lowers = np.empty((len(runs), length))
    full = int(np.count_nonzero(runs[:, 1] - runs[:, 0] == fill))
    if slides is not None:
        blocks = [(leaf, leaf + 1) for leaf in range(full, len(runs))]
        if full:
            for rows, slide in zip((uppers, lowers), slides):
                view = np.lib.stride_tricks.sliding_window_view(slide, length)
                rows[:full] = view[runs[:full, 0]]
    else:
        blocks = [
            (first, min(first + _LEAF_BLOCK, full))
            for first in range(0, full, _LEAF_BLOCK)
        ] + [(leaf, leaf + 1) for leaf in range(full, len(runs))]
    for first, last in blocks:
        start, stop = int(runs[first, 0]), int(runs[last - 1, 1])
        if last - first == 1:
            block = source.window_block(start, stop)[None]
        else:
            block = source.window_block(start, stop).reshape(-1, fill, length)
        np.max(block, axis=1, out=uppers[first:last])
        np.min(block, axis=1, out=lowers[first:last])
    return uppers, lowers


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
    levels: list[_Pair],
    groupings: list[_Pair],
    runs: np.ndarray,
    slides: _Pair | None,
) -> dict:
    """The arrays of the stacked levels in BFS order, root first:
    walking down, a level's nodes are its parents' child groups, taken
    in the parents' order. ``runs`` holds each leaf's ``[start, stop)``
    positions. With ``slides`` they are the input of
    :class:`~repro.core.frozen.FrozenTSIndex`'s run layout (whole
    envelopes, the sliding extrema and every leaf's first position),
    else the :data:`~repro.core.frozen.ARRAY_FIELDS`."""
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
    arrays = {
        "uppers": envelopes[0],
        "lowers": envelopes[1],
        "kinds": (np.arange(n) >= internal).astype(np.int8),
        "children_offsets": np.concatenate([[0], np.cumsum(fanout)]),
        "leaf_offsets": np.concatenate([[0], np.cumsum(leaf_sizes)]),
    }
    if slides is None:
        arrays["positions"] = _concat_ranges(runs[leaves, 0], sizes)
    else:
        arrays["leaf_starts"] = np.concatenate(
            [np.zeros(internal, dtype=np.int64), runs[leaves, 0]]
        )
        arrays["uppers_slide"], arrays["lowers_slide"] = slides
    return arrays
