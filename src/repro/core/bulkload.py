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

Every live segment (:mod:`repro.live.segments`) and every shard of a
:class:`~repro.engine.sharding.ShardedTSIndex` is this module's
product; twinbench's ``core.bulkload.build_s`` / ``windows_per_s`` and
``core.frozen.freeze_ms`` measure the load and the freeze after it.
"""

from __future__ import annotations

import math
import time

import numpy as np
import numpy.typing as npt

from ..exceptions import InvalidParameterError
from .mbts import MBTS
from .normalization import Normalization
from .stats import BuildStats
from .tsindex import TSIndex, TSIndexParams, _Node
from .windows import WindowSource

__all__ = ["bulk_load", "bulk_load_source"]

#: Default leaf/internal fill as a fraction of ``max_children``; keeping
#: headroom lets subsequent incremental inserts avoid immediate splits.
DEFAULT_FILL_FRACTION = 0.75

#: PAA segments of the envelope-midline summary the upper levels are
#: sorted by.
_SUMMARY_SEGMENTS = 4

#: Leaves whose envelopes are reduced in one block (bounds the
#: temporaries a per-window normalization copies).
_LEAF_BLOCK = 64


def bulk_load(
    series: npt.ArrayLike,
    length: int,
    *,
    normalization: Normalization | str = Normalization.GLOBAL,
    params: TSIndexParams | None = None,
    fill_fraction: float = DEFAULT_FILL_FRACTION,
) -> TSIndex:
    """Build a TS-Index bottom-up over all windows of ``series``."""
    source = WindowSource(series, length, normalization)
    return bulk_load_source(source, params=params, fill_fraction=fill_fraction)


def bulk_load_source(
    source: WindowSource,
    *,
    params: TSIndexParams | None = None,
    fill_fraction: float = DEFAULT_FILL_FRACTION,
) -> TSIndex:
    """Bulk load from a prepared :class:`WindowSource`."""
    params = params or TSIndexParams()
    if not 0.0 < fill_fraction <= 1.0:
        raise InvalidParameterError(
            f"fill_fraction must be in (0, 1], got {fill_fraction}"
        )
    fill = max(
        params.min_children,
        min(params.max_children, int(round(params.max_children * fill_fraction))),
    )

    started = time.perf_counter()
    runs = _leaf_runs(source.count, fill, params.min_children)
    uppers, lowers, keys = _leaf_envelopes(source, runs, fill)
    nodes = [
        _Node(mbts, positions=list(range(start, stop)))
        for mbts, (start, stop) in zip(MBTS.rows(uppers, lowers), runs)
    ]
    root, height, count = _stack_levels(nodes, uppers, lowers, keys, fill)
    stats = BuildStats(
        seconds=time.perf_counter() - started,
        windows=source.count,
        splits=0,
        height=height,
        nodes=count,
    )
    return TSIndex._from_prebuilt_root(source, root, params, stats)


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
    nodes: list[_Node],
    uppers: np.ndarray,
    lowers: np.ndarray,
    keys: np.ndarray,
    fill: int,
) -> tuple[_Node, int, int]:
    """Stack parents over ``nodes`` (whose envelopes are the rows of
    ``uppers`` / ``lowers``, and summaries those of ``keys``) until one
    root remains; returns the root, the height and the node count."""
    height, count = 1, len(nodes)
    while len(nodes) > 1:
        order = np.arange(len(nodes))
        if len(nodes) > fill:
            order = _str_order(keys, fill)
        bounds = list(range(0, len(nodes), fill)) + [len(nodes)]
        # Never leave a singleton parent group unless it is the root.
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        groups = [order[start:stop] for start, stop in zip(bounds, bounds[1:])]
        uppers = np.array([uppers[group].max(axis=0) for group in groups])
        lowers = np.array([lowers[group].min(axis=0) for group in groups])
        keys = np.array([keys[group].mean(axis=0) for group in groups])
        nodes = [
            _Node(mbts, children=[nodes[i] for i in group.tolist()])
            for mbts, group in zip(MBTS.rows(uppers, lowers), groups)
        ]
        height += 1
        count += len(nodes)
    return nodes[0], height, count
