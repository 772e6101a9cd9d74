"""Bottom-up bulk loading for TS-Index (an extension of the paper).

The paper constructs TS-Index by sequential insertion. For long series
this dominates build time, so — in the spirit of iSAX 2.0 / Coconut,
which the paper cites as the corresponding evolution for SAX indices —
we provide a bottom-up bulk loader: order the windows, pack consecutive
runs into leaves, then stack internal levels until a single root
remains. The resulting tree answers queries with the exact same
machinery (and the same correctness guarantees — Lemma 1 only needs
nodes' MBTS to cover their subtrees, which holds by construction).

Three orderings are offered:

* ``position`` — natural order; neighbouring windows overlap in
  ``l - 1`` points, so consecutive runs are tight for smooth series;
* ``mean`` — sort by window mean (KV-Index's grouping criterion);
* ``paa`` — lexicographic on a coarse PAA word (Coconut-style sortable
  summaries).

Every live segment (:mod:`repro.live.segments`) and every shard of a
:class:`~repro.engine.sharding.ShardedTSIndex` is this module's
product; twinbench's ``core.bulkload.build_s`` / ``windows_per_s`` and
``core.frozen.freeze_ms`` measure the load and the freeze after it.
"""

from __future__ import annotations

import time

import numpy as np
import numpy.typing as npt

from .._util import POSITION_DTYPE, check_positive_int
from ..exceptions import InvalidParameterError
from .mbts import MBTS
from .normalization import Normalization
from .stats import BuildStats
from .tsindex import TSIndex, TSIndexParams, _Node, _union_of
from .windows import WindowSource

__all__ = ["BULK_ORDERINGS", "bulk_load", "bulk_load_source"]

#: Supported orderings.
BULK_ORDERINGS = ("position", "mean", "paa")

#: Default leaf/internal fill as a fraction of ``max_children``; keeping
#: headroom lets subsequent incremental inserts avoid immediate splits.
DEFAULT_FILL_FRACTION = 0.75


def bulk_load(
    series: npt.ArrayLike,
    length: int,
    *,
    normalization: Normalization | str = Normalization.GLOBAL,
    params: TSIndexParams | None = None,
    ordering: str = "position",
    paa_segments: int = 5,
    fill_fraction: float = DEFAULT_FILL_FRACTION,
) -> TSIndex:
    """Build a TS-Index bottom-up over all windows of ``series``."""
    source = WindowSource(series, length, normalization)
    return bulk_load_source(
        source,
        params=params,
        ordering=ordering,
        paa_segments=paa_segments,
        fill_fraction=fill_fraction,
    )


def bulk_load_source(
    source: WindowSource,
    *,
    params: TSIndexParams | None = None,
    ordering: str = "position",
    paa_segments: int = 5,
    fill_fraction: float = DEFAULT_FILL_FRACTION,
) -> TSIndex:
    """Bulk load from a prepared :class:`WindowSource`."""
    params = params or TSIndexParams()
    if ordering not in BULK_ORDERINGS:
        raise InvalidParameterError(
            f"ordering must be one of {BULK_ORDERINGS}, got {ordering!r}"
        )
    if not 0.0 < fill_fraction <= 1.0:
        raise InvalidParameterError(
            f"fill_fraction must be in (0, 1], got {fill_fraction}"
        )
    fill = max(
        params.min_children,
        min(params.max_children, int(round(params.max_children * fill_fraction))),
    )

    started = time.perf_counter()
    order = _ordered_positions(source, ordering, paa_segments)
    leaves = _build_leaves(source, order, fill, params)
    root, height = _stack_levels(leaves, fill)
    stats = BuildStats(
        seconds=time.perf_counter() - started,
        windows=source.count,
        splits=0,
        height=height,
        nodes=_count_nodes(root),
    )
    return TSIndex._from_prebuilt_root(source, root, params, stats)


def _ordered_positions(
    source: WindowSource, ordering: str, paa_segments: int
) -> np.ndarray:
    positions = np.arange(source.count, dtype=POSITION_DTYPE)
    if ordering == "position":
        return positions
    if ordering == "mean":
        return positions[np.argsort(source.means(), kind="stable")]
    # "paa": lexicographic sort on a coarse PAA word of each window.
    paa_segments = check_positive_int(paa_segments, name="paa_segments")
    paa_segments = min(paa_segments, source.length)
    from ..indices.paa import paa_matrix  # deferred: indices depends on core

    word = paa_matrix(source, paa_segments)
    # lexsort sorts by the *last* key first; feed columns reversed so the
    # first PAA segment is the primary key.
    keys = tuple(word[:, column] for column in reversed(range(word.shape[1])))
    return positions[np.lexsort(keys)]


def _build_leaves(
    source: WindowSource,
    order: np.ndarray,
    fill: int,
    params: TSIndexParams,
) -> list[_Node]:
    leaves: list[_Node] = []
    total = order.size
    for start in range(0, total, fill):
        stop = min(start + fill, total)
        # Avoid creating a final leaf below the minimum capacity: borrow
        # from the previous leaf by re-splitting the tail evenly.
        if 0 < total - start < params.min_children and leaves:
            tail = np.concatenate(
                (np.asarray(leaves[-1].positions, dtype=POSITION_DTYPE), order[start:stop])
            )
            leaves.pop()
            if tail.size >= 2 * params.min_children:
                half = max(params.min_children, tail.size // 2)
                chunks = (tail[:half], tail[half:])
            else:
                chunks = (tail,)
            for chunk in chunks:
                matrix = source.windows(chunk)
                leaves.append(
                    _Node(MBTS.from_sequences(matrix), positions=chunk.tolist())
                )
            break
        chunk = order[start:stop]
        matrix = source.windows(chunk)
        leaves.append(_Node(MBTS.from_sequences(matrix), positions=chunk.tolist()))
    return leaves


def _stack_levels(nodes: list[_Node], fill: int) -> tuple[_Node, int]:
    height = 1
    while len(nodes) > 1:
        parents: list[_Node] = []
        for start in range(0, len(nodes), fill):
            group = nodes[start : start + fill]
            # Never leave a singleton parent group unless it is the root.
            if len(group) == 1 and parents:
                parents[-1].children.extend(group)
                parents[-1].mbts = _union_of(parents[-1].children)
                parents[-1].invalidate_cache()
                continue
            parents.append(_Node(_union_of(group), children=group))
        nodes = parents
        height += 1
    return nodes[0], height


def _count_nodes(root: _Node) -> int:
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend(node.children)
    return count
