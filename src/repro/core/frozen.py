"""FrozenTSIndex — a read-optimized, array-flattened TS-Index snapshot.

The dynamic :class:`~repro.core.tsindex.TSIndex` is a pointer tree of
Python ``_Node`` objects: ideal for insertion, terrible for query
throughput, because every traversal chases object references and runs
per-node Python. Freezing converts the finished tree into a
structure-of-arrays *query plane*:

* ``uppers`` / ``lowers`` — the ``(n_nodes, l)`` stacked envelope
  matrices (rows are node MBTS bounds, in BFS order, root first), as
  float32 rounded *outward* (uppers up, lowers down), each held once,
  cut into a timestamp-major head and a node-major tail — see below;
* ``children_offsets`` — a CSR adjacency whose member array is left
  implicit: the layout is always BFS, root first, and every node
  follows its parent, so child slot ``j`` is node ``j + 1`` and node
  ``i``'s children are the ids ``children_offsets[i] + 1`` up to
  ``children_offsets[i + 1] + 1``. Each node's children and each whole
  level are contiguous id ranges; the constructor rejects any other
  layout;
* ``leaf_offsets`` / ``positions`` — one contiguous array of all leaf
  window positions with per-node half-open spans (empty for internal
  nodes); a tree in the run layout (below) lists no positions and
  keeps each leaf's first one instead.

Queries then run *level by level*: a table of each level's id range is
built once, a level's frontier is a mask over that range, and the next
level's frontier is that mask repeated by each node's child count. The
Eq. 2 bound of the entire frontier against the query (``U >= Q - ε``
and ``L <= Q + ε`` at every timestamp) is a two-phase pass of a few
NumPy comparisons per level instead of one Python call per node. The
walk also takes a matrix of queries, so :meth:`FrozenTSIndex.search_batch`
shares its per-level setup across a workload, each query keeping its
own frontier.

The filter only has to be *conservative*: verification reads the
float64 source, so a node kept needlessly costs time, never an answer.
The envelopes are therefore held once, as float32 rounded outward at
freeze/load (:func:`~repro.core.mbts.round_up_f32` /
:func:`~repro.core.mbts.round_down_f32`), and a query is compared
against them through per-timestamp float32 thresholds rounded outward
the other way (:func:`_thresholds`) — half the bytes streamed, and two
compares per element with no arithmetic temporaries.

**Resident layout.** A level's bound check prunes almost every node
and keeps a few (``twin_sparse``: 9,091 leaf envelopes in, ≈ 290 out),
and the two outcomes want opposite layouts. *Pruning* wants a few
timestamps of every node side by side, so that a pruned node costs
those and not ``l``; *finishing* a survivor wants that node's other
timestamps side by side. So each bound is cut along the timestamps:

* the **head** — every :data:`_HEAD_STRIDE`-th timestamp (0, 4, 8, ...:
  spread over the window, because neighbouring timestamps say nearly
  the same thing) — is a timestamp-major ``(h, n)`` matrix. The sweep
  over a frontier that is dense in id order reads ``h`` contiguous row
  slices, a zero-copy view (0.135–0.145 ms for the ``(25, 9,091)`` leaf
  level); a sparse frontier gathers its columns;
* the **tail** — the remaining ``l - h`` timestamps, ascending — is a
  node-major ``(n, l - h)`` matrix: finishing a survivor is one
  contiguous ≈ 300-byte row read per bound. From whole timestamp-major
  ``(l, n)`` matrices the same values sat in ``l - h`` different cache
  lines per survivor and bound — gathering 300 / 600 / 1,200 / 2,000
  survivors cost 183 / 416 / 777 / 1,136 µs there against 36 / 74 /
  236 / 481 µs from node-major rows.

Same elements, same float32 values, one copy: ``arrays()`` / ``thaw()``
assemble the whole ``(n, l)`` matrices back, bit for bit. Archives
store the parts as they are (see :data:`RAW_ARRAY_FIELDS`), and which
timestamps went where follows from the shapes. A prefix query of length
``m`` uses the timestamps below ``m``, which are a leading slice of both
parts. The constructor is the only code that cuts matrices, and
``_head_tail`` the only code that says how.

**The run layout** (:data:`RUN_ARRAY_FIELDS`). A bulk-loaded leaf
(:mod:`~repro.core.bulkload`) is a run of ``k = params.bulk_fill``
consecutive windows ``[s, s + k)``, so its envelope at timestamp ``t``
is entry ``s + t`` of the series' width-``k`` sliding max / min, and
rounding outward is monotone, so its float32 row is that of the rounded
extrema, bit for bit — the consecutive-offset envelope ULISSE (arXiv
2009.11648) builds. A bulk-built tree therefore keeps, per bound, one
flat float32 *pool*: the rounded sliding extrema over its source, then
the whole rows of every node that is not such a *full run* — internal
nodes and the one or two irregular last runs — in id order. Node
``i``'s whole row is ``pool[r : r + l]`` for ``r = pool_rows[i]`` (a
full run's ``r`` is its first window ``s``; the constructor derives
``pool_rows``), one row of a zero-copy sliding view, and a leaf's
positions are the run from ``leaf_starts``.
The heads stay for every node. Finishing a survivor is then a fancy row
gather from that view, compared over all ``m`` timestamps (the head
ones again, harmlessly): ≈ 15–30 % more per surviving node than a
stored tail row (a leaf tail pass of 300 / 1,500 leaves of a
200,000-window, ``l = 100`` tree: 37 → 42 / 172 → 224 µs, 2-core box;
``np.take`` on the view would copy the whole view, and a gather through
an index array took 120 / 580 µs), for a tree of 20.8 instead of 46.9
bytes per window (twinbench ``twin_sparse``). Per-window normalization
scales each window on its own, so no sliding rule holds; those trees, and
insertion-built ones (``TSIndex.freeze()``), whose leaves are not runs,
keep the stored head / tail layout and ``positions``. A tree's layout
is fixed by its input (``leaf_starts`` given or not) and every method
branches on it once, never per node.

**One tree format.** :data:`ARRAY_FIELDS` — BFS, root first, CSR
offsets — is how every TS-Index tree is held as arrays, pointer trees
included: :func:`flatten` is the one walk from ``_Node`` objects to
those arrays (float64 envelopes, the tree's own rows), :func:`unflatten`
the one way back, and :func:`check_structure` the one test that arrays
describe a tree. Freezing rounds and cuts what :func:`flatten` returns,
pointer-tree archives store it as it is, and :meth:`FrozenTSIndex.thaw`
and the pointer-tree archive reader both rebuild through
:func:`unflatten`. Layouts of older archives, including their stored
``children`` list, are converted before they reach this module
(:mod:`repro.persistence.serializer`).

``search`` returns **exactly** what the pointer tree's Algorithm 1
traversal returns — same positions, same distances — enforced by the
randomized equivalence suite in ``tests/test_frozen.py`` and the
oracle property in ``tests/test_frozen_float32.py``; its structural
counters equal the pointer tree's too, except that a node whose exact
bound clears ``ε`` by less than the float32 rounding step is visited
rather than pruned. ``knn`` / ``exists`` / ``search_batch`` /
``search_varlength`` exist here only (the pointer tree answers them
through its :meth:`~repro.core.tsindex.TSIndex.freeze` snapshot), and
the same suites hold them to brute-force Chebyshev scans. All of them
ride that one level walk: ``search_batch`` walks its queries together,
``exists`` is whether ``search`` finds a twin, and ``knn`` a ``search``
at a seeded radius (the ``k``-th distance under a greedy descent's
leaves), ranked.

**Joined trees.** :func:`join` lays several trees out as one: a
synthetic root whose envelope covers the trees' roots, over each tree's
level ``d`` at level ``d + 1``, in tree order. One walk and one
verification then answer for all the trees; the live plane joins its
sealed segments this way (:class:`repro.live.LiveTwinIndex`), and the
sharded plane its shards for a calling-thread query. Trees in the run
layout join in it, as their own memory: the forest's sliding extrema
are the trees', copied to their offsets (where two trees' spans
overlap, their entries are equal), never re-reduced from the source,
so the forest, like its trees, holds about half the bytes a stored
layout would.

Lifecycle: either **insert** into the dynamic tree and **freeze** it
once writes stop, or **bulk load** (:mod:`~repro.core.bulkload`), which
writes these arrays directly; then **serve** queries from the flat form
(a frozen index is immutable; to add windows, :meth:`~FrozenTSIndex.thaw`
it or build anew). The serving layer's shards
(:class:`repro.engine.ShardedTSIndex`) and the live plane's segments
are bulk loads, and :mod:`repro.persistence` round-trips the arrays
natively, so loading a frozen archive is pure array reads.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import time
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    check_non_negative,
    check_positive_int,
)
from ..exceptions import InvalidParameterError
from ..query.registration import register_plane
from ..query.spec import normalize_exclude, prepare_values
from ..query.varlength import (
    is_prefix_query,
    merge_exists_stats,
    prefix_search_with_tail,
)
from .batch import BatchResult
from .mbts import ENVELOPE_DTYPE, MBTS, round_down_f32, round_up_f32
from .stats import BuildStats, QueryStats, SearchResult
from .verification import check_mode, exact_distances, guarded_bounds, verify
from .windows import WindowSource

if TYPE_CHECKING:  # runtime import would be circular; tsindex imports us
    from .tsindex import TSIndex, TSIndexParams, _Node

#: Every ``_HEAD_STRIDE``-th timestamp (0, 4, 8, ...) of an envelope is
#: held in the timestamp-major *head*; the others, ascending, in the
#: node-major *tail* (see the module docstring). Not a setting: strides
#: 3-8 measured flat on a 9,091-node level, and raw archives are read
#: back with the stride they were written with.
_HEAD_STRIDE = 4

#: A frontier covering at least ``1 / _SPAN_FACTOR`` of its id span
#: takes its head pass over the zero-copy span view; a sparser one
#: gathers its own columns (:meth:`FrozenTSIndex._level_keep`). The
#: view costs the span, the gather the ids: on a 9,091-id span the view
#: pass takes 90–125 µs at any density, the ``np.take`` pass 582 µs at
#: 1×, 232 at 2×, 162 at 5×, 102 at 8×, 71 at 12×, 37 at 20× (fancy
#: indexing 836 ... 43) — break-even near 8× with hot caches. In
#: process (twinbench seeds 1–2, 400 queries, 200,000 windows, mean
#: filter stage in ms, sparse / dense, settings interleaved per query):
#: 1× 0.77–0.79 / 1.18–1.19, 2× 0.55 / 0.94–0.97, 3× 0.53 / 0.93–0.96,
#: 5× 0.53 / 0.94–0.97, 8× 0.53 / 0.93–0.97, 12× 0.53–0.54 / 0.93–0.96,
#: always the view 0.53–0.54 / 0.93–0.96 — flat from 3× up, because
#: only 18–20 % of sparse leaf-level frontiers (7.5–9 % of dense) are
#: sparser than 2× and 4–6.5 % (2–3 %) sparser than 5×. The 2× rule
#: this replaces sent that fifth to the gather. 5 sits on the flat part
#: and below the break-even; what it guards against is a handful of
#: ids spanning a level far wider than these.
_SPAN_FACTOR = 5

#: Children kept per level by :meth:`FrozenTSIndex._seed_leaves`, the
#: descent that seeds :meth:`FrozenTSIndex.knn`'s radius: wider reads
#: more windows for a tighter radius, and the best width grows with the
#: index. Twinbench seed 1 on a 2-core box, 100 queries × 2, widths
#: interleaved per query, median ms for k = 10 / k = 1 beside a ±50
#: exclusion zone, on a 30,000-window engine_mix shard: 4 → 1.69 / 1.35, 8 → 1.43 / 1.27,
#: 12 → 1.51 / 1.34, 16 → 1.64 / 1.42, 32 → 2.03 / 1.87; on the
#: 200,000-window twin_sparse index: 4 → 15.5 / 9.2, 8 → 7.1 / 5.2,
#: 12 → 6.1 / 4.3, 16 → 5.3 / 4.2, 32 → 5.0 / 4.2. 16 is within 15 %
#: of the best on both. Answers do not depend on it.
_SEED_WIDTH = 16

#: Names of the flat arrays a frozen index is made of (the serializer
#: round-trips exactly this set).
ARRAY_FIELDS = (
    "uppers",
    "lowers",
    "kinds",
    "children_offsets",
    "leaf_offsets",
    "positions",
)

#: The same arrays with the envelopes in their *resident* layout: per
#: bound a timestamp-major ``(h, n)`` head and a node-major
#: ``(n, l - h)`` tail, ``h = ceil(l / _HEAD_STRIDE)``. Archives stored
#: this way load zero-copy: :class:`FrozenTSIndex` adopts the matrices
#: as they are (memmap views included) instead of re-laying ``(n, l)``
#: input out into fresh private memory.
RAW_ARRAY_FIELDS = (
    "uppers_head",
    "uppers_tail",
    "lowers_head",
    "lowers_tail",
    "kinds",
    "children_offsets",
    "leaf_offsets",
    "positions",
)

#: The arrays of a tree in the *run layout* (bulk-built trees and their
#: joins; see the module docstring): the same heads, and per bound a
#: flat float32 *pool* — the width-``k`` sliding extrema, then the
#: whole rows of the nodes that are not full runs — with each leaf's
#: first position (``leaf_starts``) in place of ``positions``. Adopted
#: zero-copy like :data:`RAW_ARRAY_FIELDS`. Each node's row start in
#: the pool (``pool_rows``) follows from them, so the constructor
#: derives it and archives do not store it.
RUN_ARRAY_FIELDS = (
    "uppers_head",
    "uppers_pool",
    "lowers_head",
    "lowers_pool",
    "kinds",
    "children_offsets",
    "leaf_offsets",
    "leaf_starts",
)


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's own handle — and its
    write flag — is never touched)."""
    view = array.view()
    view.setflags(write=False)
    return view


def _thresholds(
    query: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestamp float32 bounds ``(lo, hi)`` such that an envelope
    ``(U, L)`` can hold a twin of ``query`` at ``epsilon`` only if
    ``U >= lo`` and ``L <= hi`` everywhere: the refine kernel's
    :func:`~repro.core.verification.guarded_bounds`, rounded outward.
    Works elementwise, so a ``(q, l)`` query matrix gives matrices."""
    lo, hi = guarded_bounds(query, epsilon)
    return round_down_f32(lo), round_up_f32(hi)


@functools.lru_cache(maxsize=64)
def _tail_mask(length: int) -> np.ndarray:
    """Boolean mask over timestamps ``0 .. length``: the ones *not*
    sampled into the head (one read-only array per length)."""
    return _read_only(np.arange(length) % _HEAD_STRIDE != 0)


def _head_tail(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the last axis — timestamps ``0 .. m`` of a query, a
    threshold vector or an ``(n, m)`` envelope matrix, batches included
    — into its head part (a strided view) and its tail part. Both keep
    ascending order, so the parts of a length-``m`` prefix are leading
    slices of the parts of the full length."""
    return values[..., ::_HEAD_STRIDE], values[..., _tail_mask(values.shape[-1])]


def _whole(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The whole ``(n, l)`` rows of a ``(h, n)`` head and an
    ``(n, l - h)`` tail, bit for bit."""
    length = head.shape[0] + tail.shape[1]
    matrix = np.empty((tail.shape[0], length), ENVELOPE_DTYPE)
    matrix[:, ::_HEAD_STRIDE] = head.T
    matrix[:, _tail_mask(length)] = tail
    return matrix


def _part_bound(
    query: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> np.ndarray:
    """Clamped Eq. 2 bound over one part: ``max(q - U, L - q, 0)`` along
    the last axis (0 for an empty part), broadcasting."""
    return np.maximum(query - upper, lower - query).max(axis=-1, initial=0.0)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, s + c) for s, c in zip(starts, counts)]``
    without a Python loop (the standard cumsum run-expansion trick)."""
    nonzero = counts > 0
    if not nonzero.all():
        starts = starts[nonzero]
        counts = counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    run_starts = np.cumsum(counts[:-1])
    steps[run_starts] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return np.cumsum(steps)


def flatten(root: _Node | None, length: int) -> dict[str, np.ndarray]:
    """The :data:`ARRAY_FIELDS` of a ``_Node`` tree (``None`` for no
    nodes): a breadth-first walk, root = id 0, with the envelopes as the
    tree's own float64 rows, bit for bit."""
    if root is None:
        return {
            "uppers": np.empty((0, length), dtype=FLOAT_DTYPE),
            "lowers": np.empty((0, length), dtype=FLOAT_DTYPE),
            "kinds": np.empty(0, dtype=np.int8),
            "children_offsets": np.zeros(1, dtype=np.int64),
            "leaf_offsets": np.zeros(1, dtype=np.int64),
            "positions": np.empty(0, dtype=POSITION_DTYPE),
        }
    order = [root]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        if not node.is_leaf:
            order.extend(node.children)

    # One array construction per matrix; ``np.array`` over the row list
    # is four times faster here than ``np.stack``, which wraps every
    # row first.
    n = len(order)
    kinds = np.fromiter(
        (node.positions is not None for node in order), dtype=np.int8, count=n
    )
    members = [
        node.children if node.positions is None else node.positions
        for node in order
    ]
    counts = np.fromiter(map(len, members), dtype=np.int64, count=n)
    children_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(kinds == 0, counts, 0), out=children_offsets[1:])
    leaf_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(kinds == 1, counts, 0), out=leaf_offsets[1:])
    return {
        "uppers": np.array([node.mbts.upper for node in order]),
        "lowers": np.array([node.mbts.lower for node in order]),
        "kinds": kinds,
        # The walk above appended every node's children in one run, so
        # child slot ``j`` is node ``j + 1``.
        "children_offsets": children_offsets,
        "leaf_offsets": leaf_offsets,
        "positions": np.fromiter(
            itertools.chain.from_iterable(
                itertools.compress(members, kinds.tolist())
            ),
            dtype=POSITION_DTYPE,
            count=int(leaf_offsets[-1]),
        ),
    }


def unflatten(arrays: Mapping[str, np.ndarray]) -> _Node | None:
    """The ``_Node`` tree of :data:`ARRAY_FIELDS` arrays (``None`` for no
    nodes) — the inverse of :func:`flatten`. Every envelope row becomes a
    float64 :class:`~repro.core.mbts.MBTS` copy: a float64 row bit for
    bit, a float32 one widened exactly."""
    from .tsindex import _Node  # local: tsindex imports us

    uppers, lowers = arrays["uppers"], arrays["lowers"]
    positions = arrays["positions"]
    kinds = arrays["kinds"].tolist()
    leaf_offsets = arrays["leaf_offsets"].tolist()
    children_offsets = arrays["children_offsets"].tolist()
    nodes = [
        _Node(
            MBTS(uppers[i], lowers[i]),
            positions=positions[leaf_offsets[i] : leaf_offsets[i + 1]].tolist(),
        )
        if kind
        else _Node(MBTS(uppers[i], lowers[i]), children=[])
        for i, kind in enumerate(kinds)
    ]
    for i, kind in enumerate(kinds):
        if not kind:
            nodes[i].children = nodes[
                children_offsets[i] + 1 : children_offsets[i + 1] + 1
            ]
    return nodes[0] if nodes else None


def check_structure(arrays: Mapping[str, np.ndarray], count: int) -> None:
    """Refuse tree arrays (any layout's ``kinds`` / ``children_offsets``
    / ``leaf_offsets`` and its ``positions`` or, in the run layout,
    ``leaf_starts``) that are not one BFS tree over windows
    ``0 .. count``, with :class:`~repro.exceptions.InvalidParameterError`:
    a corrupted or hand-built archive must fail loudly here, not return
    silently wrong answers later."""
    kinds = arrays["kinds"]
    children_offsets = arrays["children_offsets"]
    leaf_offsets = arrays["leaf_offsets"]
    positions = arrays.get("positions")
    n = kinds.size
    # One root: every other node takes one child slot. A run-layout
    # tree's leaves name no stored positions, so only a stored layout's
    # leaf offsets must count its ``positions``.
    for name, offsets, members, what in (
        ("children_offsets", children_offsets, max(n - 1, 0), "the non-root nodes"),
        (
            "leaf_offsets",
            leaf_offsets,
            None if positions is None else positions.size,
            "len(positions)",
        ),
    ):
        if offsets.shape != (n + 1,):
            raise InvalidParameterError(
                f"{name} must have {n + 1} entries, got {offsets.size}"
            )
        if members is not None and int(offsets[-1]) != members:
            raise InvalidParameterError(
                f"{name}[-1] must count {what}, got "
                f"{int(offsets[-1])} vs {members}"
            )
        if int(offsets[0]) != 0 or np.any(np.diff(offsets) < 0):
            raise InvalidParameterError(
                f"{name} must start at 0 and be non-decreasing"
            )
    if positions is None:
        starts = arrays["leaf_starts"]
        if starts.shape != (n,):
            raise InvalidParameterError(
                f"leaf_starts must have {n} entries, got {starts.size}"
            )
        leaves = kinds == 1
        first, stop = starts[leaves], starts[leaves] + np.diff(leaf_offsets)[leaves]
        if first.size and (int(first.min()) < 0 or int(stop.max()) > count):
            raise InvalidParameterError(
                f"leaf runs must lie in [0, {count}), got range "
                f"[{int(first.min())}, {int(stop.max())})"
            )
    elif positions.size and (
        int(positions.min()) < 0 or int(positions.max()) >= count
    ):
        raise InvalidParameterError(
            f"positions must lie in [0, {count}), got range "
            f"[{int(positions.min())}, {int(positions.max())}]"
        )
    # The layout is BFS, root first: child slot ``j`` is node ``j + 1``,
    # so node ``j`` must sit in a slot of an earlier node — the nodes
    # before it hold at least ``j`` slots. Every node's children, and
    # every level, is then one contiguous id range, and the walk can
    # step from level to level by child counts alone.
    if np.any(children_offsets[1:n] < np.arange(1, n)):
        raise InvalidParameterError(
            "every node but the root must be the child of an earlier node"
        )
    if np.any(np.diff(children_offsets)[kinds == 1]):
        raise InvalidParameterError("leaf nodes must have no children")


def _row_view(pool: np.ndarray, length: int) -> np.ndarray:
    """The ``(·, length)`` zero-copy view of every ``length`` consecutive
    entries of a pool: row ``r`` is ``pool[r : r + length]``."""
    if pool.size < length:
        return np.empty((0, length), dtype=pool.dtype)
    return np.lib.stride_tricks.sliding_window_view(pool, length)


class FrozenTSIndex:
    """An immutable, array-backed TS-Index answering the read-only query
    surface (``search`` / ``knn`` / ``exists`` / ``search_batch``).

    Create one with :meth:`TSIndex.freeze()
    <repro.core.tsindex.TSIndex.freeze>` or
    :func:`~repro.core.bulkload.bulk_load`; convert back with
    :meth:`thaw` when the tree must grow again.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import TSIndex
    >>> rng = np.random.default_rng(7)
    >>> series = np.cumsum(rng.normal(size=2000))
    >>> index = TSIndex.build(series, length=50, normalization="none")
    >>> frozen = index.freeze()
    >>> result = frozen.search(series[100:150], epsilon=0.5)
    >>> 100 in result.positions
    True
    """

    method_name = "frozen"

    __slots__ = (
        "_source",
        "_params",
        "_build_stats",
        "_freeze_seconds",
        "_upper_head",
        "_lower_head",
        "_upper_tail",
        "_lower_tail",
        "_positions",
        "_upper_pool",
        "_lower_pool",
        "_upper_rows",
        "_lower_rows",
        "_pool_rows",
        "_leaf_starts",
        "_slide_size",
        "_kinds",
        "_children_offsets",
        "_leaf_offsets",
        "_levels",
        "_root_rows",
    )

    def __init__(
        self,
        source: WindowSource,
        params: TSIndexParams,
        build_stats: BuildStats,
        arrays: dict,
        *,
        freeze_seconds: float = 0.0,
    ):
        self._source = source
        self._params = params
        self._build_stats = build_stats
        self._freeze_seconds = float(freeze_seconds)

        # A tree whose leaves are named by ``leaf_starts`` is held in
        # the run layout, any other in the stored one (module docstring).
        run = "leaf_starts" in arrays
        structure = {
            name: np.ascontiguousarray(arrays[name], dtype=dtype)
            for name, dtype in (
                ("kinds", np.int8),
                ("children_offsets", np.int64),
                ("leaf_offsets", np.int64),
                ("leaf_starts" if run else "positions", POSITION_DTYPE),
            )
        }
        kinds = structure["kinds"]
        n = kinds.size
        length = source.length
        check_structure(structure, source.count)
        if run:
            # Full-run leaves read the sliding extrema; every other node
            # keeps a whole row after them, in id order.
            counts = np.diff(structure["leaf_offsets"])
            full = (kinds == 1) & (counts == params.bulk_fill)
            stored = np.flatnonzero(~full)

        # Envelopes arrive in a resident layout (raw archives,
        # ``raw_arrays``: adopted as they are — for a contiguous float32
        # memmap that is zero-copy, which is what makes mmap cold starts
        # O(1) in the envelope size) or as whole ``(n, l)`` matrices
        # (``flatten``, the bulk loader, ``.npz`` and pointer-tree
        # archives, ``arrays``), which are cut here, once — in the run
        # layout, beside the sliding extrema they come with. Float64
        # input is rounded outward on the same occasion. One bound at a
        # time: the rounded whole matrix of the first is released before
        # the second's exists.
        parts = []
        for name, rounded in (("uppers", round_up_f32), ("lowers", round_down_f32)):
            if f"{name}_head" in arrays:
                head = rounded(arrays[f"{name}_head"])
                rest = rounded(arrays[f"{name}_pool" if run else f"{name}_tail"])
            elif run:
                whole = arrays[name]
                head = rounded(whole[:, ::_HEAD_STRIDE]).T
                rest = np.concatenate(
                    [rounded(arrays[f"{name}_slide"]), rounded(whole[stored]).ravel()]
                )
            else:
                head, rest = _head_tail(rounded(arrays[name]))
                head = head.T
            parts += [np.ascontiguousarray(head), np.ascontiguousarray(rest)]
        upper_head, upper_rest, lower_head, lower_rest = parts

        # The sampled timestamps follow from the shapes alone, so an
        # archive needs no record of them.
        head = -(-length // _HEAD_STRIDE)
        if run:
            shapes = ((head, n), (upper_rest.size,))
            want = f"a {shapes[0]} head and one pool"
        else:
            shapes = ((head, n), (n, length - head))
            want = f"a {shapes[0]} head and a {shapes[1]} tail"
        if (upper_head.shape, upper_rest.shape) != shapes or (
            lower_head.shape,
            lower_rest.shape,
        ) != shapes:
            raise InvalidParameterError(
                f"envelope matrices must cover ({n}, {length}) as {want}, "
                f"got {upper_head.shape} + {upper_rest.shape} and "
                f"{lower_head.shape} + {lower_rest.shape}"
            )

        # The whole point of freezing is immutability; every stored
        # handle is a read-only view, so accidental writes are loud —
        # without ever flipping the write flag on caller-owned arrays.
        self._kinds = _read_only(kinds)
        self._children_offsets = _read_only(structure["children_offsets"])
        self._leaf_offsets = _read_only(structure["leaf_offsets"])
        # Each bound is held once, in two parts (see the module
        # docstring): the sweep over a frontier reads the head, one
        # contiguous row per sampled timestamp, and a node that
        # survives it is finished from its own contiguous row.
        self._upper_head = _read_only(upper_head)
        self._lower_head = _read_only(lower_head)
        self._upper_tail = self._lower_tail = self._positions = None
        self._upper_pool = self._lower_pool = self._upper_rows = self._lower_rows = None
        self._pool_rows = self._leaf_starts = None
        self._slide_size = 0
        if run:
            slide = upper_rest.size - length * stored.size
            starts = structure["leaf_starts"]
            pool_rows = starts.copy()
            pool_rows[stored] = slide + length * np.arange(stored.size)
            if slide < 0 or np.any(starts[full] + length > slide):
                raise InvalidParameterError(
                    f"envelope pools of {upper_rest.size} entries cannot "
                    f"hold {stored.size} rows of {length} after sliding "
                    "extrema covering every full-run leaf"
                )
            if "pool_rows" in arrays and not np.array_equal(arrays["pool_rows"], pool_rows):
                raise InvalidParameterError(
                    "pool_rows must start the sliding extrema's row of every "
                    "full-run leaf and the stored rows of the other nodes, "
                    "in id order, after them (it is derived; pass none)"
                )
            self._upper_pool = _read_only(upper_rest)
            self._lower_pool = _read_only(lower_rest)
            self._upper_rows = _row_view(self._upper_pool, length)
            self._lower_rows = _row_view(self._lower_pool, length)
            self._pool_rows = _read_only(pool_rows)
            self._leaf_starts = _read_only(starts)
            self._slide_size = slide
            # The root's whole ``(1, l)`` rows (none when empty) are a
            # pool row each: views, no copy.
            root = int(pool_rows[0]) if n else 0
            self._root_rows = tuple(
                rows[root : root + min(n, 1)]
                for rows in (self._upper_rows, self._lower_rows)
            )
        else:
            self._upper_tail = _read_only(upper_rest)
            self._lower_tail = _read_only(lower_rest)
            self._positions = _read_only(structure["positions"])
            # The root's whole ``(1, l)`` rows (none when empty), copied
            # once: the float64 root check reads them on every query,
            # where reading them from the head and tail parts cost
            # ≈ 10–15 µs more (twinbench live_ingest seed 1's data,
            # 2-core box).
            self._root_rows = tuple(
                _read_only(_whole(head[:, :1], tail[:1]))
                for head, tail in ((upper_head, upper_rest), (lower_head, lower_rest))
            )
        # The level table: ``(start, stop, leaves)`` per depth, the
        # root first. A level's children are the next level, and the
        # slots of the nodes before ``stop`` name the nodes up to the
        # end of that next level.
        levels = []
        start, stop = 0, min(n, 1)
        while start < stop:
            levels.append((start, stop, int(np.count_nonzero(kinds[start:stop]))))
            start, stop = stop, int(self._children_offsets[stop]) + 1
        self._levels = tuple(levels)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tree(
        cls,
        source: WindowSource,
        root: _Node | None,
        params: TSIndexParams,
        build_stats: BuildStats,
    ) -> "FrozenTSIndex":
        """Freeze a dynamic ``_Node`` tree: its :func:`flatten` arrays,
        rounded and cut.

        ``build_stats`` is adopted, with ``windows`` / ``nodes`` /
        ``height`` set to what is flattened (``insert`` keeps none)."""
        started = time.perf_counter()
        arrays = flatten(root, source.length)
        frozen = cls(
            source,
            params,
            build_stats,
            arrays,
            freeze_seconds=time.perf_counter() - started,
        )
        build_stats.windows = int(arrays["positions"].size)
        build_stats.nodes = frozen.node_count
        build_stats.height = frozen.height
        return frozen

    @classmethod
    def from_arrays(
        cls,
        source: WindowSource,
        params: TSIndexParams,
        build_stats: BuildStats,
        arrays: dict,
    ) -> "FrozenTSIndex":
        """Wrap previously flattened arrays (the persistence fast path:
        loading a frozen archive is array reads, no re-insertion)."""
        return cls(source, params, build_stats, arrays)

    def freeze(self) -> "FrozenTSIndex":
        """This index (it is frozen already)."""
        return self

    def thaw(self) -> TSIndex:
        """Reconstruct a dynamic :class:`~repro.core.tsindex.TSIndex`
        (for further insertion; positions and distances of queries on
        the result match exactly).

        Its node envelopes are the stored float32 ones widened to
        float64 — covers of the exact envelopes, less than one float32
        step looser — so inserting keeps them valid, and freezing the
        result again reproduces these arrays bit for bit."""
        from .tsindex import TSIndex  # local: tsindex imports us

        return TSIndex._from_prebuilt_root(
            self._source,
            unflatten(self.arrays()),
            self._params,
            dataclasses.replace(self._build_stats),
        )

    def arrays(self) -> dict:
        """The flat arrays, envelopes as whole ``(n, l)`` matrices and
        every leaf's positions listed (read-only; see
        :data:`ARRAY_FIELDS`). They are assembled from the resident
        parts per call — the ``thaw`` form and a layout-independent
        digest, not a query path."""
        if self._pool_rows is not None:
            return {
                "uppers": _read_only(self._upper_rows[self._pool_rows]),
                "lowers": _read_only(self._lower_rows[self._pool_rows]),
                "kinds": self._kinds,
                "children_offsets": self._children_offsets,
                "leaf_offsets": self._leaf_offsets,
                "positions": _read_only(
                    self._leaf_positions(np.flatnonzero(self._kinds))
                ),
            }
        raw = self.raw_arrays()
        matrices = {
            name: _read_only(_whole(raw.pop(f"{name}_head"), raw.pop(f"{name}_tail")))
            for name in ("uppers", "lowers")
        }
        return {**matrices, **raw}

    def raw_arrays(self) -> dict:
        """Every array the index holds, as it holds them: the envelopes
        in their resident layout (:data:`RAW_ARRAY_FIELDS`, or
        :data:`RUN_ARRAY_FIELDS` and the derived ``pool_rows`` for a
        tree in the run layout) — the footprint the index occupies, and
        the zero-copy serialization form: nothing is re-laid-out on
        save, and :meth:`from_arrays` adopts them (memmaps included)
        without copying on load. (The one other array is the root's
        whole rows, a ``(1, l)`` copy per bound in the stored layout.)"""
        structure = {
            "kinds": self._kinds,
            "children_offsets": self._children_offsets,
            "leaf_offsets": self._leaf_offsets,
        }
        if self._pool_rows is not None:
            return {
                "uppers_head": self._upper_head,
                "uppers_pool": self._upper_pool,
                "lowers_head": self._lower_head,
                "lowers_pool": self._lower_pool,
                **structure,
                "leaf_starts": self._leaf_starts,
                "pool_rows": self._pool_rows,
            }
        return {
            "uppers_head": self._upper_head,
            "uppers_tail": self._upper_tail,
            "lowers_head": self._lower_head,
            "lowers_tail": self._lower_tail,
            **structure,
            "positions": self._positions,
        }

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The window source this index was built over."""
        return self._source

    @property
    def params(self) -> TSIndexParams:
        """Construction parameters of the tree that was frozen."""
        return self._params

    @property
    def build_stats(self) -> BuildStats:
        """Build counters carried over from the dynamic tree."""
        return self._build_stats

    @property
    def freeze_seconds(self) -> float:
        """Wall-clock cost of the freeze itself (0.0 when loaded)."""
        return self._freeze_seconds

    @property
    def length(self) -> int:
        """Indexed window length ``l``."""
        return self._source.length

    @property
    def size(self) -> int:
        """Number of indexed windows."""
        return self._source.count

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return int(self._kinds.size)

    @property
    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return int(np.count_nonzero(self._kinds))

    @property
    def height(self) -> int:
        """Tree height in levels (a lone leaf root has height 1; a
        :func:`join` of trees is one taller than its tallest tree)."""
        return len(self._levels)

    def __repr__(self) -> str:
        return (
            f"FrozenTSIndex(windows={self.size}, length={self.length}, "
            f"height={self.height}, nodes={self.node_count})"
        )

    # ------------------------------------------------------------------
    # Vectorized primitives over the flat arrays
    # ------------------------------------------------------------------
    def _parts(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A query's or a threshold vector's timestamps ``0 .. m`` (the
        last axis) as the two phases of the bound check read them: the
        head part (:func:`_head_tail`), and the part a surviving node's
        row is compared with — the tail part, or in the run layout,
        whose pool rows are whole, all ``m`` (the head timestamps are
        checked again, harmlessly)."""
        if self._pool_rows is not None:
            return values[..., ::_HEAD_STRIDE], values
        return _head_tail(values)

    def _node_bound(self, query: np.ndarray, ids: slice | np.ndarray) -> np.ndarray:
        """(Clamped) Eq. 2 bound in float64 (the float32 values are
        promoted) of ``query`` against each node of ``ids`` (an id array
        or a contiguous range), over the query's own ``m`` timestamps:
        leading slices of the node's head column and tail row, or of its
        whole pool row. The k-NN seed ranks by it."""
        if self._pool_rows is not None:
            rows = self._pool_rows[ids]
            width = query.shape[-1]
            return _part_bound(
                query,
                self._upper_rows[rows][:, :width],
                self._lower_rows[rows][:, :width],
            )
        head, tail = _head_tail(query)
        rows, width = head.shape[-1], tail.shape[-1]
        return np.maximum(
            _part_bound(
                head,
                self._upper_head[:rows, ids].T,
                self._lower_head[:rows, ids].T,
            ),
            _part_bound(
                tail,
                self._upper_tail[ids, :width],
                self._lower_tail[ids, :width],
            ),
        )

    def _tail_keep(
        self, ids: np.ndarray, lo_tail: np.ndarray, hi_tail: np.ndarray
    ) -> np.ndarray:
        """Second phase of the bound check: which of ``ids`` (survivors
        of a head pass) also hold ``U >= lo`` and ``L <= hi`` at the
        timestamps of ``lo_tail`` / ``hi_tail`` — :meth:`_parts`' second
        part of one threshold vector each. One contiguous row read per
        node and bound: its stored tail row, or in the run layout a
        fancy row gather from the pool's sliding view (``np.take`` on
        that view would copy the whole view)."""
        width = lo_tail.shape[-1]
        if self._pool_rows is not None:
            rows = self._pool_rows[ids]
            upper, lower = self._upper_rows[rows], self._lower_rows[rows]
        else:
            upper = np.take(self._upper_tail, ids, axis=0)
            lower = np.take(self._lower_tail, ids, axis=0)
        inside = upper[:, :width] >= lo_tail
        inside &= lower[:, :width] <= hi_tail
        return inside.all(axis=1)

    def _head_keep(
        self, lo_head: np.ndarray, hi_head: np.ndarray, picked: slice | np.ndarray
    ) -> np.ndarray:
        """First phase of the bound check: which nodes — an id range
        (zero-copy column views) or ascending ids (gathered columns) —
        hold ``U >= lo`` and ``L <= hi`` at the head timestamps."""
        rows = lo_head.size
        if isinstance(picked, slice):
            upper = self._upper_head[:rows, picked]
            lower = self._lower_head[:rows, picked]
        else:
            upper = np.take(self._upper_head[:rows], picked, axis=1)
            lower = np.take(self._lower_head[:rows], picked, axis=1)
        inside = upper >= lo_head[:, None]
        inside &= lower <= hi_head[:, None]
        return inside.all(axis=0)

    def _level_keep(
        self,
        lo: tuple[np.ndarray, np.ndarray],
        hi: tuple[np.ndarray, np.ndarray],
        visit: np.ndarray,
        count: int,
        base: int,
    ) -> np.ndarray:
        """The bound check of one level's frontier, given as a mask
        ``visit`` (``count`` nodes, at least one) over the level's ids
        from ``base`` on: the offsets (into the level) of the visited
        nodes that hold ``U >= lo`` and ``L <= hi`` at every timestamp,
        ``lo`` / ``hi`` being the :meth:`_parts` of one
        query's :func:`_thresholds` — two float32 compares and an ``&``
        per element, no arithmetic temporaries, in two phases.

        The head pass (:meth:`_head_keep`) covers the whole frontier at
        the sampled timestamps, which spread over the window
        (neighbouring timestamps say nearly the same thing), so a pruned
        node — usually almost every node — costs a quarter of its
        timestamps. It views the span between the first and the last
        visited node (the gap columns are evaluated too, harmlessly), or
        gathers the visited columns when that span is sparse
        (:data:`_SPAN_FACTOR`). The survivors are finished by
        :meth:`_tail_keep`. A prefix query of length ``m`` carries
        shorter parts, and both phases run over the matching leading
        slices."""
        (lo_head, lo_tail), (hi_head, hi_tail) = lo, hi
        first = int(visit.argmax())
        stop = visit.size - int(visit[::-1].argmax())
        if stop - first <= _SPAN_FACTOR * count:
            keep = self._head_keep(
                lo_head, hi_head, slice(base + first, base + stop)
            )
            keep &= visit[first:stop]
            alive = np.flatnonzero(keep) + first
        else:
            alive = np.flatnonzero(visit)
            alive = alive[self._head_keep(lo_head, hi_head, alive + base)]
        return alive[self._tail_keep(alive + base, lo_tail, hi_tail)]

    def _children_of(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated child ids of every (internal) node in ``ids``,
        and how many each node contributed. Slot ``j`` is node
        ``j + 1``, so the slot ranges *are* the ids, shifted."""
        starts = self._children_offsets[ids]
        counts = self._children_offsets[ids + 1] - starts
        return _concat_ranges(starts + 1, counts), counts

    def _leaf_positions(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated positions of every leaf in ``ids``: stored, or
        in the run layout the runs from each leaf's first position."""
        starts = self._leaf_offsets[ids]
        counts = self._leaf_offsets[ids + 1] - starts
        if self._leaf_starts is not None:
            return _concat_ranges(self._leaf_starts[ids], counts)
        return self._positions[_concat_ranges(starts, counts)]

    # ------------------------------------------------------------------
    # Threshold search (Algorithm 1, level-synchronous)
    # ------------------------------------------------------------------
    def search(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twin subsequences of ``query`` within Chebyshev ``ε``.

        Same contract (and byte-identical positions and distances) as
        :meth:`TSIndex.search <repro.core.tsindex.TSIndex.search>`, but
        the traversal is level-synchronous: every level bounds the
        whole surviving frontier against the query in one two-phase
        pass (:meth:`_level_keep`) instead of one Python call per
        node. The structural counters equal the pointer tree's unless a
        node's exact bound clears ``epsilon`` by less than the float32
        rounding step of the stored envelopes (it is then visited).
        """
        if is_prefix_query(query, self._source.length):
            return self.search_varlength(
                query, epsilon, verification=verification
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        check_mode(verification)
        query = self._prepare_query(query)
        stats = QueryStats()
        (candidates,) = self._collect_candidates(query, epsilon, [stats])
        return verify(
            self._source, query, candidates, epsilon,
            mode=verification, stats=stats,
        )

    def count(self, query: npt.ArrayLike, epsilon: float) -> int:
        """Number of twins (convenience wrapper over :meth:`search`;
        shorter queries count their prefix twins, tail included)."""
        return len(self.search(query, epsilon))

    def search_varlength(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twins of a query of length ``m <= l`` (extension).

        Returns every position ``p`` in ``[0, n - m]`` with
        ``max_i |T[p + i] - Q_i| <= ε`` — *including* the ``l - m``
        tail positions the fixed-length index does not store, which a
        direct scan covers. The whole frontier bounds against the
        timestamps below ``m`` — leading slices of the envelope heads
        and tails — through the pruning kernel of :meth:`search`,
        unchanged (a node MBTS prefix is a valid envelope for the
        window prefixes beneath it, so pruning stays lossless);
        ``m == l`` delegates to :meth:`search` — identical positions,
        distances and counters. Exact in the raw and global regimes;
        per-window z-normalization rejects ``m < l`` with a typed error
        (see :func:`repro.query.spec.prepare_values`).
        """
        return prefix_search_with_tail(
            self, query, epsilon, verification=verification
        )

    def collect_varlength_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Unverified candidate positions for a (prepared) prefix query
        — the fan-out hook composite planes call per shard/segment.

        The level walk already evaluates bounds over the query's own
        length, so this is the fixed-length collection verbatim.
        """
        return self._collect_candidates(query, epsilon, [stats])[0]

    def _collect_candidates(
        self, queries: np.ndarray, epsilon: float, stats: list[QueryStats]
    ) -> list[np.ndarray]:
        """Algorithm 1's traversal, one level at a time, for a prepared
        query or every row of a ``(q, m)`` matrix of them: per row (a
        lone query is one), the unverified positions of every leaf whose
        envelope, and every ancestor's, is within ``ε`` of that query,
        in id order, with the row's counters added to ``stats[row]``. A
        query of length ``m < l`` bounds against the envelopes' first
        ``m`` timestamps (:meth:`collect_varlength_candidates`).

        The level table (``_levels``) names each level's id range, so a
        level is a mask, not a list of ids: the nodes a row visits on
        the next level are its alive mask repeated by each node's child
        count (a leaf has none), and one two-phase pass
        (:meth:`_level_keep`) bounds them. The root bounds, the
        thresholds and each level's child counts are computed once for
        all rows; each row then steps on its own offsets, so its
        candidates and counters are those of a walk of that query
        alone — and those of the node-by-node walk: a visited node
        counts once, a pruned one once more, and an alive leaf is an
        accessed leaf.
        """
        if self.node_count == 0:
            return [np.empty(0, dtype=POSITION_DTYPE) for _ in stats]

        lo, hi = _thresholds(queries, epsilon)
        # The float64 root check, one bound per query, over the root's
        # whole rows (a prefix query reads their leading slices). The
        # stored envelope covers the exact one and float64 subtraction
        # rounds monotonically, so for every window ``w`` the bound is
        # ``<= fl(|q - w|)`` at each timestamp — a lower bound of the
        # very number the verifier computes, with no guard needed.
        width = queries.shape[-1]
        upper, lower = (rows[:, :width] for rows in self._root_rows)
        near = _part_bound(queries[..., None, :], upper, lower) <= epsilon
        if queries.ndim == 1:
            # A lone query stays unstacked: ≈ 30 µs a search cheaper
            # than a one-row matrix (200,000 windows, interleaved).
            lo, hi, near = [lo], [hi], [near]
        walking = []
        for row, kept in enumerate(near):
            alive = np.flatnonzero(kept)
            stats[row].nodes_visited += 1
            stats[row].nodes_pruned += 1 - alive.size
            if alive.size:
                bounds = self._parts(lo[row]), self._parts(hi[row])
                walking.append((row, bounds, alive))
        leaves: list[list[np.ndarray]] = [[] for _ in stats]
        levels = self._levels
        for depth, (start, stop, leaf_count) in enumerate(levels):
            if leaf_count:
                for row, _, alive in walking:
                    ids = alive + start
                    if leaf_count < stop - start:
                        ids = ids[self._kinds[ids] == 1]
                    stats[row].leaves_accessed += int(ids.size)
                    leaves[row].append(ids)
            if depth + 1 == len(levels):
                break
            counts = np.diff(self._children_offsets[start : stop + 1])
            stepped = []
            for row, bounds, alive in walking:
                mask = np.zeros(stop - start, dtype=bool)
                mask[alive] = True
                visit = np.repeat(mask, counts)
                visited = int(np.count_nonzero(visit))
                if visited == 0:
                    continue
                alive = self._level_keep(*bounds, visit, visited, stop)
                stats[row].nodes_visited += visited
                stats[row].nodes_pruned += visited - int(alive.size)
                stepped.append((row, bounds, alive))
            walking = stepped

        return [
            self._leaf_positions(np.concatenate(ids))
            if ids
            else np.empty(0, dtype=POSITION_DTYPE)
            for ids in leaves
        ]

    # ------------------------------------------------------------------
    # Batched search: many queries share one level walk
    # ------------------------------------------------------------------
    def search_batch(
        self,
        queries: Iterable[npt.ArrayLike],
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> BatchResult:
        """Run every query of ``queries`` at ``epsilon`` in one pass.

        The queries share one level walk (:meth:`_collect_candidates`
        over the stacked queries): the root bounds, the thresholds and
        each level's child counts are computed once for the whole
        workload, and each query then steps through the levels on its
        own offsets and is verified on its own. Each returned
        :class:`SearchResult` (positions, distances *and* structural
        counters) is exactly what :meth:`search` returns for that query
        alone. Workloads holding any query shorter than ``l`` dispatch
        to the pipeline's per-query loop.
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        check_mode(verification)
        queries = list(queries)
        if any(
            is_prefix_query(query, self._source.length)
            for query in queries
        ):
            from ..query import QuerySpec, execute

            return execute(
                self,
                QuerySpec(
                    query=queries,
                    mode="batch",
                    epsilon=epsilon,
                    options={"verification": verification},
                ),
            )
        prepared = [self._prepare_query(query) for query in queries]
        stats = [QueryStats() for _ in prepared]
        matrix = np.array(prepared, dtype=FLOAT_DTYPE).reshape(-1, self.length)
        candidates = self._collect_candidates(matrix, epsilon, stats)
        results = [
            verify(
                self._source, query, found, epsilon,
                mode=verification, stats=query_stats,
            )
            for query, found, query_stats in zip(prepared, candidates, stats)
        ]
        from ..query.merge import batch_result

        return batch_result(results, epsilon)

    # ------------------------------------------------------------------
    # k-NN and existence: both ride the threshold walk
    # ------------------------------------------------------------------
    def knn(
        self, query: npt.ArrayLike, k: int, *, exclude: tuple[int, int] | None = None
    ) -> SearchResult:
        """The ``k`` windows nearest to ``query`` in Chebyshev distance,
        ties at the k-th distance broken by smallest position (the rank
        :class:`repro.engine.ShardedTSIndex`'s shard merge uses too).

        A :meth:`search` walk at a seeded radius ``ε₀``: the ``k``-th
        smallest exact distance among the eligible windows under the
        :meth:`_seed_leaves`. ``ε₀`` is the distance of ``k`` real
        windows, so every true neighbour, and every window tied with the
        ``k``-th, is a twin at ``ε₀``; the twins are ranked by
        ``(distance, position)`` and the first ``k`` kept. When the seed
        leaves hold fewer than ``k`` eligible windows (``k`` near the
        size, or ``exclude`` covering them), the answer is the planner's
        exact scan, :func:`~repro.query.planner.scan_knn`. The counters
        are the seed's (its leaves and windows) plus the walk's.

        ``exclude`` removes the half-open position range ``[a, b)`` —
        the *exclusion zone* matrix-profile style self joins use to skip
        a query's trivial matches with its own overlapping windows.
        Queries shorter than ``l`` dispatch to the pipeline's exact
        prefix scan (ranked by the same tie-break, tail included).
        """
        if is_prefix_query(query, self._source.length):
            from ..query import QuerySpec, execute

            spec = QuerySpec(query=query, mode="knn", k=k, exclude=exclude)
            return execute(self, spec)
        k = check_positive_int(k, name="k")
        prepared = self._prepare_query(query)
        exclude = normalize_exclude(exclude)
        stats = QueryStats()
        if self.node_count == 0:
            return SearchResult.empty(stats)

        def eligible(positions: np.ndarray) -> np.ndarray:
            if exclude is None:
                return positions
            return positions[(positions < exclude[0]) | (positions >= exclude[1])]

        leaves = self._seed_leaves(prepared)
        seed = eligible(self._leaf_positions(leaves))
        if seed.size < k:
            from ..query.planner import scan_knn  # lazy: planner imports core

            return scan_knn(self._source, query, k, exclude=exclude)
        stats.leaves_accessed = int(leaves.size)
        stats.candidates = stats.verified = int(seed.size)
        # The verifier's own exact pass, so the k windows the radius
        # comes from verify within it.
        distances = exact_distances(self._source, prepared, seed)
        epsilon = float(np.partition(distances, k - 1)[k - 1])
        (walked,) = self._collect_candidates(prepared, epsilon, [stats])
        candidates = eligible(walked)
        found = verify(self._source, prepared, candidates, epsilon, stats=stats)
        order = np.lexsort((found.positions, found.distances))[:k]
        stats.matches = int(order.size)
        return SearchResult(found.positions[order], found.distances[order], stats)

    def _seed_leaves(self, query: np.ndarray) -> np.ndarray:
        """The leaves a greedy descent toward ``query`` reaches: from
        the root down, the :data:`_SEED_WIDTH` children of smallest
        :meth:`_node_bound` are kept per level."""
        ids = np.zeros(1, dtype=np.int64)
        leaves: list[np.ndarray] = []
        while ids.size:
            is_leaf = self._kinds[ids] == 1
            leaves.append(ids[is_leaf])
            ids = self._children_of(ids[~is_leaf])[0]
            if ids.size > _SEED_WIDTH:
                ids = ids[np.argsort(self._node_bound(query, ids), kind="stable")[:_SEED_WIDTH]]
        return np.concatenate(leaves)

    def exists(
        self, query: npt.ArrayLike, epsilon: float, *, stats: QueryStats | None = None
    ) -> bool:
        """Whether *any* twin exists (extension): whether :meth:`search`
        returns one, queries shorter than ``l`` included. Pass a
        :class:`QueryStats` to receive that search's counters."""
        result = self.search(query, epsilon)
        merge_exists_stats(stats, result)
        return len(result) > 0

    # ------------------------------------------------------------------
    def _prepare_query(self, query: npt.ArrayLike) -> np.ndarray:
        return prepare_values(
            self._source, query, expected=self._source.length
        )


def join(
    trees: Sequence[FrozenTSIndex], starts: Sequence[int], source: WindowSource
) -> FrozenTSIndex:
    """One tree over ``trees`` (at least one, not all empty), tree
    ``i``'s windows shifted to start at position ``starts[i]`` of
    ``source`` — the one source it verifies against, whose windows there
    must equal the tree's own (as a live plane's segments equal their
    spans of the plane's monolithic source).

    A synthetic root is prepended. Its children are the trees' roots, in
    tree order, and its envelope is their elementwise max / min: of rows
    already rounded outward, so it covers every window. Level ``d + 1``
    is each tree's level ``d``, in tree order, so the children of a
    level's nodes, in order, are the next level, and the result is an
    ordinary BFS tree. Below the root each tree contributes one
    contiguous span of every array per level, so the result is
    ``trees × levels`` slice copies — its own memory, as much as the
    trees' arrays together; the trees stay untouched.

    Trees in the run layout (of one ``bulk_fill``) join in it: the
    forest's sliding extrema are the trees' own, copied to their
    positions (entry ``e`` of a tree's is a function of the source's
    values ``e .. e + k``, so trees that overlap there hold equal
    entries), and its pool rows are the root's and the trees' stored
    ones. Any other mix joins in the stored layout."""
    started = time.perf_counter()
    fill = trees[0].params.bulk_fill
    run = all(
        tree._pool_rows is not None and tree.params.bulk_fill == fill for tree in trees
    )
    if not run:
        trees = [
            tree
            if tree._pool_rows is None
            else FrozenTSIndex(tree.source, tree.params, tree.build_stats, tree.arrays())
            for tree in trees
        ]
    spans = [
        (tree, shift, *tree._levels[level][:2])
        for level in range(max(tree.height for tree in trees))
        for tree, shift in zip(trees, starts)
        if level < tree.height
    ]
    # The first ``roots`` spans are the trees' roots.
    roots = sum(tree.node_count > 0 for tree in trees)
    kinds = np.concatenate(
        [np.zeros(1, dtype=np.int8), *(tree._kinds[a:b] for tree, _, a, b in spans)]
    )

    def offsets(name: str, root: int) -> np.ndarray:
        joined = np.zeros(kinds.size + 1, dtype=np.int64)
        counts = [np.diff(getattr(tree, name)[a : b + 1]) for tree, _, a, b in spans]
        np.cumsum(np.concatenate([[root], *counts]), out=joined[1:])
        return joined

    arrays = {
        "kinds": kinds,
        "children_offsets": offsets("_children_offsets", roots),
        "leaf_offsets": offsets("_leaf_offsets", 0),
    }
    if run:
        leaf_starts = np.concatenate(
            [
                np.zeros(1, dtype=np.int64),
                *(tree._leaf_starts[a:b] + shift for tree, shift, a, b in spans),
            ]
        )
        leaf_starts[kinds == 0] = 0
        arrays["leaf_starts"] = leaf_starts
        # A span's stored rows follow one another in its tree's pool
        # (they are laid out in id order): one slice each.
        length = source.length
        stored = []
        for tree, _, a, b in spans:
            rows = tree._pool_rows[a:b]
            rows = rows[rows >= tree._slide_size]
            if rows.size:
                stored.append((tree, int(rows[0]), int(rows[-1]) + length))
    else:
        arrays["positions"] = np.concatenate(
            [
                tree._positions[tree._leaf_offsets[a] : tree._leaf_offsets[b]] + shift
                for tree, shift, a, b in spans
            ]
        )
    for name, bound, cover in (("uppers", "upper", np.max), ("lowers", "lower", np.min)):
        heads = [getattr(tree, f"_{bound}_head")[:, a:b] for tree, _, a, b in spans]
        arrays[f"{name}_head"] = np.concatenate(
            [cover(heads[:roots], axis=0), *heads], axis=1
        )
        if not run:
            tails = [getattr(tree, f"_{bound}_tail")[a:b] for tree, _, a, b in spans]
            arrays[f"{name}_tail"] = np.concatenate(
                [cover(tails[:roots], axis=0), *tails]
            )
            continue
        # The sliding extrema: each tree's entries from where the ones
        # before it end (zeros over a gap no tree covers).
        pieces, end = [], 0
        for tree, shift in zip(trees, starts):
            if shift > end:
                pieces.append(np.zeros(shift - end, dtype=ENVELOPE_DTYPE))
            pieces.append(getattr(tree, f"_{bound}_pool")[max(end - shift, 0) : tree._slide_size])
            end = max(end, shift + tree._slide_size)
        root = cover(
            [
                getattr(tree, f"_{bound}_rows")[tree._pool_rows[:1]]
                for tree in trees
                if tree.node_count
            ],
            axis=0,
        )
        arrays[f"{name}_pool"] = np.concatenate(
            [
                *pieces,
                root.ravel(),
                *(getattr(tree, f"_{bound}_pool")[a:b] for tree, a, b in stored),
            ]
        )
    stats = [tree.build_stats for tree in trees]
    build_stats = BuildStats(
        seconds=max(stat.seconds for stat in stats),
        windows=sum(stat.windows for stat in stats),
        splits=sum(stat.splits for stat in stats),
        height=max(tree.height for tree in trees) + 1,
        nodes=kinds.size,
    )
    return FrozenTSIndex(
        source,
        trees[0].params,
        build_stats,
        arrays,
        freeze_seconds=time.perf_counter() - started,
    )


@register_plane(
    "frozen",
    aliases=("frozentsindex",),
    summary="read-optimized flat TS-Index snapshot (vectorized frontier)",
)
def _frozen_plane(source: WindowSource, **kwargs: Any) -> FrozenTSIndex:
    """Registry builder: a TS-Index built then frozen in place."""
    from .tsindex import TSIndex, TSIndexParams

    params = kwargs.pop("params", None)
    if kwargs:
        params = TSIndexParams(**kwargs)
    return TSIndex.from_source(source, params=params).freeze()
