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
* ``children_offsets`` / ``children`` — a CSR adjacency: node ``i``'s
  children are ``children[children_offsets[i]:children_offsets[i+1]]``.
  The layout is always BFS, root first — ``children`` is ``1 .. n-1``
  and every node follows its parent — so each node's children and each
  whole level are contiguous id ranges; the constructor rejects any
  other layout;
* ``leaf_offsets`` / ``positions`` — one contiguous array of all leaf
  window positions with per-node half-open spans (empty for internal
  nodes).

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

**One tree format.** :data:`ARRAY_FIELDS` — BFS, root first, CSR
offsets — is how every TS-Index tree is held as arrays, pointer trees
included: :func:`flatten` is the one walk from ``_Node`` objects to
those arrays (float64 envelopes, the tree's own rows), :func:`unflatten`
the one way back, and :func:`check_structure` the one test that arrays
describe a tree. Freezing rounds and cuts what :func:`flatten` returns,
pointer-tree archives store it as it is, and :meth:`FrozenTSIndex.thaw`
and the pointer-tree archive reader both rebuild through
:func:`unflatten`. Layouts of older archives are converted before they
reach this module (:mod:`repro.persistence.serializer`).

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
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np
import numpy.typing as npt

from .._util import (
    FLOAT_DTYPE,
    POSITION_DTYPE,
    check_non_negative,
    check_positive_int,
)
from ..exceptions import InvalidParameterError
from ..query.capabilities import (
    CAP_COUNT,
    CAP_EXISTS,
    CAP_KNN,
    CAP_SEARCH,
    CAP_SEARCH_BATCH,
    CAP_VARLENGTH,
    CAP_VERIFICATION,
)
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
    "children",
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
    "children",
    "leaf_offsets",
    "positions",
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
            "children": np.empty(0, dtype=np.int64),
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
        "children_offsets": children_offsets,
        # The walk above appended every node's children in one run, so
        # in id order the adjacency is simply 1 .. n-1.
        "children": np.arange(1, n, dtype=np.int64),
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
    children = arrays["children"].tolist()
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
            nodes[i].children = [
                nodes[j]
                for j in children[children_offsets[i] : children_offsets[i + 1]]
            ]
    return nodes[0] if nodes else None


def check_structure(arrays: Mapping[str, np.ndarray], count: int) -> None:
    """Refuse tree arrays (any :data:`ARRAY_FIELDS` layout's ``kinds`` /
    ``children_offsets`` / ``children`` / ``leaf_offsets`` /
    ``positions``) that are not one BFS tree over windows ``0 ..
    count``, with :class:`~repro.exceptions.InvalidParameterError`: a
    corrupted or hand-built archive must fail loudly here, not return
    silently wrong answers later."""
    kinds = arrays["kinds"]
    children_offsets = arrays["children_offsets"]
    children = arrays["children"]
    leaf_offsets = arrays["leaf_offsets"]
    positions = arrays["positions"]
    n = kinds.size
    for name, offsets, members, what in (
        ("children_offsets", children_offsets, children, "children"),
        ("leaf_offsets", leaf_offsets, positions, "positions"),
    ):
        if offsets.shape != (n + 1,):
            raise InvalidParameterError(
                f"{name} must have {n + 1} entries, got {offsets.size}"
            )
        if int(offsets[-1]) != members.size:
            raise InvalidParameterError(
                f"{name}[-1] must equal len({what}), got "
                f"{int(offsets[-1])} vs {members.size}"
            )
        if int(offsets[0]) != 0 or np.any(np.diff(offsets) < 0):
            raise InvalidParameterError(
                f"{name} must start at 0 and be non-decreasing"
            )
    if positions.size and (
        int(positions.min()) < 0 or int(positions.max()) >= count
    ):
        raise InvalidParameterError(
            f"positions must lie in [0, {count}), got range "
            f"[{int(positions.min())}, {int(positions.max())}]"
        )
    # The layout is BFS, root first: every node except the root is the
    # child of exactly one earlier node, appended in visit order, so the
    # adjacency is just 1 .. n-1, every node's children — and every
    # level — is one contiguous id range, and the walk can step from
    # level to level by child counts alone.
    if not np.array_equal(children, np.arange(1, n)):
        raise InvalidParameterError(
            "children must be the BFS adjacency 1 .. n-1 (each node "
            "a child of one earlier node, in visit order)"
        )
    if np.any(children_offsets[1:n] < np.arange(1, n)):
        raise InvalidParameterError(
            "every node must be the child of an earlier node"
        )
    if np.any(np.diff(children_offsets)[kinds == 1]):
        raise InvalidParameterError("leaf nodes must have no children")


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

    #: Native kernels the query planner may call directly (the whole
    #: read-only surface, including the batched level walk).
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

    __slots__ = (
        "_source",
        "_params",
        "_build_stats",
        "_freeze_seconds",
        "_upper_head",
        "_upper_tail",
        "_lower_head",
        "_lower_tail",
        "_kinds",
        "_children_offsets",
        "_children",
        "_leaf_offsets",
        "_positions",
        "_levels",
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

        # Envelopes arrive in the resident head/tail layout (raw
        # archives, ``raw_arrays``: adopted as they are — for a
        # contiguous float32 memmap that is zero-copy, which is what
        # makes mmap cold starts O(1) in the envelope size) or as whole
        # ``(n, l)`` matrices (``flatten``, the bulk loader, ``.npz``
        # and pointer-tree archives, ``arrays``), which are cut here,
        # once. Float64 input is rounded outward on the same occasion.
        # One bound at a time: the rounded whole matrix of the first is
        # released before the second's exists.
        parts = []
        for name, rounded in (("uppers", round_up_f32), ("lowers", round_down_f32)):
            if f"{name}_head" in arrays:
                head = rounded(arrays[f"{name}_head"])
                tail = rounded(arrays[f"{name}_tail"])
            else:
                head, tail = _head_tail(rounded(arrays[name]))
                head = head.T
            head, tail = np.ascontiguousarray(head), np.ascontiguousarray(tail)
            parts += [head, tail]
        upper_head, upper_tail, lower_head, lower_tail = parts
        structure = {
            name: np.ascontiguousarray(arrays[name], dtype=dtype)
            for name, dtype in (
                ("kinds", np.int8),
                ("children_offsets", np.int64),
                ("children", np.int64),
                ("leaf_offsets", np.int64),
                ("positions", POSITION_DTYPE),
            )
        }
        kinds = structure["kinds"]
        children_offsets = structure["children_offsets"]

        n = kinds.size
        length = source.length
        # The sampled timestamps follow from the shapes alone, so an
        # archive needs no record of them.
        head = -(-length // _HEAD_STRIDE)
        shapes = ((head, n), (n, length - head))
        if (upper_head.shape, upper_tail.shape) != shapes or (
            lower_head.shape,
            lower_tail.shape,
        ) != shapes:
            raise InvalidParameterError(
                f"envelope matrices must cover ({n}, {length}) as a "
                f"{shapes[0]} head and a {shapes[1]} tail, got "
                f"{upper_head.shape} + {upper_tail.shape} and "
                f"{lower_head.shape} + {lower_tail.shape}"
            )
        check_structure(structure, source.count)

        # The whole point of freezing is immutability; every stored
        # handle is a read-only view, so accidental writes are loud —
        # without ever flipping the write flag on caller-owned arrays.
        self._kinds = _read_only(kinds)
        self._children_offsets = _read_only(children_offsets)
        self._children = _read_only(structure["children"])
        self._leaf_offsets = _read_only(structure["leaf_offsets"])
        self._positions = _read_only(structure["positions"])
        # Each bound is held once, in two parts (see the module
        # docstring): the sweep over a frontier reads the head, one
        # contiguous row per sampled timestamp, and a node that
        # survives it is finished from its own contiguous tail row.
        self._upper_head = _read_only(upper_head)
        self._upper_tail = _read_only(upper_tail)
        self._lower_head = _read_only(lower_head)
        self._lower_tail = _read_only(lower_tail)
        # The level table: ``(start, stop, leaves)`` per depth, root
        # first. A level's children are the next level, and the slots
        # of the nodes before ``stop`` name the nodes up to the end of
        # that next level.
        levels = []
        start, stop = 0, min(n, 1)
        while start < stop:
            levels.append((start, stop, int(np.count_nonzero(kinds[start:stop]))))
            start, stop = stop, int(children_offsets[stop]) + 1
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
        """The flat arrays, envelopes as whole ``(n, l)`` matrices
        (read-only; see :data:`ARRAY_FIELDS`). The matrices are
        assembled from the resident parts per call — the ``thaw`` form
        and a layout-independent digest, not a query path."""
        raw = self.raw_arrays()
        matrices = {}
        for name in ("uppers", "lowers"):
            matrix = np.empty((self.node_count, self.length), ENVELOPE_DTYPE)
            matrix[:, ::_HEAD_STRIDE] = raw.pop(f"{name}_head").T
            matrix[:, _tail_mask(self.length)] = raw.pop(f"{name}_tail")
            matrices[name] = _read_only(matrix)
        return {**matrices, **raw}

    def raw_arrays(self) -> dict:
        """The flat arrays with the envelopes in their resident
        head/tail layout (see :data:`RAW_ARRAY_FIELDS`) — the zero-copy
        serialization form: nothing is re-laid-out on save, and
        :meth:`from_arrays` adopts them (memmaps included) without
        copying on load."""
        return {
            "uppers_head": self._upper_head,
            "uppers_tail": self._upper_tail,
            "lowers_head": self._lower_head,
            "lowers_tail": self._lower_tail,
            "kinds": self._kinds,
            "children_offsets": self._children_offsets,
            "children": self._children,
            "leaf_offsets": self._leaf_offsets,
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
        """Tree height in levels (a lone leaf root has height 1)."""
        return len(self._levels)

    def __repr__(self) -> str:
        return (
            f"FrozenTSIndex(windows={self.size}, length={self.length}, "
            f"height={self.height}, nodes={self.node_count})"
        )

    # ------------------------------------------------------------------
    # Vectorized primitives over the flat arrays
    # ------------------------------------------------------------------
    def _node_bound(self, query: np.ndarray, ids: int | np.ndarray) -> np.ndarray:
        """(Clamped) Eq. 2 bound in float64 (the float32 values are
        promoted) of ``query`` — or of every row of a ``(q, m)`` query
        matrix — against one node's stored envelope, or of one query
        against each node of an id array.

        The stored envelope covers the exact one and float64
        subtraction rounds monotonically, so for every window ``w``
        under the node this is ``<= fl(|q - w|)`` at each timestamp —
        a lower bound of the very number the verifier computes, with
        no guard needed (the root check relies on it; the k-NN seed
        only ranks by it).

        Evaluated over the query's own ``m`` timestamps, so a shorter
        (prefix) query bounds against the envelope prefix — leading
        slices of the node's head column and tail row.
        """
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
        of a head pass) also hold ``U >= lo`` and ``L <= hi`` at their
        tail timestamps. One contiguous row read per node and bound;
        ``lo_tail`` / ``hi_tail`` are one threshold vector, or one row
        per id, over the first ``m - ceil(m / 4)`` tail columns."""
        width = lo_tail.shape[-1]
        inside = np.take(self._upper_tail, ids, axis=0)[:, :width] >= lo_tail
        inside &= np.take(self._lower_tail, ids, axis=0)[:, :width] <= hi_tail
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
        ``lo`` / ``hi`` being the :func:`_head_tail` parts of one
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
        and how many each node contributed. The adjacency is
        ``arange(1, n)``: slot ``i`` names node ``i + 1``, so the slot
        ranges *are* the ids, shifted."""
        starts = self._children_offsets[ids]
        counts = self._children_offsets[ids + 1] - starts
        return _concat_ranges(starts + 1, counts), counts

    def _leaf_positions(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated stored positions of every leaf in ``ids``."""
        starts = self._leaf_offsets[ids]
        counts = self._leaf_offsets[ids + 1] - starts
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
        (:meth:`_level_keep`) bounds them. The root bound, the
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
        dead = self._node_bound(queries, 0) > epsilon
        if queries.ndim == 1:
            # A lone query stays unstacked: ≈ 30 µs a search cheaper
            # than a one-row matrix (200,000 windows, interleaved).
            lo, hi, dead = [lo], [hi], [dead]
        walking = []
        for row, pruned in enumerate(dead):
            stats[row].nodes_visited += 1
            if pruned:
                stats[row].nodes_pruned += 1
            else:
                bounds = _head_tail(lo[row]), _head_tail(hi[row])
                walking.append((row, bounds, np.zeros(1, dtype=np.intp)))
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
        over the stacked queries): the root bound, the thresholds and
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
