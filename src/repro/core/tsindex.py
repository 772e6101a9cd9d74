"""TS-Index — the paper's contribution (Section 5).

A height-balanced tree over all ``l``-length windows of a time series.
Each node carries a Minimum Bounding Time Series (MBTS, Definition 2)
enclosing everything indexed beneath it; leaves store window start
positions. Construction is top-down sequential insertion (Section 5.2)
with R-tree style overflow splits whose seeds are the two farthest
entries (Chebyshev distance for leaves, Eq. 3 gap for internal nodes).
Twin queries traverse top-down, pruning any subtree whose MBTS is more
than ``ε`` away from the query (Lemma 1 / Algorithm 1).

That is all the pointer tree implements (:mod:`repro.core.bulkload`
builds the flat form bottom-up instead). The library's extensions —
k-NN, ``exists``, batches, prefix queries — live on the flat arrays of
:class:`~repro.core.frozen.FrozenTSIndex` (all but batches as its one
level walk), which the tree reaches through a memoised
:meth:`TSIndex.freeze`.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Any, Iterable

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
    CAP_VARLENGTH,
    CAP_VERIFICATION,
)
from ..query.registration import register_plane
from ..query.spec import prepare_values
from ..query.varlength import is_prefix_query
from .mbts import MBTS
from .normalization import Normalization
from .stats import BuildStats, QueryStats, SearchResult
from .verification import check_mode, verify
from .windows import WindowSource

#: Valid split assignment metrics: ``area`` is classic R-tree total
#: enlargement, ``max`` is the Chebyshev-style maximum
#: single-timestamp enlargement.
SPLIT_METRICS = ("area", "max")


@dataclasses.dataclass(frozen=True)
class TSIndexParams:
    """Construction parameters for :class:`TSIndex`.

    Defaults are the paper's (Section 6.1): minimum node capacity
    ``μc = 10``, maximum node capacity ``Mc = 30``.
    """

    min_children: int = 10
    max_children: int = 30
    split_metric: str = "area"

    def __post_init__(self) -> None:
        check_positive_int(self.min_children, name="min_children")
        check_positive_int(self.max_children, name="max_children")
        if self.max_children < 2 * self.min_children:
            raise InvalidParameterError(
                "max_children must be >= 2 * min_children so both split "
                f"halves can satisfy the minimum (got μc={self.min_children}, "
                f"Mc={self.max_children})"
            )
        if self.split_metric not in SPLIT_METRICS:
            raise InvalidParameterError(
                f"split_metric must be one of {SPLIT_METRICS}, "
                f"got {self.split_metric!r}"
            )


class _Node:
    """One TS-Index node. Leaves hold positions; internals hold children."""

    __slots__ = ("mbts", "children", "positions", "_env_upper", "_env_lower")

    def __init__(
        self,
        mbts: MBTS,
        *,
        children: list[_Node] | None = None,
        positions: list[int] | None = None,
    ):
        self.mbts = mbts
        self.children: list[_Node] | None = children
        self.positions: list[int] | None = positions
        # Persistent stacked child-envelope matrices (rows mirror
        # ``children``'s MBTS) used to vectorize bound checks during both
        # insertion and queries. Maintained incrementally: rows are
        # refreshed after a child's envelope grows and appended when a
        # child is added; splits drop the matrices for a lazy rebuild.
        self._env_upper: np.ndarray | None = None
        self._env_lower: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.positions is not None

    @property
    def fanout(self) -> int:
        return len(self.positions if self.is_leaf else self.children)

    def invalidate_cache(self) -> None:
        self._env_upper = None
        self._env_lower = None

    def child_envelopes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(k, l)`` upper/lower matrix views over the children."""
        count = len(self.children)
        if self._env_upper is None or self._env_upper.shape[0] < count:
            length = self.mbts.length
            capacity = max(count + 1, 8)
            upper = np.empty((capacity, length), dtype=FLOAT_DTYPE)
            lower = np.empty((capacity, length), dtype=FLOAT_DTYPE)
            for row, child in enumerate(self.children):
                upper[row] = child.mbts.upper
                lower[row] = child.mbts.lower
            self._env_upper = upper
            self._env_lower = lower
        return self._env_upper[:count], self._env_lower[:count]

    def refresh_child_row(self, row: int) -> None:
        """Re-sync one row after the child's MBTS changed in place."""
        if self._env_upper is not None and row < self._env_upper.shape[0]:
            child = self.children[row]
            self._env_upper[row] = child.mbts.upper
            self._env_lower[row] = child.mbts.lower

    def append_child(self, child: "_Node") -> None:
        """Add a child, growing the envelope matrices if present."""
        self.children.append(child)
        if self._env_upper is None:
            return
        row = len(self.children) - 1
        if row >= self._env_upper.shape[0]:
            grown_upper = np.empty(
                (self._env_upper.shape[0] * 2, self._env_upper.shape[1]),
                dtype=FLOAT_DTYPE,
            )
            grown_lower = np.empty_like(grown_upper)
            grown_upper[:row] = self._env_upper[:row]
            grown_lower[:row] = self._env_lower[:row]
            self._env_upper = grown_upper
            self._env_lower = grown_lower
        self._env_upper[row] = child.mbts.upper
        self._env_lower[row] = child.mbts.lower


class TSIndex:
    """Tree index for twin subsequence search under Chebyshev distance.

    Build one with :meth:`TSIndex.build` (from raw values) or
    :meth:`TSIndex.from_source` (from a prepared
    :class:`~repro.core.windows.WindowSource`), then answer threshold
    queries with :meth:`search` (Algorithm 1 over the node pointers).

    :meth:`knn` (a flat-form search at a seeded radius), :meth:`exists`
    (whether the flat-form search finds a twin), :meth:`search_batch`
    and :meth:`search_varlength` run on the flat form: each takes the
    :meth:`freeze` snapshot, which is built on first use, kept until
    the next :meth:`insert` and shared with every :meth:`freeze`
    caller. Alternating inserts with those four therefore re-flattens
    the tree before each query (≈ 0.2 µs per indexed window); a caller
    that must query between inserts uses :meth:`search`, which takes no
    snapshot.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import TSIndex
    >>> rng = np.random.default_rng(7)
    >>> series = np.cumsum(rng.normal(size=2000))
    >>> index = TSIndex.build(series, length=50, normalization="none")
    >>> result = index.search(series[100:150], epsilon=0.5)
    >>> 100 in result.positions
    True
    """

    method_name = "tsindex"

    #: Native kernels the query planner may call directly.
    capabilities = frozenset(
        {
            CAP_SEARCH,
            CAP_KNN,
            CAP_EXISTS,
            CAP_COUNT,
            CAP_VARLENGTH,
            CAP_VERIFICATION,
        }
    )

    def __init__(self, source: WindowSource, params: TSIndexParams | None = None):
        self._source = source
        self._params = params or TSIndexParams()
        self._root: _Node | None = None
        self._build_stats = BuildStats()
        # Insertion scratch, ``(3, Mc + 1, l)``: the two blocks
        # `_choose_subtree` computes into on every level instead of
        # allocating temporaries, and the tiled window (`_tile`).
        # Written by insertion only, and a TSIndex has one writer at a
        # time; no query path reads it.
        self._scratch: np.ndarray | None = None
        # `freeze`'s snapshot of the tree as it stands, or None (cleared
        # by `_insert_position`). Two first queries racing here both
        # flatten and keep either result: equal, and immutable.
        self._frozen: Any = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        series: npt.ArrayLike,
        length: int,
        *,
        normalization: Normalization | str = Normalization.GLOBAL,
        params: TSIndexParams | None = None,
    ) -> "TSIndex":
        """Build a TS-Index over all ``length``-sized windows of
        ``series`` under the given normalization regime."""
        source = WindowSource(series, length, normalization)
        return cls.from_source(source, params=params)

    @classmethod
    def from_source(
        cls, source: WindowSource, *, params: TSIndexParams | None = None
    ) -> "TSIndex":
        """Build by sequentially inserting every window of ``source``."""
        index = cls(source, params)
        started = time.perf_counter()
        for position in range(source.count):
            index._insert_position(position)
        index._build_stats.seconds = time.perf_counter() - started
        index._build_stats.windows = source.count
        return index

    @classmethod
    def _from_prebuilt_root(
        cls,
        source: WindowSource,
        root: _Node,
        params: TSIndexParams,
        build_stats: BuildStats,
    ) -> "TSIndex":
        """Adopt a built ``root``: the tree
        :func:`~repro.core.frozen.unflatten` rebuilds from the tree
        arrays, for :meth:`FrozenTSIndex.thaw
        <repro.core.frozen.FrozenTSIndex.thaw>` and for loading a
        pointer-tree archive."""
        index = cls(source, params)
        index._root = root
        index._build_stats = build_stats
        return index

    def freeze(self) -> Any:
        """This tree as a read-optimized
        :class:`~repro.core.frozen.FrozenTSIndex`: flat
        structure-of-arrays storage and vectorized frontier traversal —
        byte-identical results, a fraction of the latency. The snapshot
        is immutable and does not see later :meth:`insert` calls; until
        the next one, every call returns the same object
        (:meth:`FrozenTSIndex.thaw
        <repro.core.frozen.FrozenTSIndex.thaw>` makes a tree of one).
        """
        frozen = self._frozen
        if frozen is None:
            from .frozen import FrozenTSIndex  # local: frozen imports us

            frozen = self._frozen = FrozenTSIndex.from_tree(
                self._source,
                self._root,
                self._params,
                # Copy: later inserts into this tree must not mutate the
                # snapshot's (or its serialized form's) build counters.
                dataclasses.replace(self._build_stats),
            )
        return frozen

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The window source this index was built over."""
        return self._source

    @property
    def params(self) -> TSIndexParams:
        """Construction parameters."""
        return self._params

    @property
    def build_stats(self) -> BuildStats:
        """Counters recorded during construction. ``height`` and
        ``nodes`` are read off the tree as it stands (``insert`` keeps
        neither), so a tree grown window by window reports — and
        archives — its real shape."""
        stats = self._build_stats
        stats.height = self.height
        stats.nodes = self.node_count
        return stats

    @property
    def length(self) -> int:
        """Indexed window length ``l``."""
        return self._source.length

    @property
    def size(self) -> int:
        """Number of indexed windows."""
        return self._source.count

    @property
    def height(self) -> int:
        """Tree height in levels (a lone leaf root has height 1)."""
        if self._root is None:
            return 0
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        if self._root is None:
            return 0
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    def __repr__(self) -> str:
        return (
            f"TSIndex(windows={self.size}, length={self.length}, "
            f"height={self.height}, nodes={self.node_count})"
        )

    def iter_nodes(self) -> Any:
        """Yield ``(node, depth)`` pairs in pre-order (for diagnostics,
        memory accounting and invariant tests)."""
        if self._root is None:
            return
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if not node.is_leaf:
                stack.extend((child, depth + 1) for child in node.children)

    # ------------------------------------------------------------------
    # Insertion (Section 5.2)
    # ------------------------------------------------------------------
    def insert(self, position: int) -> None:
        """Insert one window by start position (exposed for incremental
        maintenance; :meth:`from_source` uses it for every window)."""
        if not 0 <= position < self._source.count:
            raise InvalidParameterError(
                f"position {position} outside [0, {self._source.count})"
            )
        self._insert_position(position)
        self._build_stats.windows = max(self._build_stats.windows, 0) + 1

    def _insert_position(self, position: int) -> None:
        self._frozen = None
        window = self._source.window(position)
        if self._root is None:
            self._root = _Node(MBTS.from_sequence(window), positions=[position])
            return
        sibling = self._insert_into(
            self._root, window, self._tile(window), position
        )
        if sibling is not None:
            old_root = self._root
            new_root = _Node(
                old_root.mbts.union(sibling.mbts),
                children=[old_root, sibling],
            )
            self._root = new_root

    def _tile(self, window: np.ndarray) -> np.ndarray:
        """``window`` repeated over the rows of a scratch block: tiled
        once per insert, so :meth:`_choose_subtree` subtracts equal-shaped
        contiguous blocks on every level instead of broadcasting a row."""
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = np.empty(
                (3, self._params.max_children + 1, self._source.length),
                dtype=FLOAT_DTYPE,
            )
        scratch[2] = window
        return scratch[2]

    def _insert_into(
        self, node: _Node, window: np.ndarray, tiled: np.ndarray, position: int
    ) -> _Node | None:
        """Recursive insert; returns a new sibling when ``node`` split."""
        node.mbts.expand_fast(window)
        if node.is_leaf:
            node.positions.append(position)
            if len(node.positions) > self._params.max_children:
                return self._split_leaf(node)
            return None

        chosen = self._choose_subtree(node, tiled)
        child = node.children[chosen]
        new_child = self._insert_into(child, window, tiled, position)
        # The recursion expanded (or split and rebuilt) the chosen
        # child's MBTS; bring its envelope row back in sync.
        node.refresh_child_row(chosen)
        if new_child is not None:
            node.append_child(new_child)
            if len(node.children) > self._params.max_children:
                return self._split_internal(node)
        return None

    def _choose_subtree(self, node: _Node, tiled: np.ndarray) -> int:
        """Index of the child whose MBTS is nearest to the window
        (Eq. 2), breaking ties by least enlargement, then smallest
        area. ``tiled`` is the window as :meth:`_tile` returns it."""
        upper, lower = node.child_envelopes()
        count = upper.shape[0]
        tiled = tiled[:count]
        outside, below = self._scratch[0, :count], self._scratch[1, :count]
        np.subtract(tiled, upper, out=outside)
        np.subtract(lower, tiled, out=below)
        np.maximum(outside, below, out=outside)
        distances = np.maximum.reduce(outside, axis=1).tolist()
        # Children the window lies inside all sit at distance 0.
        minimum = max(min(distances), 0.0)
        best = [i for i, d in enumerate(distances) if d <= minimum]
        if len(best) == 1:
            return best[0]
        if minimum > 0.0:
            # At distance 0 nothing pokes out of any tied child: every
            # enlargement is 0 and this round could not separate them.
            enlargements = np.maximum(outside[best], 0.0).sum(axis=1)
            best = [
                i
                for i, tied in zip(best, enlargements == enlargements.min())
                if tied
            ]
            if len(best) == 1:
                return best[0]
        areas = (upper[best] - lower[best]).sum(axis=1)
        return best[int(np.argmin(areas))]

    # ------------------------------------------------------------------
    # Splits (Section 5.2)
    # ------------------------------------------------------------------
    def _split_leaf(self, node: _Node) -> _Node:
        positions = np.asarray(node.positions, dtype=POSITION_DTYPE)
        matrix = self._source.windows(positions)
        seeds = _farthest_pair(matrix)
        if seeds is None:  # all entries identical: arbitrary halves
            half = positions.size // 2
            groups = (list(range(half)), list(range(half, positions.size)))
        else:
            groups = self._distribute(matrix, *seeds, rows_are_mbts=False)

        group_a, group_b = groups
        node.positions = [int(positions[i]) for i in group_a]
        node.mbts = MBTS.from_sequences(matrix[group_a])
        sibling = _Node(
            MBTS.from_sequences(matrix[group_b]),
            positions=[int(positions[i]) for i in group_b],
        )
        self._build_stats.splits += 1
        return sibling

    def _split_internal(self, node: _Node) -> _Node:
        children = node.children
        upper = np.stack([c.mbts.upper for c in children])
        lower = np.stack([c.mbts.lower for c in children])
        gap_a = lower[:, None, :] - upper[None, :, :]
        distances = np.maximum(
            np.maximum(gap_a, np.swapaxes(gap_a, 0, 1)), 0.0
        ).max(axis=2)
        seed_a, seed_b = np.unravel_index(
            np.argmax(distances), distances.shape
        )
        if seed_a == seed_b:
            half = len(children) // 2
            groups = (list(range(half)), list(range(half, len(children))))
        else:
            bounds = np.stack([upper, lower], axis=1)  # (k, 2, l)
            groups = self._distribute(
                bounds, int(seed_a), int(seed_b), rows_are_mbts=True
            )

        group_a, group_b = groups
        kept = [children[i] for i in group_a]
        moved = [children[i] for i in group_b]
        node.children = kept
        node.mbts = _union_of(kept)
        node.invalidate_cache()
        sibling = _Node(_union_of(moved), children=moved)
        self._build_stats.splits += 1
        return sibling

    def _distribute(
        self, rows: np.ndarray, seed_a: int, seed_b: int, *, rows_are_mbts: bool
    ) -> tuple[list[int], list[int]]:
        """Assign entries to the two seeds, honouring ``min_children``.

        ``rows`` is ``(k, l)`` of sequences (leaf split) or ``(k, 2, l)``
        of stacked [upper, lower] envelopes (internal split). Each entry
        goes to the side whose MBTS it enlarges least (``area`` metric) or
        pokes out of least (``max`` metric); once a side must absorb all
        remaining entries to reach ``μc``, it does.
        """
        total = rows.shape[0]
        minimum = self._params.min_children
        by_area = self._params.split_metric == "area"
        highs, lows = (rows[:, 0], rows[:, 1]) if rows_are_mbts else (rows, rows)
        # Row 0 is group a's envelope, row 1 group b's, so one call
        # prices an entry against both sides.
        upper = highs[[seed_a, seed_b]]
        lower = lows[[seed_a, seed_b]]
        grow = np.empty((2,) + upper.shape, dtype=FLOAT_DTYPE)
        grow_up, grow_dn = grow
        group_a, group_b = [seed_a], [seed_b]
        remaining = [i for i in range(total) if i not in (seed_a, seed_b)]

        for index_in_queue, i in enumerate(remaining):
            left = len(remaining) - index_in_queue
            if len(group_a) + left == minimum:
                group_a.extend(remaining[index_in_queue:])
                break
            if len(group_b) + left == minimum:
                group_b.extend(remaining[index_in_queue:])
                break

            hi, lo = highs[i], lows[i]
            np.subtract(hi, upper, out=grow_up)
            np.subtract(lower, lo, out=grow_dn)
            np.maximum(grow, 0.0, out=grow)
            if by_area:
                up, down = grow.sum(axis=2)
                cost_a, cost_b = (up + down).tolist()
            else:
                cost_a, cost_b = grow.max(axis=(0, 2)).tolist()
            if cost_a == cost_b:
                area_a, area_b = (upper - lower).sum(axis=1).tolist()
                side = 0 if area_a <= area_b else 1
            else:
                side = 0 if cost_a < cost_b else 1
            (group_a, group_b)[side].append(i)
            np.maximum(upper[side], hi, out=upper[side])
            np.minimum(lower[side], lo, out=lower[side])
        return group_a, group_b

    # ------------------------------------------------------------------
    # Query (Section 5.3, Algorithm 1)
    # ------------------------------------------------------------------
    def search(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twin subsequences of ``query`` within Chebyshev ``ε``.

        The traversal prunes every subtree whose node MBTS is farther
        than ``ε`` from the query (Lemma 1); qualifying leaves contribute
        candidate positions which are then exactly verified with the
        chosen strategy (see
        :data:`~repro.core.verification.VERIFICATION_MODES`; all modes
        return identical results). Queries shorter than ``l`` are
        :meth:`search_varlength`'s.
        """
        if is_prefix_query(query, self._source.length):
            return self.search_varlength(
                query, epsilon, verification=verification
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        check_mode(verification)
        query = prepare_values(self._source, query, expected=self._source.length)
        stats = QueryStats()
        candidates = self._collect_candidates(query, epsilon, stats)
        return verify(
            self._source, query, candidates, epsilon,
            mode=verification, stats=stats,
        )

    def _collect_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Algorithm 1's traversal: the unverified positions of every
        leaf whose envelope, and every ancestor's, is within ``ε`` of
        the (prepared, full-length) ``query`` by Eq. 2."""
        root = self._root
        if root is None:
            return np.empty(0, dtype=POSITION_DTYPE)

        stats.nodes_visited += 1
        root_outside = np.maximum(
            query - root.mbts.upper, root.mbts.lower - query
        ).max()
        if max(float(root_outside), 0.0) > epsilon:
            stats.nodes_pruned += 1
            return np.empty(0, dtype=POSITION_DTYPE)
        if root.is_leaf:
            stats.leaves_accessed += 1
            return np.asarray(root.positions, dtype=POSITION_DTYPE)

        collected: list[np.ndarray] = []
        stack = [root]
        while stack:
            node = stack.pop()
            upper, lower = node.child_envelopes()
            outside = np.maximum(query - upper, lower - query).max(axis=1)
            stats.nodes_visited += len(node.children)
            for child_index, child in enumerate(node.children):
                if outside[child_index] > epsilon:
                    stats.nodes_pruned += 1
                    continue
                if child.is_leaf:
                    stats.leaves_accessed += 1
                    collected.append(
                        np.asarray(child.positions, dtype=POSITION_DTYPE)
                    )
                else:
                    stack.append(child)

        if not collected:
            return np.empty(0, dtype=POSITION_DTYPE)
        return np.concatenate(collected)

    def count(self, query: npt.ArrayLike, epsilon: float) -> int:
        """Number of twins (convenience wrapper over :meth:`search`;
        shorter queries count their prefix twins, tail included)."""
        return len(self.search(query, epsilon))

    # ------------------------------------------------------------------
    # Extensions: answered by the frozen snapshot
    # ------------------------------------------------------------------
    def search_batch(
        self, queries: Iterable[npt.ArrayLike], epsilon: float, **search_options: Any
    ) -> Any:
        """Run a whole workload; per-query results plus aggregates
        (:meth:`FrozenTSIndex.search_batch
        <repro.core.frozen.FrozenTSIndex.search_batch>`: one shared
        level walk for all queries)."""
        return self.freeze().search_batch(queries, epsilon, **search_options)

    def search_varlength(
        self,
        query: npt.ArrayLike,
        epsilon: float,
        *,
        verification: str = "bulk",
    ) -> SearchResult:
        """All twins of a query of length ``m <= l``, the ``l - m`` tail
        positions the index does not store included
        (:meth:`FrozenTSIndex.search_varlength
        <repro.core.frozen.FrozenTSIndex.search_varlength>`)."""
        return self.freeze().search_varlength(
            query, epsilon, verification=verification
        )

    def collect_varlength_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Unverified candidate positions for a prepared query of
        length ``m <= l`` — the per-part hook of
        :func:`repro.query.varlength.prefix_search_part`."""
        return self.freeze().collect_varlength_candidates(query, epsilon, stats)

    def exists(
        self, query: npt.ArrayLike, epsilon: float, *, stats: QueryStats | None = None
    ) -> bool:
        """Whether *any* twin exists: whether the flat form's search
        finds one (:meth:`FrozenTSIndex.exists
        <repro.core.frozen.FrozenTSIndex.exists>`; ``stats`` receives
        that search's counters)."""
        return self.freeze().exists(query, epsilon, stats=stats)

    def knn(
        self, query: npt.ArrayLike, k: int, *, exclude: tuple[int, int] | None = None
    ) -> SearchResult:
        """The ``k`` windows nearest to ``query`` in Chebyshev distance,
        ranked by ``(distance, position)``, outside the half-open
        position range ``exclude`` (:meth:`FrozenTSIndex.knn
        <repro.core.frozen.FrozenTSIndex.knn>`)."""
        return self.freeze().knn(query, k, exclude=exclude)


@register_plane(
    "tsindex",
    aliases=("ts",),
    paper=True,
    summary="MBTS tree, the paper's contribution (Section 5)",
)
def _tsindex_plane(source: WindowSource, **kwargs: Any) -> TSIndex:
    """Registry builder: loose kwargs become :class:`TSIndexParams`."""
    params = kwargs.pop("params", None)
    if kwargs:
        params = TSIndexParams(**kwargs)
    return TSIndex.from_source(source, params=params)


def _farthest_pair(matrix: np.ndarray) -> tuple[int, int] | None:
    """The two rows of ``matrix`` farthest apart in Chebyshev distance
    (``None`` when all rows are identical).

    Among equally far pairs, the first in row-major order of the full
    pairwise matrix. The distance is symmetric, so that first maximum
    lies above the diagonal: pricing only the pairs ``a < b``, in that
    order, finds the same seeds at half the arithmetic.
    """
    first, second = _pairs(matrix.shape[0])
    pairwise = matrix[first]
    pairwise -= matrix[second]
    np.abs(pairwise, out=pairwise)
    distances = pairwise.max(axis=1)
    farthest = int(np.argmax(distances))
    if distances[farthest] == 0.0:
        return None
    return int(first[farthest]), int(second[farthest])


@functools.lru_cache(maxsize=8)
def _pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every ``a < b`` pair among ``count`` entries,
    in row-major order (read-only: the arrays are shared)."""
    first, second = np.triu_indices(count, 1)
    first.flags.writeable = False
    second.flags.writeable = False
    return first, second


def _union_of(nodes: list[_Node]) -> MBTS:
    """MBTS covering a non-empty list of nodes."""
    union = nodes[0].mbts.copy()
    for node in nodes[1:]:
        union.expand_to_include_mbts(node.mbts)
    return union
