"""KV-Index adapted to twin subsequence search (Section 4.1).

Following KV-Match (Wu et al., ICDE'19), every window is summarised by
its mean value. The index is an inverted structure: keys are disjoint
equal-width ranges of the mean domain, and each key maps to the set of
window start positions whose means fall in that range, compressed into
sorted half-open intervals (exactly the "intervals of positions" the
paper describes).

The twin filter is the paper's observation that twins' means differ by
at most ``ε``: a query with mean ``μ_q`` only needs the keys overlapping
``[μ_q - ε, μ_q + ε]``. Candidates from those bins are then exactly
verified. Per Section 4.1, the filter is void under per-subsequence
z-normalization (all means are 0), so construction rejects that regime.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import numpy.typing as npt

from .._util import (
    POSITION_DTYPE,
    check_non_negative,
    check_positive_int,
    intervals_to_positions,
    positions_to_intervals,
)
from ..core.normalization import Normalization
from ..core.stats import BuildStats, QueryStats, SearchResult
from ..core.verification import verify
from ..core.windows import WindowSource
from ..exceptions import UnsupportedNormalizationError
from ..query.registration import register_plane
from ..query.spec import prepare_values
from ..query.varlength import is_prefix_query
from .base import SubsequenceIndex


@dataclasses.dataclass(frozen=True)
class KVIndexParams:
    """Construction parameters for :class:`KVIndex`.

    ``num_bins`` controls the key granularity: more bins mean tighter
    mean ranges per key (better filtering) at slightly more memory.
    """

    num_bins: int = 256

    def __post_init__(self) -> None:
        check_positive_int(self.num_bins, name="num_bins")


@register_plane(
    "kvindex",
    aliases=("kvmatch", "kv"),
    paper=True,
    summary="mean-value inverted index (Section 4.1)",
)
class KVIndex(SubsequenceIndex):
    """Inverted index over window means for twin search.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.indices import KVIndex
    >>> series = np.cumsum(np.random.default_rng(3).normal(size=3000))
    >>> index = KVIndex.build(series, length=64, normalization="global")
    >>> int(sorted(index.search(index.source.window_block(5, 6)[0], 0.3).positions)[0]) >= 0
    True
    """

    method_name = "kvindex"

    def __init__(self, source: WindowSource, params: KVIndexParams | None = None):
        if source.normalization is Normalization.PER_WINDOW:
            raise UnsupportedNormalizationError(
                "KV-Index cannot index per-window z-normalized data: every "
                "window mean is zero, so the mean filter prunes nothing "
                "(paper, Section 4.1)"
            )
        self._source = source
        self._params = params or KVIndexParams()
        self._edges: np.ndarray | None = None
        self._bins: list[list[tuple[int, int]]] = []
        self._build_stats = BuildStats()
        # Rolling means are computed with cumulative sums whose rounding
        # error grows with the prefix magnitude; the filter range is
        # padded by this slack so twins whose *computed* means differ by
        # a few ulps are never lost (verification discards the handful
        # of extra candidates). See tests/test_properties.py.
        csum_peak = float(np.max(np.abs(np.cumsum(source.values))))
        self._mean_slack = (
            8.0 * np.finfo(float).eps * max(1e-300, csum_peak) / source.length
        )

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
        params: KVIndexParams | None = None,
    ) -> "KVIndex":
        """Build over all ``length``-windows of ``series``."""
        return cls.from_source(
            WindowSource(series, length, normalization), params=params
        )

    @classmethod
    def from_source(
        cls, source: WindowSource, *, params: KVIndexParams | None = None
    ) -> "KVIndex":
        """Build from a prepared window source."""
        index = cls(source, params)
        started = time.perf_counter()
        index._build()
        index._build_stats = BuildStats(
            seconds=time.perf_counter() - started,
            windows=source.count,
            splits=0,
            height=1,
            nodes=len(index._bins),
        )
        return index

    def _build(self) -> None:
        means = self._source.means()
        low = float(means.min())
        high = float(means.max())
        num_bins = self._params.num_bins
        if high - low <= 0.0:
            # Degenerate: all means equal; one bin covers everything.
            self._edges = np.asarray([low, low], dtype=float)
            self._bins = [
                positions_to_intervals(np.arange(means.size, dtype=POSITION_DTYPE))
            ]
            return
        edges = np.linspace(low, high, num_bins + 1)
        assignment = np.clip(
            np.searchsorted(edges, means, side="right") - 1, 0, num_bins - 1
        )
        self._edges = edges
        self._bins = [[] for _ in range(num_bins)]
        order = np.argsort(assignment, kind="stable")
        sorted_bins = assignment[order]
        boundaries = np.flatnonzero(np.diff(sorted_bins)) + 1
        groups = np.split(order, boundaries)
        for group in groups:
            if group.size == 0:
                continue
            bin_id = int(assignment[group[0]])
            self._bins[bin_id] = positions_to_intervals(np.sort(group))

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def source(self) -> WindowSource:
        """The indexed window source."""
        return self._source

    @property
    def params(self) -> KVIndexParams:
        """Construction parameters."""
        return self._params

    @property
    def build_stats(self) -> BuildStats:
        """Counters recorded while building."""
        return self._build_stats

    @property
    def num_bins(self) -> int:
        """Number of mean-range keys."""
        return len(self._bins)

    @property
    def edges(self) -> np.ndarray:
        """Bin edges over the mean domain (length ``num_bins + 1``)."""
        return self._edges

    def bin_intervals(self, bin_id: int) -> list[tuple[int, int]]:
        """The position intervals stored under key ``bin_id``."""
        return list(self._bins[bin_id])

    def interval_count(self) -> int:
        """Total number of stored position intervals (memory driver)."""
        return sum(len(entry) for entry in self._bins)

    def __repr__(self) -> str:
        return (
            f"KVIndex(windows={self._source.count}, bins={self.num_bins}, "
            f"intervals={self.interval_count()})"
        )

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def search(
        self, query: npt.ArrayLike, epsilon: float, *, verification: str = "bulk"
    ) -> SearchResult:
        """Mean-range filter, then exact verification (Section 4.1).

        ``verification`` picks the strategy (see
        :data:`~repro.core.verification.VERIFICATION_MODES`). Queries
        shorter than ``l`` dispatch to the pipeline's prefix scan (the
        mean filter is length-specific, so no filtering applies).
        """
        if is_prefix_query(query, self._source.length):
            return self.search_varlength(
                query, epsilon, verification=verification
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = prepare_values(self._source, query)
        query_mean = float(query.mean())
        stats = QueryStats()

        first, last = self._overlapping_bins(
            query_mean, epsilon + self._mean_slack
        )
        stats.nodes_visited = max(0, last - first)
        stats.nodes_pruned = self.num_bins - stats.nodes_visited
        intervals = self._merged_intervals(first, last)
        stats.leaves_accessed = len(intervals)
        return verify(
            self._source, query, intervals_to_positions(intervals), epsilon,
            mode=verification, stats=stats,
        )

    def candidate_intervals(
        self, query: npt.ArrayLike, epsilon: float
    ) -> list[tuple[int, int]]:
        """The filter step alone — merged candidate position intervals.

        Exposed for the filter-quality diagnostics in the benchmarks.
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = prepare_values(self._source, query)
        first, last = self._overlapping_bins(
            float(query.mean()), epsilon + self._mean_slack
        )
        return self._merged_intervals(first, last)

    def _overlapping_bins(self, query_mean: float, epsilon: float) -> tuple[int, int]:
        """Bin id range (half-open) overlapping ``[μ_q - ε, μ_q + ε]``.

        Bin ``i`` covers ``[e_i, e_{i+1})`` except the last bin, which
        additionally owns the top edge — the clamping below keeps a
        query mean that falls exactly on ``e_n`` inside the last bin.
        """
        edges = self._edges
        low_value = query_mean - epsilon
        high_value = query_mean + epsilon
        if high_value < float(edges[0]) or low_value > float(edges[-1]):
            return 0, 0
        if self.num_bins == 1:
            return 0, 1
        first = int(np.searchsorted(edges, low_value, side="right") - 1)
        last = int(np.searchsorted(edges, high_value, side="right"))
        first = min(max(first, 0), self.num_bins - 1)
        last = min(max(last, first + 1), self.num_bins)
        return first, last

    def _merged_intervals(self, first: int, last: int) -> list[tuple[int, int]]:
        """Union of the intervals of bins ``[first, last)``, merged so the
        verifier touches each candidate window exactly once."""
        collected: list[tuple[int, int]] = []
        for bin_id in range(first, last):
            collected.extend(self._bins[bin_id])
        if not collected:
            return []
        collected.sort()
        merged = [collected[0]]
        for start, stop in collected[1:]:
            if start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
            else:
                merged.append((start, stop))
        return merged
