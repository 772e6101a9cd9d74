"""The sweepline baseline (Sections 1 and 3.2).

Scans the series with a sliding window of the query's length and
verifies every window against the Chebyshev threshold — no filtering at
all, so its cost is flat in ``ε`` (exactly the behaviour shown for
"Sweepline" in Figures 4–7). Verification is the shared streaming
early-abandoning kernel over every position; a pure-Python
reordering-early-abandoning scan is also provided as an executable
specification (tests compare the two).

It is also the library's one **scan part**: a composite plane hands
:class:`~repro.query.parts.PartSet` a sweepline over each span it scans
rather than indexes — the live plane's delta, and the ``l - m`` tail
starts of a prefix query — and the span then answers every mode like an
indexed part: ``knn`` is the exact scan and ``count`` / ``exists`` its
own search (the :class:`~repro.indices.base.SubsequenceIndex`
defaults), and the prefix hook :meth:`collect_varlength_candidates`
returns every position.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np
import numpy.typing as npt

from .._util import POSITION_DTYPE, check_non_negative
from ..core.distance import chebyshev_distance_reordered, reorder_by_magnitude
from ..core.normalization import Normalization
from ..core.stats import BuildStats, QueryStats, SearchResult
from ..core.verification import verify
from ..core.windows import WindowSource
from ..query.registration import register_plane
from ..query.spec import prepare_values
from ..query.varlength import is_prefix_query
from .base import SubsequenceIndex


@register_plane(
    "sweepline",
    paper=True,
    summary="index-free exhaustive scan (Section 3.2)",
)
class SweeplineSearch(SubsequenceIndex):
    """Index-free exhaustive twin search over one series.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.indices import SweeplineSearch
    >>> series = np.sin(np.linspace(0.0, 20.0, 500))
    >>> scan = SweeplineSearch.build(series, length=40, normalization="none")
    >>> result = scan.search(series[10:50], epsilon=0.05)
    >>> int(result.positions[0]) <= 10 <= int(result.positions[-1])
    True
    """

    method_name = "sweepline"

    def __init__(self, source: WindowSource):
        self._source = source
        self._build_stats = BuildStats(
            seconds=0.0, windows=source.count, splits=0, height=0, nodes=0
        )

    @classmethod
    def build(
        cls,
        series: npt.ArrayLike,
        length: int,
        *,
        normalization: Normalization | str = Normalization.GLOBAL,
    ) -> "SweeplineSearch":
        """Prepare a sweepline scan over all ``length``-windows."""
        return cls.from_source(WindowSource(series, length, normalization))

    @classmethod
    def from_source(cls, source: WindowSource, **kwargs: Any) -> "SweeplineSearch":
        """Wrap a prepared window source (no build work is needed)."""
        if kwargs:
            raise TypeError(f"unexpected options: {sorted(kwargs)}")
        started = time.perf_counter()
        instance = cls(source)
        instance._build_stats.seconds = time.perf_counter() - started
        return instance

    @property
    def source(self) -> WindowSource:
        """The window source being scanned."""
        return self._source

    @property
    def size(self) -> int:
        """Number of windows scanned."""
        return self._source.count

    @property
    def build_stats(self) -> BuildStats:
        """Essentially zero — the sweepline has nothing to build."""
        return self._build_stats

    def __repr__(self) -> str:
        return f"SweeplineSearch(windows={self._source.count})"

    # ------------------------------------------------------------------
    def search(
        self, query: npt.ArrayLike, epsilon: float, *, verification: str = "bulk"
    ) -> SearchResult:
        """Verify every window position against ``query`` at ``ε``.

        ``verification`` picks the strategy (see
        :data:`~repro.core.verification.VERIFICATION_MODES`). Queries
        shorter than ``l`` dispatch to the pipeline's prefix scan
        (:meth:`~repro.indices.base.SubsequenceIndex.search_varlength`).
        """
        if is_prefix_query(query, self._source.length):
            return self.search_varlength(
                query, epsilon, verification=verification
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = prepare_values(self._source, query)
        positions = np.arange(self._source.count, dtype=POSITION_DTYPE)
        return verify(
            self._source, query, positions, epsilon, mode=verification
        )

    def collect_varlength_candidates(
        self, query: np.ndarray, epsilon: float, stats: QueryStats
    ) -> np.ndarray:
        """Every position — the scan's candidates for a prefix query, so
        :func:`~repro.query.varlength.prefix_search_part` serves a scan
        part as it serves a tree."""
        return np.arange(self._source.count, dtype=POSITION_DTYPE)

    def search_pure_python(self, query: npt.ArrayLike, epsilon: float) -> SearchResult:
        """Reference implementation: a per-window Python loop using
        reordering early abandoning (Section 3.2), kept as an executable
        specification of the vectorized paths."""
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = prepare_values(self._source, query)
        order = reorder_by_magnitude(query)
        stats = QueryStats()
        positions: list[int] = []
        distances: list[float] = []
        for position in range(self._source.count):
            stats.candidates += 1
            stats.verified += 1
            window = self._source.window(position)
            distance = chebyshev_distance_reordered(
                query, window, epsilon, order=order
            )
            if distance <= epsilon:
                positions.append(position)
                distances.append(distance)
        stats.matches = len(positions)
        return SearchResult(
            positions=np.asarray(positions, dtype=POSITION_DTYPE),
            distances=np.asarray(distances, dtype=float),
            stats=stats,
        )
