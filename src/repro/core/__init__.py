"""Core building blocks: series, windows, distances, MBTS and TS-Index.

This subpackage holds the paper's primary contribution (the TS-Index,
Section 5, plus its read-optimized frozen form in
:mod:`~repro.core.frozen`) together with the substrate every search
method shares: the time-series container, the sliding-window extractor
with its three normalization regimes, the Chebyshev/Euclidean distance
kernels, the Minimum Bounding Time Series geometry, and the shared
filter/verification machinery (Section 3.2).
"""

from .batch import BatchResult
from .distance import (
    chebyshev_distance,
    chebyshev_distance_early_abandon,
    chebyshev_matches,
    chebyshev_profile,
    euclidean_distance,
    lp_distance,
    pairwise_chebyshev,
)
from .events import MatchGroup, event_positions, group_matches
from .frozen import FrozenTSIndex
from .mbts import MBTS, mbts_gap_distance, mbts_of, sequence_mbts_distance
from .normalization import (
    Normalization,
    rolling_mean,
    rolling_std,
    znormalize,
    znormalize_window,
)
from .series import TimeSeries
from .stats import BuildStats, QueryStats, SearchResult
from .tsindex import TSIndex, TSIndexParams
from .verification import (
    VERIFICATION_MODES,
    verify,
    verify_positions,
    verify_positions_per_candidate,
)
from .windows import WindowSource

__all__ = [
    "MBTS",
    "BatchResult",
    "BuildStats",
    "FrozenTSIndex",
    "MatchGroup",
    "Normalization",
    "QueryStats",
    "SearchResult",
    "TSIndex",
    "TSIndexParams",
    "TimeSeries",
    "VERIFICATION_MODES",
    "WindowSource",
    "chebyshev_distance",
    "chebyshev_distance_early_abandon",
    "chebyshev_matches",
    "chebyshev_profile",
    "euclidean_distance",
    "event_positions",
    "group_matches",
    "lp_distance",
    "mbts_gap_distance",
    "mbts_of",
    "pairwise_chebyshev",
    "rolling_mean",
    "rolling_std",
    "sequence_mbts_distance",
    "verify",
    "verify_positions",
    "verify_positions_per_candidate",
    "znormalize",
    "znormalize_window",
]
