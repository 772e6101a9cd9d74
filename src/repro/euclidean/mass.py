"""FFT-based Euclidean distance profiles (MASS-style) and the
Chebyshev-vs-Euclidean comparison of the paper's introduction.

Section 1 reports that, on the EEG series, a Chebyshev threshold query
returns 1,034 twins while the *equivalent* Euclidean query — radius
``ε' = ε · sqrt(|Q|)``, the smallest radius guaranteeing no false
negatives (Section 3.1) — returns 127,887 subsequences, i.e. two orders
of magnitude of false positives. Figure 1 visualizes why: Euclidean
averages away localized spikes that Chebyshev must match point-wise.

The Euclidean profile is computed with the convolution identity
``d2²(p) = Σ Q² + Σ_p T² - 2 (Q ⋆ T)(p)`` (raw values) or the MASS
formula over rolling statistics (per-window z-normalization), both
O(n log n) via :func:`scipy.signal.fftconvolve`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.typing as npt
from scipy.signal import fftconvolve

from .._util import FLOAT_DTYPE, as_float_array, check_non_negative
from ..core.distance import euclidean_threshold_for
from ..core.normalization import (
    Normalization,
    rolling_mean,
    rolling_std,
)
from ..core.windows import WindowSource
from ..exceptions import InvalidParameterError
from ..query.spec import prepare_values


def _sliding_dot(values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``(Q ⋆ T)(p) = Σ_i Q_i · T_{p+i}`` for every start ``p``."""
    return fftconvolve(values, query[::-1], mode="valid")


def euclidean_distance_profile(source: WindowSource, query: npt.ArrayLike) -> np.ndarray:
    """Euclidean distance from ``query`` to every window of ``source``.

    Respects the source's normalization regime: raw/global profiles use
    the convolution identity on the (possibly globally normalized)
    buffer; ``PER_WINDOW`` uses the MASS formulation with rolling window
    statistics. Small negative squared distances from floating-point
    cancellation are clamped to zero.
    """
    query = prepare_values(source, query)
    values = source.values
    length = source.length

    if source.normalization is Normalization.PER_WINDOW:
        means = rolling_mean(values, length)
        stds = rolling_std(values, length)
        dot = _sliding_dot(values, query)
        # With ŵ = (w - μ)/σ and Σ ŵ² = l exactly (population std):
        # d² = Σ q² + l - 2 q·ŵ, and q·ŵ = (q·w - μ Σq) / σ.
        query_ssq = float(np.sum(query * query))
        normalized_dot = (dot - query.sum() * means) / stds
        squared = query_ssq + length - 2.0 * normalized_dot
        # Windows whose std was floored normalize to ~zero vectors, so
        # their distance is Σ q². Detect them from the actual variance,
        # not the floored std (a true std of exactly 1.0 is legitimate).
        mean_sq = rolling_mean(values * values, length)
        variance = np.maximum(mean_sq - means * means, 0.0)
        degenerate = np.sqrt(variance) < 1e-12
        if np.any(degenerate):
            squared = np.where(degenerate, query_ssq, squared)
    else:
        csum2 = np.concatenate(
            ([0.0], np.cumsum(values * values, dtype=FLOAT_DTYPE))
        )
        window_ssq = csum2[length:] - csum2[:-length]
        query_ssq = float(np.sum(query * query))
        squared = query_ssq + window_ssq - 2.0 * _sliding_dot(values, query)

    return np.sqrt(np.maximum(squared, 0.0))


def chebyshev_distance_profile(source: WindowSource, query: npt.ArrayLike) -> np.ndarray:
    """Exact Chebyshev distance to every window (O(n·l), vectorized in
    chunks). The ground-truth counterpart of the Euclidean profile —
    the same blockwise kernel the exact-scan k-NN uses
    (:func:`repro.query.planner.scan_distances`)."""
    from ..query.planner import scan_distances

    query = prepare_values(source, query)
    return scan_distances(source, query)


def euclidean_threshold_search(
    source: WindowSource, query: npt.ArrayLike, radius: float
) -> np.ndarray:
    """Positions whose Euclidean distance to ``query`` is ≤ ``radius``."""
    radius = check_non_negative(radius, name="radius")
    profile = euclidean_distance_profile(source, query)
    return np.flatnonzero(profile <= radius)


@dataclasses.dataclass(frozen=True)
class TwinVsEuclidean:
    """Result counts of the intro experiment for one query."""

    epsilon: float
    euclidean_radius: float
    twin_count: int
    euclidean_count: int
    missed_twins: int

    @property
    def excess_factor(self) -> float:
        """How many times more results Euclidean returns than there are
        actual twins (the paper's 127,887 / 1,034 ≈ 124×)."""
        if self.twin_count == 0:
            return float("inf") if self.euclidean_count else 1.0
        return self.euclidean_count / self.twin_count


def twin_vs_euclidean_comparison(
    source: WindowSource, query: npt.ArrayLike, epsilon: float
) -> TwinVsEuclidean:
    """Run the intro experiment for one query.

    Returns both counts plus ``missed_twins`` — the number of true twins
    the Euclidean query at radius ``ε·sqrt(l)`` fails to return, which
    Section 3.1 proves is always zero (asserted here as a property).
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    radius = euclidean_threshold_for(epsilon, source.length)
    query_prepared = prepare_values(source, query)

    chebyshev = chebyshev_distance_profile(source, query_prepared)
    euclidean = euclidean_distance_profile(source, query_prepared)
    twins = chebyshev <= epsilon
    # Guard the no-false-negative bound against FFT round-off with a
    # relative tolerance before counting misses.
    tolerance = radius * 1e-9 + 1e-9
    euclid_hits = euclidean <= radius + tolerance
    missed = int(np.count_nonzero(twins & ~euclid_hits))
    return TwinVsEuclidean(
        epsilon=float(epsilon),
        euclidean_radius=float(radius),
        twin_count=int(np.count_nonzero(twins)),
        euclidean_count=int(np.count_nonzero(euclid_hits)),
        missed_twins=missed,
    )


def spike_discrepancy(query: npt.ArrayLike, window: npt.ArrayLike, *, top: int = 3) -> dict:
    """Figure 1 diagnostic: where a Euclidean match deviates most from
    the query. Returns the ``top`` timestamps with the largest absolute
    difference plus the Chebyshev and Euclidean distances."""
    query = as_float_array(query, name="query")
    window = as_float_array(window, name="window")
    if query.size != window.size:
        raise InvalidParameterError(
            f"query and window lengths differ: {query.size} vs {window.size}"
        )
    differences = np.abs(query - window)
    worst = np.argsort(-differences)[:top]
    return {
        "chebyshev": float(differences.max()),
        "euclidean": float(np.sqrt(np.sum((query - window) ** 2))),
        "worst_timestamps": [int(i) for i in worst],
        "worst_differences": [float(differences[i]) for i in worst],
    }
