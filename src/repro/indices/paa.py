"""Piecewise Aggregate Approximation (PAA), Keogh et al. 2001.

PAA splits a length-``l`` sequence into ``m`` segments and keeps the
mean of each — the dimensionality reduction underlying SAX (Section 2).
Two forms are provided: a scalar transform for individual sequences and
a vectorized transform producing the PAA matrix of *all* windows of a
series at once via cumulative sums (O(n·m) instead of O(n·l)).

When ``m`` does not divide ``l``, segment boundaries follow
``round(j * l / m)`` so segment sizes differ by at most one — the same
convention in both forms, so index and query agree exactly.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .._util import FLOAT_DTYPE, as_float_array, check_positive_int
from ..core.normalization import Normalization
from ..core.windows import WindowSource
from ..exceptions import InvalidParameterError


def segment_bounds(length: int, segments: int) -> np.ndarray:
    """Integer segment boundaries ``b_0 = 0 < b_1 < ... < b_m = length``.

    Every segment ``[b_j, b_{j+1})`` is non-empty; requires
    ``segments <= length``.
    """
    length = check_positive_int(length, name="length")
    segments = check_positive_int(segments, name="segments")
    if segments > length:
        raise InvalidParameterError(
            f"segments={segments} exceeds sequence length {length}"
        )
    bounds = np.round(np.linspace(0.0, length, segments + 1)).astype(np.int64)
    bounds[0] = 0
    bounds[-1] = length
    return bounds


def paa_transform(sequence: npt.ArrayLike, segments: int) -> np.ndarray:
    """PAA of a single sequence: ``segments`` per-segment means."""
    sequence = as_float_array(sequence, name="sequence")
    bounds = segment_bounds(sequence.size, segments)
    csum = np.concatenate(([0.0], np.cumsum(sequence, dtype=FLOAT_DTYPE)))
    sums = csum[bounds[1:]] - csum[bounds[:-1]]
    sizes = (bounds[1:] - bounds[:-1]).astype(FLOAT_DTYPE)
    return sums / sizes


def paa_matrix(source: WindowSource, segments: int) -> np.ndarray:
    """PAA of every window of ``source`` as a ``(count, segments)`` matrix.

    Computed from one cumulative sum over the underlying buffer; under
    the ``PER_WINDOW`` regime the raw per-segment means are rescaled with
    the rolling window statistics, which is algebraically identical to
    PAA of the normalized window.
    """
    bounds = segment_bounds(source.length, segments)
    values = source.values
    csum = np.concatenate(([0.0], np.cumsum(values, dtype=FLOAT_DTYPE)))
    count = source.count
    sizes = (bounds[1:] - bounds[:-1]).astype(FLOAT_DTYPE)

    matrix = np.empty((count, segments), dtype=FLOAT_DTYPE)
    starts = np.arange(count, dtype=np.int64)
    for j in range(segments):
        lo = starts + int(bounds[j])
        hi = starts + int(bounds[j + 1])
        matrix[:, j] = (csum[hi] - csum[lo]) / sizes[j]

    if source.normalization is Normalization.PER_WINDOW:
        from ..core.normalization import rolling_mean, rolling_std

        means = rolling_mean(values, source.length)
        stds = rolling_std(values, source.length)
        matrix -= means[:, None]
        matrix /= stds[:, None]
    return matrix
