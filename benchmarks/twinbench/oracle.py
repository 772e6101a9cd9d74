"""Brute-force Chebyshev oracle — independent of ``repro``.

Every answer the benchmark checks is checked against this file: a
sliding-window max-abs scan over the plain value buffer, written with
nothing but numpy slices. It shares no code with the program under
test, so a bug in a ``repro`` kernel cannot hide in its own reference.
"""

from __future__ import annotations

import numpy as np

#: Distances must agree to this absolute tolerance; positions exactly.
DISTANCE_TOLERANCE = 1e-9


def znormalize(series: np.ndarray) -> np.ndarray:
    """The GLOBAL regime's value domain: the whole series z-normalized
    once (queries cut from the result are already in the index domain)."""
    series = np.asarray(series, dtype=np.float64)
    return (series - series.mean()) / series.std()


def distance_profile(values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Chebyshev distance of ``query`` (length ``m``) to every
    length-``m`` subsequence of ``values``: ``len(values) - m + 1``
    distances. One pass per query timestamp, so peak memory is two
    arrays of profile size whatever ``m`` is."""
    m = int(query.size)
    count = values.size - m + 1
    profile = np.zeros(count)
    scratch = np.empty(count)
    for j in range(m):
        np.subtract(values[j:j + count], query[j], out=scratch)
        np.abs(scratch, out=scratch)
        np.maximum(profile, scratch, out=profile)
    return profile


def twins(
    values: np.ndarray, query: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, distances)`` of every twin, position-ascending."""
    profile = distance_profile(values, query)
    positions = np.flatnonzero(profile <= epsilon)
    return positions, profile[positions]


def knn(
    values: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest subsequences ranked by ``(distance, position)``."""
    profile = distance_profile(values, query)
    order = np.lexsort((np.arange(profile.size), profile))[:k]
    return order, profile[order]


def pair_distance_scale(
    values: np.ndarray, length: int, pairs: np.ndarray
) -> float:
    """Median Chebyshev distance between the window pairs
    ``(pairs[0][i], pairs[1][i])`` — the scale both benchmark
    thresholds are fixed fractions of.

    A bulk quantile on purpose: it repeats within a percent between
    seeds, where the 10-NN distance (a tail quantile) moves by ±4 %,
    which would move the dense filter ratio by ±12 % (see README,
    "Thresholds")."""
    view = np.lib.stride_tricks.sliding_window_view(values, length)
    return float(np.median(np.abs(view[pairs[0]] - view[pairs[1]]).max(axis=1)))


def same_result(
    positions: np.ndarray,
    distances: np.ndarray,
    expected_positions: np.ndarray,
    expected_distances: np.ndarray,
) -> bool:
    """Positions exact, distances within :data:`DISTANCE_TOLERANCE`."""
    positions = np.asarray(positions)
    if positions.shape != expected_positions.shape:
        return False
    if not np.array_equal(positions, expected_positions):
        return False
    return bool(
        np.all(np.abs(np.asarray(distances) - expected_distances) <= DISTANCE_TOLERANCE)
    )
