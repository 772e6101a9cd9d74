"""Tests for the k-NN twin search extension (a seeded threshold walk:
the ``k``-th distance under a greedy descent's leaves is the radius of
one exact search, ranked by ``(distance, position)``)."""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.euclidean.mass import chebyshev_distance_profile
from repro.exceptions import InvalidParameterError
from repro.indices import create_method
from repro.query.planner import scan_knn


@pytest.fixture(scope="module")
def index_and_profile(source_global):
    index = TSIndex.from_source(
        source_global, params=TSIndexParams(min_children=4, max_children=10)
    )
    query = np.array(source_global.window_block(321, 322)[0])
    profile = chebyshev_distance_profile(source_global, query)
    return index, query, profile


class TestKnnCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5, 17, 64])
    def test_distances_match_brute_force(self, index_and_profile, k):
        index, query, profile = index_and_profile
        result = index.knn(query, k)
        expected = np.sort(profile)[:k]
        assert len(result) == k
        assert np.allclose(np.sort(result.distances), expected)

    def test_k_one_is_self(self, index_and_profile):
        index, query, _profile = index_and_profile
        result = index.knn(query, 1)
        assert result.distances[0] == 0.0
        assert result.positions[0] == 321

    def test_results_sorted_by_distance(self, index_and_profile):
        index, query, _profile = index_and_profile
        result = index.knn(query, 10)
        assert np.all(np.diff(result.distances) >= 0)

    def test_k_larger_than_index(self, source_global):
        small = TSIndex.build(
            np.asarray(source_global.series)[:80], 50, normalization="none"
        )
        result = small.knn(np.asarray(source_global.series)[:50], 1000)
        assert len(result) == small.size

    def test_positions_unique(self, index_and_profile):
        index, query, _profile = index_and_profile
        result = index.knn(query, 25)
        assert len(set(result.positions.tolist())) == 25


class TestKnnValidation:
    def test_rejects_zero_k(self, index_and_profile):
        index, query, _ = index_and_profile
        with pytest.raises(InvalidParameterError):
            index.knn(query, 0)

    def test_rejects_too_long_query(self, index_and_profile):
        # Shorter queries are served (variable-length prefix scan);
        # only queries longer than the indexed windows are malformed.
        index, _, _ = index_and_profile
        with pytest.raises(Exception):
            index.knn(np.zeros(index.length + 1), 2)

    def test_shorter_query_served(self, index_and_profile):
        index, query, _ = index_and_profile
        result = index.knn(np.array(query[:10]), 1)
        assert result.distances[0] == 0.0
        assert result.positions[0] == 321


class TestKnnEfficiency:
    def test_prunes_nodes(self, index_and_profile):
        index, query, _ = index_and_profile
        result = index.knn(query, 1)
        # The seeded walk must not touch every leaf for k=1.
        assert result.stats.leaves_accessed < sum(
            1 for node, _ in index.iter_nodes() if node.is_leaf
        )

    def test_consistent_with_range_search(self, index_and_profile):
        # The k-th NN distance defines a range query returning >= k hits.
        index, query, _ = index_and_profile
        result = index.knn(query, 8)
        radius = float(result.distances[-1])
        range_result = index.search(query, radius)
        assert len(range_result) >= 8
        assert set(result.positions.tolist()) <= set(
            range_result.positions.tolist()
        )


# ----------------------------------------------------------------------
# Edge cases, every TS-Index plane against the exact scan
# ----------------------------------------------------------------------
EDGE_LENGTH = 32


def _edge_series() -> np.ndarray:
    """A random walk with one window planted at four places, so a query
    shifted off it ties those four at one distance."""
    series = np.cumsum(np.random.default_rng(23).normal(size=1400))
    for start in (160, 610, 900, 1230):
        series[start : start + EDGE_LENGTH] = series[300 : 300 + EDGE_LENGTH]
    return series


EDGE_SERIES = _edge_series()
#: Windows of the series: 1,369.
EDGE_WINDOWS = EDGE_SERIES.size - EDGE_LENGTH + 1
HALF = EDGE_LENGTH // 2


def _window(start: int, shift: float = 0.0) -> np.ndarray:
    return np.array(EDGE_SERIES[start : start + EDGE_LENGTH]) + shift


#: ``name -> (normalization, query, k, exclude)``.
EDGE_CASES = {
    # A matrix-profile zone of ±l/2 around the query's own window, which
    # covers the leaves a descent toward that window reaches first.
    "self_zone_k1": ("none", _window(700), 1, (700 - HALF, 700 + HALF + 1)),
    # A zone that also covers every leaf near the query.
    "wide_zone_k1": ("none", _window(700), 1, (100, EDGE_WINDOWS)),
    # k above the windows left outside the zone: all of them come back.
    "k_above_outside_zone": ("none", _window(40), 60, (50, EDGE_WINDOWS)),
    "k_equals_size": ("none", _window(500), EDGE_WINDOWS, None),
    "k_above_size": ("none", _window(500), EDGE_WINDOWS + 7, None),
    # The planted window's five copies tie at the k-th distance; the
    # smallest positions win.
    "ties_at_kth": ("none", _window(300, shift=0.25), 3, None),
    "ties_at_kth_zone": ("none", _window(300, shift=0.25), 2, (150, 320)),
    "per_window": ("per_window", _window(820), 6, (820 - HALF, 820 + HALF + 1)),
}

EDGE_PLANES = {
    "frozen": {},
    "sharded": {"shards": 2},
    "live": {"seal_threshold": 256},
}


@pytest.fixture(scope="module")
def edge_planes():
    built = {}
    for normalization in ("none", "per_window"):
        for name, options in EDGE_PLANES.items():
            built[name, normalization] = create_method(
                name, EDGE_SERIES, EDGE_LENGTH, normalization=normalization, **options
            )
    assert built["live", "none"].delta_windows > 0
    yield built
    for (name, _), plane in built.items():
        if name == "live":
            plane.close()


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("plane", sorted(EDGE_PLANES))
def test_knn_edge_cases_match_the_scan(edge_planes, plane, case):
    normalization, query, k, exclude = EDGE_CASES[case]
    source = WindowSource(EDGE_SERIES, EDGE_LENGTH, normalization)
    expected = scan_knn(source, query, k, exclude=exclude)
    result = edge_planes[plane, normalization].knn(query, k, exclude=exclude)
    assert np.array_equal(result.positions, expected.positions)
    assert np.array_equal(result.distances, expected.distances)
    if case.startswith("ties"):
        # The window after the k-th ties with it: the tie-break decides.
        one_more = scan_knn(source, query, k + 1, exclude=exclude)
        assert one_more.distances[k] == expected.distances[-1]
