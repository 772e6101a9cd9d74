"""Tests for the verification strategies (Section 3.2).

The central property: all strategies return identical results for any
candidate set, threshold and regime.
"""

import numpy as np
import pytest

from repro.core.stats import QueryStats
from repro.core.verification import (
    VERIFICATION_MODES,
    verify,
    verify_positions,
    verify_positions_per_candidate,
)
from repro.exceptions import InvalidParameterError


@pytest.fixture()
def ground_truth(source_global, query_of):
    """Naive twin positions for a fixed query/epsilon."""
    query = query_of(100)
    epsilon = 0.6
    expected = []
    for p in range(source_global.count):
        if np.max(np.abs(source_global.window(p) - query)) <= epsilon:
            expected.append(p)
    return query, epsilon, expected


ALL_POSITIONS = "all"


def _run(strategy, source, query, positions, epsilon):
    if positions is ALL_POSITIONS:
        positions = np.arange(source.count)
    if strategy == "bulk":
        return verify_positions(source, query, positions, epsilon)
    return verify_positions_per_candidate(source, query, positions, epsilon)


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy", ["bulk", "per_candidate"])
    def test_full_scan_matches_naive(self, source_global, ground_truth, strategy):
        query, epsilon, expected = ground_truth
        result = _run(strategy, source_global, query, ALL_POSITIONS, epsilon)
        assert result.positions.tolist() == expected

    @pytest.mark.parametrize("strategy", ["bulk", "per_candidate"])
    def test_subset_of_positions(self, source_global, ground_truth, strategy):
        query, epsilon, expected = ground_truth
        subset = np.arange(0, source_global.count, 3)
        result = _run(strategy, source_global, query, subset, epsilon)
        assert result.positions.tolist() == [p for p in expected if p % 3 == 0]

    @pytest.mark.parametrize("strategy", ["bulk", "per_candidate"])
    def test_empty_candidates(self, source_global, ground_truth, strategy):
        query, epsilon, _ = ground_truth
        result = _run(strategy, source_global, query, np.array([], dtype=int), epsilon)
        assert len(result) == 0

    def test_all_regimes_agree_across_strategies(self, source_of):
        for regime in ("none", "global", "per_window"):
            source = source_of(regime)
            query = np.array(source.window_block(42, 43)[0])
            epsilon = 0.5 if regime != "none" else 0.5 * source.series.std()
            reference = verify_positions(
                source, query, np.arange(source.count), epsilon
            )
            other = _run("per_candidate", source, query, ALL_POSITIONS, epsilon)
            assert np.array_equal(other.positions, reference.positions)
            assert np.allclose(other.distances, reference.distances)


class TestDistances:
    def test_reported_distances_are_exact(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        result = verify_positions(
            source_global, query, np.arange(source_global.count), epsilon
        )
        for position, distance in result:
            window = source_global.window(int(position))
            assert np.isclose(distance, np.max(np.abs(window - query)))

    def test_all_distances_within_epsilon(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        result = verify_positions(
            source_global, query, np.arange(source_global.count), epsilon
        )
        assert np.all(result.distances <= epsilon)

    def test_positions_sorted(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        shuffled = np.random.default_rng(0).permutation(source_global.count)
        result = verify_positions(source_global, query, shuffled, epsilon)
        assert np.all(np.diff(result.positions) > 0)


class TestStats:
    def test_candidate_counting(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        stats = QueryStats()
        result = verify_positions(
            source_global,
            query,
            np.arange(source_global.count),
            epsilon,
            stats=stats,
        )
        assert stats.candidates == source_global.count
        assert stats.verified == source_global.count
        assert stats.matches == len(expected)
        assert result.stats is stats

    def test_filter_ratio(self):
        stats = QueryStats(candidates=25)
        assert stats.filter_ratio(100) == 0.25
        assert stats.filter_ratio(0) == 0.0

    def test_merge(self):
        merged = QueryStats(candidates=1, matches=1).merge(
            QueryStats(candidates=2, nodes_pruned=3)
        )
        assert merged.candidates == 3
        assert merged.matches == 1
        assert merged.nodes_pruned == 3


class TestDispatch:
    def test_verify_dispatch_modes(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        for mode in VERIFICATION_MODES:
            result = verify(
                source_global,
                query,
                np.arange(source_global.count),
                epsilon,
                mode=mode,
            )
            assert result.positions.tolist() == expected

    def test_unknown_mode(self, source_global, ground_truth):
        query, epsilon, _ = ground_truth
        with pytest.raises(InvalidParameterError, match="verification mode"):
            verify(source_global, query, [0], epsilon, mode="turbo")

    def test_negative_epsilon_rejected(self, source_global, ground_truth):
        query, _, _ = ground_truth
        with pytest.raises(InvalidParameterError):
            verify_positions(source_global, query, [0], -1.0)

    def test_small_chunks(self, source_global, ground_truth):
        query, epsilon, expected = ground_truth
        result = verify_positions(
            source_global,
            query,
            np.arange(source_global.count),
            epsilon,
            chunk_size=7,
        )
        assert result.positions.tolist() == expected
