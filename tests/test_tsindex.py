"""Tests for TS-Index construction and queries (Section 5)."""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.data import synthetic
from repro.exceptions import IncompatibleQueryError, InvalidParameterError

from conftest import LENGTH


class TestParams:
    def test_defaults_match_paper(self):
        params = TSIndexParams()
        assert params.min_children == 10
        assert params.max_children == 30

    def test_rejects_incompatible_capacities(self):
        with pytest.raises(InvalidParameterError, match="2 \\* min_children"):
            TSIndexParams(min_children=10, max_children=15)

    def test_rejects_bad_split_metric(self):
        with pytest.raises(InvalidParameterError, match="split_metric"):
            TSIndexParams(split_metric="volume")

    def test_max_metric_allowed(self):
        assert TSIndexParams(split_metric="max").split_metric == "max"

    def test_frozen(self):
        with pytest.raises(Exception):
            TSIndexParams().min_children = 5


class TestConstruction:
    def test_build_from_values(self, series_values):
        index = TSIndex.build(series_values, LENGTH)
        assert index.size == len(series_values) - LENGTH + 1

    def test_single_window_tree(self):
        index = TSIndex.build(np.arange(10.0), 10, normalization="none")
        assert index.size == 1
        assert index.height == 1
        assert index.node_count == 1

    def test_leaf_root_below_capacity(self):
        values = synthetic.random_walk(30, seed=0)
        index = TSIndex.build(values, 10, normalization="none")
        assert index.size == 21
        # 21 windows fit in one leaf at the default Mc = 30.
        assert index.height == 1
        assert index.node_count == 1

    def test_small_capacity_forces_splits(self, tsindex_global):
        assert tsindex_global.height >= 3
        assert tsindex_global.build_stats.splits > 0

    def test_build_stats_populated(self, tsindex_global):
        stats = tsindex_global.build_stats
        assert stats.windows == tsindex_global.size
        assert stats.seconds > 0
        assert stats.nodes == tsindex_global.node_count
        assert stats.height == tsindex_global.height

    def test_repr(self, tsindex_global):
        text = repr(tsindex_global)
        assert "TSIndex" in text
        assert str(tsindex_global.size) in text

    def test_incremental_insert(self, source_global):
        index = TSIndex(source_global, TSIndexParams(min_children=4, max_children=10))
        for position in range(50):
            index.insert(position)
        result = index.search(source_global.window_block(25, 26)[0], 0.0)
        assert 25 in result.positions

    def test_insert_out_of_range(self, source_global):
        index = TSIndex(source_global)
        with pytest.raises(InvalidParameterError):
            index.insert(source_global.count)


class TestQueries:
    def test_self_match_at_zero_epsilon(self, tsindex_global, source_global):
        for position in (0, 57, 500, source_global.count - 1):
            query = source_global.window_block(position, position + 1)[0]
            result = tsindex_global.search(query, 0.0)
            assert position in result.positions

    def test_matches_sweepline(self, tsindex_global, sweepline_global, query_of):
        for position in (3, 250, 1800):
            query = query_of(position)
            for epsilon in (0.0, 0.3, 0.8, 2.0):
                expected = sweepline_global.search(query, epsilon)
                actual = tsindex_global.search(query, epsilon)
                assert np.array_equal(actual.positions, expected.positions)
                assert np.allclose(actual.distances, expected.distances)

    def test_verification_modes_identical(self, tsindex_global, query_of):
        query = query_of(321)
        reference = tsindex_global.search(query, 0.7)
        other = tsindex_global.search(query, 0.7, verification="per_candidate")
        assert np.array_equal(other.positions, reference.positions)

    def test_count_matches_search(self, tsindex_global, query_of):
        query = query_of(99)
        assert tsindex_global.count(query, 0.5) == len(
            tsindex_global.search(query, 0.5)
        )

    def test_wrong_query_length(self, tsindex_global):
        with pytest.raises(IncompatibleQueryError):
            tsindex_global.search(np.zeros(LENGTH + 1), 0.5)

    def test_negative_epsilon(self, tsindex_global, query_of):
        with pytest.raises(InvalidParameterError):
            tsindex_global.search(query_of(0), -0.5)

    def test_epsilon_zero_exact_duplicates_only(self, tsindex_global, query_of):
        query = query_of(10)
        result = tsindex_global.search(query, 0.0)
        assert np.all(result.distances == 0.0)

    def test_stats_pruning_consistency(self, tsindex_global, query_of):
        result = tsindex_global.search(query_of(444), 0.4)
        stats = result.stats
        assert stats.candidates >= stats.matches
        assert stats.nodes_visited > 0
        assert stats.leaves_accessed > 0

    def test_huge_epsilon_returns_everything(self, tsindex_global, source_global, query_of):
        result = tsindex_global.search(query_of(0), 1e9)
        assert len(result) == source_global.count

    def test_candidates_superset_of_matches(self, tsindex_global, query_of):
        result = tsindex_global.search(query_of(77), 0.3)
        assert result.stats.candidates >= len(result)


class TestNormalizationRegimes:
    @pytest.mark.parametrize("regime", ["none", "global", "per_window"])
    def test_self_match_each_regime(self, series_values, regime):
        source = WindowSource(series_values[:800], LENGTH, regime)
        index = TSIndex.from_source(
            source, params=TSIndexParams(min_children=4, max_children=10)
        )
        query = np.array(source.window_block(123, 124)[0])
        assert 123 in index.search(query, 0.0).positions

    def test_per_window_prepares_queries(self, series_values):
        source = WindowSource(series_values[:800], LENGTH, "per_window")
        index = TSIndex.from_source(source)
        # A raw (un-normalized) query must be z-normalized internally.
        raw_query = np.array(series_values[123 : 123 + LENGTH]) * 5.0 + 40.0
        assert 123 in index.search(raw_query, 1e-9).positions


class TestSplitMetricAblation:
    def test_max_metric_still_correct(self, series_values, sweepline_global, source_global):
        index = TSIndex.from_source(
            source_global,
            params=TSIndexParams(min_children=4, max_children=10, split_metric="max"),
        )
        query = np.array(source_global.window_block(200, 201)[0])
        expected = sweepline_global.search(query, 0.6)
        actual = index.search(query, 0.6)
        assert np.array_equal(actual.positions, expected.positions)


class TestIterNodes:
    def test_counts_agree(self, tsindex_global):
        nodes = list(tsindex_global.iter_nodes())
        assert len(nodes) == tsindex_global.node_count

    def test_depth_range(self, tsindex_global):
        depths = [depth for _node, depth in tsindex_global.iter_nodes()]
        assert min(depths) == 0
        assert max(depths) == tsindex_global.height - 1
