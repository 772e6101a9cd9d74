"""Tests for KV-Index (Section 4.1)."""

import numpy as np
import pytest

from repro.core.windows import WindowSource
from repro.exceptions import UnsupportedNormalizationError
from repro.indices.kvindex import KVIndex, KVIndexParams

from conftest import LENGTH


class TestConstruction:
    def test_build(self, series_values):
        index = KVIndex.build(series_values, LENGTH)
        assert index.source.count == len(series_values) - LENGTH + 1

    def test_rejects_per_window(self, source_per_window):
        # Section 4.1: all means are zero under per-window z-norm.
        with pytest.raises(UnsupportedNormalizationError, match="mean"):
            KVIndex.from_source(source_per_window)

    def test_bin_count(self, kvindex_global):
        assert kvindex_global.num_bins == 64

    def test_edges_cover_mean_range(self, kvindex_global, source_global):
        means = source_global.means()
        assert kvindex_global.edges[0] <= means.min()
        assert kvindex_global.edges[-1] >= means.max()

    def test_every_window_in_exactly_one_bin(self, kvindex_global, source_global):
        counted = 0
        seen = set()
        for bin_id in range(kvindex_global.num_bins):
            for start, stop in kvindex_global.bin_intervals(bin_id):
                for position in range(start, stop):
                    assert position not in seen
                    seen.add(position)
                counted += stop - start
        assert counted == source_global.count

    def test_bin_contents_match_edges(self, kvindex_global, source_global):
        means = source_global.means()
        edges = kvindex_global.edges
        for bin_id in range(kvindex_global.num_bins):
            for start, stop in kvindex_global.bin_intervals(bin_id):
                block = means[start:stop]
                assert np.all(block >= edges[bin_id] - 1e-12)
                if bin_id + 1 < kvindex_global.num_bins:
                    assert np.all(block <= edges[bin_id + 1] + 1e-12)

    def test_constant_series_single_bin(self):
        values = np.concatenate([np.full(100, 3.0), [3.0]])
        index = KVIndex.build(values, 10, normalization="none")
        result = index.search(np.full(10, 3.0), 0.0)
        assert len(result) == index.source.count

    def test_params_validation(self):
        with pytest.raises(Exception):
            KVIndexParams(num_bins=0)

    def test_build_stats(self, kvindex_global):
        assert kvindex_global.build_stats.windows == (
            kvindex_global.source.count
        )
        assert kvindex_global.build_stats.nodes == kvindex_global.num_bins

    def test_repr(self, kvindex_global):
        assert "KVIndex" in repr(kvindex_global)
        assert "bins=64" in repr(kvindex_global)


class TestFilterSoundness:
    def test_candidates_include_all_twins(
        self, kvindex_global, sweepline_global, query_of
    ):
        # The mean filter must never lose a twin (Section 4.1 property).
        for position in (10, 400, 1500):
            query = query_of(position)
            for epsilon in (0.0, 0.3, 0.9):
                expected = sweepline_global.search(query, epsilon).positions
                intervals = kvindex_global.candidate_intervals(query, epsilon)
                candidates = set()
                for start, stop in intervals:
                    candidates.update(range(start, stop))
                assert set(expected.tolist()) <= candidates

    def test_mean_bound_property(self, source_global):
        # |mean(S) - mean(S')| <= chebyshev(S, S') for random pairs.
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.integers(0, source_global.count, size=2)
            wa = source_global.window(int(a))
            wb = source_global.window(int(b))
            assert abs(wa.mean() - wb.mean()) <= (
                np.max(np.abs(wa - wb)) + 1e-12
            )

    def test_intervals_merged_and_disjoint(self, kvindex_global, query_of):
        intervals = kvindex_global.candidate_intervals(query_of(77), 0.8)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 < s2  # disjoint and sorted with gaps


class TestSearch:
    def test_matches_sweepline(self, kvindex_global, sweepline_global, query_of):
        for position in (3, 250, 1800):
            query = query_of(position)
            for epsilon in (0.0, 0.3, 0.8, 2.0):
                expected = sweepline_global.search(query, epsilon)
                actual = kvindex_global.search(query, epsilon)
                assert np.array_equal(actual.positions, expected.positions)
                assert np.allclose(actual.distances, expected.distances)

    def test_verification_modes_agree(self, kvindex_global, query_of):
        query = query_of(123)
        reference = kvindex_global.search(query, 0.5)
        other = kvindex_global.search(query, 0.5, verification="per_candidate")
        assert np.array_equal(other.positions, reference.positions)

    def test_raw_regime(self, series_values, query_of):
        source = WindowSource(series_values, LENGTH, "none")
        index = KVIndex.from_source(source)
        query = np.asarray(series_values[100 : 100 + LENGTH])
        assert 100 in index.search(query, 0.0).positions

    def test_query_mean_far_outside_range(self, kvindex_global):
        query = np.full(LENGTH, 1e6)
        result = kvindex_global.search(query, 0.1)
        assert len(result) == 0
        assert result.stats.candidates == 0

    def test_fine_bins_prune_more(self, source_global, query_of):
        coarse = KVIndex.from_source(source_global, params=KVIndexParams(num_bins=4))
        fine = KVIndex.from_source(source_global, params=KVIndexParams(num_bins=512))
        query = query_of(200)
        coarse_stats = coarse.search(query, 0.3).stats
        fine_stats = fine.search(query, 0.3).stats
        assert fine_stats.candidates <= coarse_stats.candidates

    def test_epsilon_covers_everything(self, kvindex_global, query_of):
        result = kvindex_global.search(query_of(0), 100.0)
        assert len(result) == kvindex_global.source.count
