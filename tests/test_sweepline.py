"""Tests for the sweepline baseline (Sections 1, 3.2)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.indices.sweepline import SweeplineSearch

from conftest import LENGTH


class TestConstruction:
    def test_build_from_values(self, series_values):
        scan = SweeplineSearch.build(series_values, LENGTH)
        assert scan.source.count == len(series_values) - LENGTH + 1

    def test_from_source(self, source_global):
        scan = SweeplineSearch.from_source(source_global)
        assert scan.source is source_global

    def test_rejects_unknown_options(self, source_global):
        with pytest.raises(TypeError):
            SweeplineSearch.from_source(source_global, fancy=True)

    def test_build_stats_trivial(self, sweepline_global):
        assert sweepline_global.build_stats.nodes == 0
        assert sweepline_global.build_stats.windows == (
            sweepline_global.source.count
        )

    def test_repr(self, sweepline_global):
        assert "SweeplineSearch" in repr(sweepline_global)


class TestSearch:
    def test_self_match(self, sweepline_global, query_of):
        assert 42 in sweepline_global.search(query_of(42), 0.0).positions

    def test_scans_every_window(self, sweepline_global, query_of):
        result = sweepline_global.search(query_of(0), 0.5)
        assert result.stats.candidates == sweepline_global.source.count

    def test_monotone_in_epsilon(self, sweepline_global, query_of):
        query = query_of(10)
        previous = -1
        for epsilon in (0.0, 0.2, 0.5, 1.0, 2.0):
            count = len(sweepline_global.search(query, epsilon))
            assert count >= previous
            previous = count

    def test_verification_modes_agree(self, sweepline_global, query_of):
        query = query_of(55)
        reference = sweepline_global.search(query, 0.6)
        other = sweepline_global.search(query, 0.6, verification="per_candidate")
        assert np.array_equal(other.positions, reference.positions)

    def test_negative_epsilon(self, sweepline_global, query_of):
        with pytest.raises(InvalidParameterError):
            sweepline_global.search(query_of(0), -1.0)


class TestPurePythonReference:
    def test_matches_vectorized(self, series_values):
        scan = SweeplineSearch.build(series_values[:400], 30, normalization="global")
        query = np.array(scan.source.window_block(17, 18)[0])
        for epsilon in (0.0, 0.4, 1.0):
            fast = scan.search(query, epsilon)
            slow = scan.search_pure_python(query, epsilon)
            assert np.array_equal(fast.positions, slow.positions)
            assert np.allclose(fast.distances, slow.distances)

    def test_pure_python_counts(self, series_values):
        scan = SweeplineSearch.build(series_values[:200], 30, normalization="none")
        query = np.asarray(series_values[:30])
        result = scan.search_pure_python(query, 0.1)
        assert result.stats.candidates == scan.source.count
