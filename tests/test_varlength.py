"""Variable-length twin queries: native tree kernel, typed errors and
block-bounded verification.

Cross-plane equivalence (all seven planes vs the brute-force prefix
scan, engine serving, cache isolation) lives in
``tests/test_varlength_planes.py``; this module covers the TS-Index
kernel itself plus the bugfix satellites:

* :class:`~repro.exceptions.IncompatibleQueryError` carries the
  offending query length in ``received`` (it used to always be
  ``None``);
* verification is block-bounded and identical across every strategy
  (the old extension materialized the full candidate matrix in one
  shot).
"""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.exceptions import (
    IncompatibleQueryError,
    InvalidParameterError,
    UnsupportedCapabilityError,
    UnsupportedNormalizationError,
)
from repro.query import QuerySpec, execute

from conftest import LENGTH


def _naive(values: np.ndarray, query: np.ndarray, epsilon: float):
    m = query.size
    return [
        p
        for p in range(values.size - m + 1)
        if np.max(np.abs(values[p : p + m] - query)) <= epsilon
    ]


class TestCorrectness:
    @pytest.mark.parametrize("m", [5, 17, 30, LENGTH])
    def test_matches_naive_raw(self, series_values, m):
        source = WindowSource(series_values[:900], LENGTH, "none")
        index = TSIndex.from_source(
            source, params=TSIndexParams(min_children=4, max_children=10)
        )
        query = np.asarray(series_values[200 : 200 + m])
        for epsilon in (0.0, 0.2, 0.8):
            result = index.search_varlength(query, epsilon)
            assert result.positions.tolist() == _naive(
                source.values, query, epsilon
            )

    def test_full_length_agrees_with_search(
        self, tsindex_global, query_of
    ):
        query = query_of(123)
        for epsilon in (0.0, 0.4):
            expected = tsindex_global.search(query, epsilon)
            actual = tsindex_global.search_varlength(query, epsilon)
            assert np.array_equal(actual.positions, expected.positions)
            assert np.array_equal(actual.distances, expected.distances)
            assert actual.stats == expected.stats

    def test_tail_positions_found(self, series_values):
        # A short query matching at a position with no full l-window.
        values = np.asarray(series_values[:300])
        source = WindowSource(values, 100, "none")
        index = TSIndex.from_source(source)
        m = 20
        tail_position = values.size - m  # inside the unindexed tail
        query = values[tail_position : tail_position + m]
        result = index.search_varlength(query, 0.0)
        assert tail_position in result.positions

    def test_global_regime_in_normalized_domain(self, tsindex_global, source_global):
        m = 25
        query = np.array(source_global.values[500 : 500 + m])
        result = tsindex_global.search_varlength(query, 0.0)
        assert 500 in result.positions

    def test_distances_reported(self, tsindex_global, source_global):
        m = 30
        query = np.array(source_global.values[100 : 100 + m])
        result = tsindex_global.search_varlength(query, 0.3)
        for position, distance in result:
            window = source_global.values[int(position) : int(position) + m]
            assert np.isclose(distance, np.max(np.abs(window - query)))

    def test_positions_sorted(self, tsindex_global, source_global):
        query = np.array(source_global.values[40:70])
        result = tsindex_global.search_varlength(query, 0.5)
        assert np.all(np.diff(result.positions) > 0)


class TestPruning:
    def test_prunes_nodes(self, tsindex_global, source_global):
        query = np.array(source_global.values[900:940])
        result = tsindex_global.search_varlength(query, 0.1)
        assert result.stats.nodes_pruned > 0

    def test_shorter_query_weaker_pruning(self, tsindex_global, source_global):
        # Fewer constrained timestamps -> no more pruning than full length.
        short = np.array(source_global.values[900:910])
        full = np.array(source_global.values[900 : 900 + LENGTH])
        short_stats = tsindex_global.search_varlength(short, 0.2).stats
        full_stats = tsindex_global.search_varlength(full, 0.2).stats
        assert short_stats.candidates >= full_stats.candidates - LENGTH


class TestBlockBoundedVerification:
    """The memory satellite: verification routes through the chunked
    strategies (no one-shot ``view[positions]`` candidate matrix), and
    every strategy returns identical results."""

    @pytest.mark.parametrize("m", [10, 33, LENGTH - 1])
    def test_strategies_identical(self, tsindex_global, source_global, m):
        query = np.array(source_global.values[700 : 700 + m])
        bulk = tsindex_global.search_varlength(
            query, 0.6, verification="bulk"
        )
        per_candidate = tsindex_global.search_varlength(
            query, 0.6, verification="per_candidate"
        )
        assert np.array_equal(bulk.positions, per_candidate.positions)
        assert np.array_equal(bulk.distances, per_candidate.distances)

    def test_routes_through_chunked_verifier(self, monkeypatch, series_values):
        """Even with every window a candidate, verification goes through
        the chunked kernel (peak memory one ``chunk × m`` block), not a
        one-shot ``sliding_window_view(values, m)[positions]`` gather —
        and a tiny chunk size changes nothing about the answer."""
        import repro.core.verification as verification

        source = WindowSource(series_values[:1200], LENGTH, "none")
        index = TSIndex.from_source(source)
        m = 16
        calls = []
        original = verification.verify_positions

        def tiny_chunks(source, query, positions, epsilon, **kwargs):
            kwargs["chunk_size"] = 64
            calls.append(int(np.asarray(positions).size))
            return original(source, query, positions, epsilon, **kwargs)

        monkeypatch.setattr(verification, "verify_positions", tiny_chunks)
        query = np.array(series_values[:m])
        result = index.search_varlength(query, 1e9)  # everything matches
        assert calls == [source.values.size - m + 1]
        assert result.positions.size == source.values.size - m + 1
        assert result.stats.matches == result.positions.size


class TestTypedErrors:
    def test_rejects_per_window(self, source_per_window):
        index = TSIndex.from_source(source_per_window)
        with pytest.raises(UnsupportedNormalizationError):
            index.search_varlength(np.zeros(10), 0.1)

    def test_rejects_per_window_on_frozen(self, source_per_window):
        frozen = TSIndex.from_source(source_per_window).freeze()
        with pytest.raises(UnsupportedNormalizationError):
            frozen.search_varlength(np.zeros(10), 0.1)

    def test_rejects_too_long_query(self, tsindex_global):
        with pytest.raises(IncompatibleQueryError, match="exceeds") as info:
            tsindex_global.search_varlength(np.zeros(LENGTH + 1), 0.1)
        assert info.value.expected == LENGTH
        assert info.value.received == LENGTH + 1

    def test_rejects_negative_epsilon(self, tsindex_global):
        with pytest.raises(InvalidParameterError):
            tsindex_global.search_varlength(np.zeros(10), -1.0)

    def test_incompatible_error_carries_received_length(self, tsindex_global):
        """Satellite regression: the query-mismatch error used to read
        ``received=None``; it must name the offending query length."""
        with pytest.raises(IncompatibleQueryError) as info:
            tsindex_global.search(np.zeros(LENGTH + 7), 0.1)
        assert info.value.expected == LENGTH
        assert info.value.received == LENGTH + 7
        assert "expected=50" in str(info.value)
        assert "received=57" in str(info.value)
        # Higher-dimensional garbage reports its shape instead.
        with pytest.raises(IncompatibleQueryError) as info:
            tsindex_global.knn(np.zeros((2, LENGTH)), 3)
        assert info.value.expected == LENGTH
        assert info.value.received == (2, LENGTH)

    def test_non_plane_target_raises_typed_error(self):
        with pytest.raises(UnsupportedCapabilityError, match="no.*search"):
            execute(
                object(),
                QuerySpec(query=np.zeros(8), mode="search", epsilon=0.1),
            )

