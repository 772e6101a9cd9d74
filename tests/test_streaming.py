"""The never-sealing live plane (``LiveTwinIndex(seal_threshold=None)``)
— the shape the removed ``StreamingTwinIndex`` shim served, asked of
the plane itself. Nothing is ever sealed, so nothing is ever indexed:
every query is a linear scan over everything appended — the paper's
sweepline, by request."""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.data import synthetic
from repro.exceptions import InvalidParameterError
from repro.indices.sweepline import SweeplineSearch
from repro.live import LiveTwinIndex


def _stream(values, length, **options):
    return LiveTwinIndex(values, length, seal_threshold=None, **options)


@pytest.fixture()
def stream():
    values = synthetic.random_walk(300, seed=1)
    return _stream(
        values, length=40,
        params=TSIndexParams(min_children=4, max_children=10),
    )


class TestConstruction:
    def test_initial_window_count(self, stream):
        assert stream.series_length == 300
        assert stream.window_count == 261

    def test_repr(self, stream):
        assert "LiveTwinIndex" in repr(stream)


class TestAppend:
    def test_single_reading(self, stream):
        added = stream.append(1.5)
        assert added == 1
        assert stream.series_length == 301
        assert stream.window_count == 262

    def test_batch(self, stream):
        added = stream.append(np.arange(25.0))
        assert added == 25

    def test_values_preserved(self, stream):
        before = np.array(stream.values)
        stream.append(np.arange(5.0))
        assert np.array_equal(stream.values[:300], before)
        assert np.array_equal(stream.values[300:], np.arange(5.0))

    def test_growth_beyond_capacity(self):
        stream = _stream(np.zeros(64), length=16)
        stream.append(np.random.default_rng(0).normal(size=5000))
        assert stream.series_length == 5064
        assert stream.window_count == 5049

    def test_rejects_nan(self, stream):
        with pytest.raises(InvalidParameterError, match="NaN"):
            stream.append([1.0, float("nan")])

    def test_rejects_empty(self, stream):
        with pytest.raises(InvalidParameterError):
            stream.append(np.array([]))


class TestQueriesTrackTheStream:
    def test_matches_batch_built_index(self):
        rng = np.random.default_rng(3)
        initial = rng.normal(size=200)
        extra = rng.normal(size=150)
        stream = _stream(initial, length=30)
        stream.append(extra)

        full = np.concatenate([initial, extra])
        reference = SweeplineSearch.build(full, 30, normalization="none")
        query = full[310:340]
        for epsilon in (0.0, 0.5, 1.5):
            expected = reference.search(query, epsilon)
            actual = stream.search(query, epsilon)
            assert np.array_equal(actual.positions, expected.positions)

    def test_new_pattern_becomes_findable(self, stream):
        pattern = np.sin(np.linspace(0, 3, 40)) * 10.0
        assert not stream.exists(pattern, epsilon=0.5)
        stream.append(pattern)
        assert stream.exists(pattern, epsilon=1e-9)
        result = stream.search(pattern, epsilon=1e-9)
        assert result.positions[-1] == stream.window_count - 1

    def test_knn_sees_appended_windows(self, stream):
        pattern = np.cos(np.linspace(0, 5, 40)) * 7.0
        stream.append(pattern)
        nearest = stream.knn(pattern, 1)
        assert nearest.distances[0] < 1e-9

    def test_incremental_equals_insert_order_tree(self):
        # Appending one-by-one must yield the same answers as building
        # a TSIndex over the final series by sequential insertion.
        values = synthetic.noisy_sines(260, seed=9)
        stream = _stream(values[:100], length=25)
        for value in values[100:]:
            stream.append(float(value))
        batch = TSIndex.build(values, 25, normalization="none")
        query = values[200:225]
        for epsilon in (0.0, 0.3):
            assert np.array_equal(
                stream.search(query, epsilon).positions,
                batch.search(query, epsilon).positions,
            )


class TestLiveShim:
    def test_backed_by_never_sealing_live_plane(self, stream):
        stream.append(synthetic.random_walk(600, seed=8))
        # seal_threshold=None: everything stays in the scanned delta,
        # and a query verifies every window of it and visits no node.
        assert stream.segment_count == 0
        assert stream.delta_windows == stream.window_count
        stats = stream.search(stream.values[400:440], 0.5).stats
        assert stats.candidates == stats.verified == stream.window_count
        assert stats.nodes_visited == stats.leaves_accessed == 0

    def test_per_window_regime_now_supported(self):
        # The znorm-per-window restriction is lifted: per-window
        # scaling depends only on each window's own values, so it is
        # append-safe; answers must match a from-scratch index.
        rng = np.random.default_rng(21)
        initial, extra = rng.normal(size=120), rng.normal(size=90)
        stream = _stream(initial, length=20, normalization="per_window")
        stream.append(extra)
        full = np.concatenate([initial, extra])
        reference = TSIndex.build(full, 20, normalization="per_window")
        query = np.array(reference.source.window_block(150, 151)[0])
        for epsilon in (0.0, 0.4):
            expected = reference.search(query, epsilon)
            actual = stream.search(query, epsilon)
            assert np.array_equal(actual.positions, expected.positions)
            assert np.array_equal(actual.distances, expected.distances)

    def test_global_regime_still_rejected(self):
        from repro.exceptions import UnsupportedNormalizationError

        with pytest.raises(UnsupportedNormalizationError):
            _stream(np.arange(64.0), length=16, normalization="global")
