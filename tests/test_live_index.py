"""Equivalence and lifecycle tests for the live ingestion plane.

The load-bearing suite is :class:`TestRandomizedEquivalence`: randomized
append/query interleavings whose answers must be **byte-identical** to a
from-scratch TSIndex over the full series — positions, distances and
k-NN tie-breaks — across seals and compactions, in both the raw and the
per-window regimes.
"""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.data import synthetic
from repro.exceptions import (
    IncompatibleQueryError,
    IndexNotBuiltError,
    InvalidParameterError,
    UnsupportedNormalizationError,
)
from repro.indices.base import SubsequenceIndex, create_method
from repro.live import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_SEAL_THRESHOLD,
    LiveTwinIndex,
    Segment,
    merge_segments,
    select_adjacent_pair,
)

PARAMS = TSIndexParams(min_children=2, max_children=4)

#: Small thresholds so every test exercises seals and compactions.
SMALL = dict(params=PARAMS, seal_threshold=12, max_segments=2)


def reference(live: LiveTwinIndex) -> TSIndex:
    """A from-scratch TSIndex over the live plane's current series."""
    return TSIndex.build(
        np.array(live.values),
        length=live.length,
        normalization=live.normalization,
        params=live.params,
    )


def assert_results_equal(actual, expected, label=""):
    assert np.array_equal(actual.positions, expected.positions), label
    assert np.array_equal(actual.distances, expected.distances), label


class TestConstruction:
    def test_empty_start(self):
        live = LiveTwinIndex(length=16, **SMALL)
        assert live.series_length == 0
        assert live.window_count == 0
        assert len(live.search(np.zeros(16), 1.0)) == 0
        assert live.exists(np.zeros(16), 0.0) is False
        assert len(live.knn(np.zeros(16), 3)) == 0
        with pytest.raises(IndexNotBuiltError):
            live.source

    def test_short_initial_buffers_until_first_window(self):
        live = LiveTwinIndex(np.arange(10.0), length=16, **SMALL)
        assert live.window_count == 0
        assert live.append(np.arange(6.0)) == 1
        assert live.window_count == 1

    def test_initial_series_seals(self):
        live = LiveTwinIndex(
            synthetic.random_walk(200, seed=0), length=16, **SMALL
        )
        assert live.seal_count >= 1
        assert live.segment_count >= 1
        assert live.window_count == 185

    def test_global_normalization_rejected(self):
        with pytest.raises(UnsupportedNormalizationError):
            LiveTwinIndex(np.arange(64.0), length=16, normalization="global")

    def test_invalid_readings(self):
        live = LiveTwinIndex(np.arange(32.0), length=16, **SMALL)
        with pytest.raises(InvalidParameterError, match="NaN"):
            live.append([1.0, float("nan")])
        with pytest.raises(InvalidParameterError, match="non-empty"):
            live.append([])
        with pytest.raises(InvalidParameterError, match="non-empty"):
            live.append(np.zeros((2, 2)))

    def test_query_length_mismatch(self):
        live = LiveTwinIndex(np.arange(64.0), length=16, **SMALL)
        with pytest.raises(IncompatibleQueryError) as info:
            live.search(np.zeros(24), 1.0)
        assert info.value.expected == 16
        assert info.value.received == 24
        # Shorter queries are the variable-length workload, not an
        # error: an 8-prefix of a window matches at its own position.
        result = live.search(np.arange(8.0), 0.0)
        assert 0 in result.positions

    def test_repr_and_values(self):
        live = LiveTwinIndex(np.arange(40.0), length=16, **SMALL)
        assert "LiveTwinIndex" in repr(live)
        values = live.values
        assert not values.flags.writeable
        assert np.array_equal(values, np.arange(40.0))

    def test_defaults_exported(self):
        assert DEFAULT_SEAL_THRESHOLD > 0
        assert DEFAULT_MAX_SEGMENTS > 0


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("normalization", ["none", "per_window"])
    def test_interleaved_appends_and_queries(self, normalization):
        rng = np.random.default_rng(11)
        live = LiveTwinIndex(
            rng.normal(size=70),
            length=16,
            normalization=normalization,
            **SMALL,
        )
        for step in range(25):
            live.append(rng.normal(size=int(rng.integers(1, 14))))
            if step % 3:
                continue
            ref = reference(live)
            position = int(rng.integers(ref.source.count))
            query = np.array(
                ref.source.window_block(position, position + 1)[0]
            )
            epsilon = float(rng.uniform(0.0, 2.0))
            assert_results_equal(
                live.search(query, epsilon),
                ref.search(query, epsilon),
                f"search step={step}",
            )
            k = int(rng.integers(1, 9))
            assert_results_equal(
                live.knn(query, k), ref.knn(query, k), f"knn step={step}"
            )
            assert live.exists(query, 0.0) is True
            probe = rng.normal(size=16)
            assert live.exists(probe, 0.5) == (
                len(ref.search(probe, 0.5)) > 0
            )
        # The interleaving must have exercised the whole lifecycle.
        live.compact()
        assert live.seal_count >= 1
        assert live.compaction_count >= 1

    @pytest.mark.parametrize("normalization", ["none", "per_window"])
    def test_batch_matches_per_query(self, normalization):
        rng = np.random.default_rng(12)
        live = LiveTwinIndex(
            rng.normal(size=150),
            length=16,
            normalization=normalization,
            **SMALL,
        )
        live.append(rng.normal(size=60))
        ref = reference(live)
        queries = [
            np.array(ref.source.window_block(p, p + 1)[0])
            for p in (0, 40, 120)
        ] + [rng.normal(size=16)]
        batch = live.search_batch(queries, 0.8)
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            assert_results_equal(result, ref.search(query, 0.8))

    def test_exclusion_zone_matches(self):
        rng = np.random.default_rng(13)
        live = LiveTwinIndex(rng.normal(size=160), length=16, **SMALL)
        live.append(rng.normal(size=40))
        ref = reference(live)
        query = np.array(ref.source.window_block(50, 51)[0])
        exclude = (35, 66)
        assert_results_equal(
            live.knn(query, 6, exclude=exclude),
            ref.knn(query, 6, exclude=exclude),
        )
        assert not np.any(
            (live.knn(query, 6, exclude=exclude).positions >= 35)
            & (live.knn(query, 6, exclude=exclude).positions < 66)
        )

    def test_knn_k_larger_than_windows(self):
        live = LiveTwinIndex(np.arange(40.0), length=16, **SMALL)
        result = live.knn(np.arange(16.0), 1000)
        assert len(result) == live.window_count

    def test_incremental_window_stats_bitwise_exact(self):
        # The per-window source is assembled from incrementally
        # extended rolling statistics; they must equal a from-scratch
        # WindowSource's arrays bitwise at every step, or distances
        # drift by ulps and byte-identity collapses.
        from repro.core.windows import WindowSource

        rng = np.random.default_rng(15)
        live = LiveTwinIndex(
            rng.normal(size=90) * 50 + 1e5,
            length=16,
            normalization="per_window",
            **SMALL,
        )
        for _ in range(20):
            live.append(rng.normal(size=int(rng.integers(1, 25))) * 50 + 1e5)
            fresh = WindowSource(np.array(live.values), 16, "per_window")
            assert np.array_equal(live.source._means, fresh._means)
            assert np.array_equal(live.source._stds, fresh._stds)

    def test_executor_fanout_identical(self):
        import concurrent.futures

        rng = np.random.default_rng(14)
        live = LiveTwinIndex(rng.normal(size=220), length=16, **SMALL)
        query = np.array(live.values[30:46])
        serial = live.search(query, 0.7)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            fanned = live.search(query, 0.7, executor=pool)
            knn_fanned = live.knn(query, 5, executor=pool)
        assert_results_equal(fanned, serial)
        assert_results_equal(knn_fanned, live.knn(query, 5))


class TestSealAndCompaction:
    def test_force_seal(self):
        live = LiveTwinIndex(
            np.arange(64.0), length=16, params=PARAMS, seal_threshold=None
        )
        assert live.segment_count == 0
        assert live.seal() is True
        assert live.segment_count == 1
        assert live.delta_windows == 0
        assert live.seal() is False  # nothing left to seal
        # queries still exact after a forced seal
        ref = reference(live)
        query = np.array(ref.source.window_block(9, 10)[0])
        assert_results_equal(live.search(query, 0.5), ref.search(query, 0.5))

    def test_segment_overlap_is_l_minus_1(self):
        live = LiveTwinIndex(
            synthetic.random_walk(400, seed=3), length=16, **SMALL
        )
        for first, second in zip(live.segments, live.segments[1:]):
            assert first.stop == second.start
            a = first.index.source.series.values
            b = second.index.source.series.values
            assert np.array_equal(a[-15:], b[:15])

    def test_compaction_bounds_segment_count(self):
        live = LiveTwinIndex(
            synthetic.random_walk(700, seed=4), length=16, **SMALL
        )
        live.compact()  # the seals scheduled it; this waits for it
        assert live.segment_count <= 2
        assert live.compaction_count >= 1
        ref = reference(live)
        query = np.array(ref.source.window_block(77, 78)[0])
        assert_results_equal(live.search(query, 0.6), ref.search(query, 0.6))
        live.close()

    def test_background_compaction_converges(self):
        live = LiveTwinIndex(
            length=16, params=PARAMS, seal_threshold=12, max_segments=2
        )
        rng = np.random.default_rng(5)
        for _ in range(40):
            live.append(rng.normal(size=11))
        live.compact()  # the seals scheduled it; this waits for it
        assert live.segment_count <= 2
        assert live.compaction_count >= 1
        ref = reference(live)
        query = np.array(ref.source.window_block(77, 78)[0])
        assert_results_equal(live.search(query, 0.6), ref.search(query, 0.6))
        live.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            live.append([1.0])
        with pytest.raises(InvalidParameterError, match="closed"):
            live.seal()

    def test_merge_segments_requires_adjacency(self):
        live = LiveTwinIndex(
            synthetic.random_walk(400, seed=6), length=16, **SMALL
        )
        segments = live.segments
        assert len(segments) >= 2
        with pytest.raises(InvalidParameterError, match="adjacent"):
            merge_segments(segments[1], segments[0], PARAMS)

    def test_select_adjacent_pair_prefers_smallest(self):
        class Stub:
            def __init__(self, size):
                self.size = size

        assert select_adjacent_pair([Stub(10), Stub(2), Stub(3), Stub(50)]) == 1
        assert select_adjacent_pair([Stub(1), Stub(1)]) == 0

    def test_segment_repr_and_stats_row(self):
        live = LiveTwinIndex(
            synthetic.random_walk(300, seed=7), length=16, **SMALL
        )
        segment = live.segments[0]
        assert isinstance(segment, Segment)
        assert "Segment" in repr(segment)
        row = segment.stats_row()
        assert row["windows"] == segment.size
        assert row["file"] == "<memory>"


class TestSurface:
    def test_registered_as_subsequence_index(self):
        assert issubclass(LiveTwinIndex, SubsequenceIndex)
        assert LiveTwinIndex.method_name == "live"

    def test_factory_builds_live(self):
        series = synthetic.random_walk(300, seed=8)
        index = create_method(
            "live", series, 32, normalization="none",
            params=PARAMS, seal_threshold=32,
        )
        assert isinstance(index, LiveTwinIndex)
        query = np.array(series[100:132])
        assert 100 in index.search(query, 0.0).positions

    def test_factory_rejects_global(self):
        with pytest.raises(UnsupportedNormalizationError):
            create_method(
                "live", synthetic.random_walk(300, seed=9), 32,
                normalization="global",
            )

    def test_count_and_build_stats(self):
        live = LiveTwinIndex(
            synthetic.random_walk(300, seed=10), length=16, **SMALL
        )
        query = np.array(live.values[42:58])
        assert live.count(query, 0.0) >= 1
        # Only sealed segments are built; the delta is a scanned span.
        build = live.build_stats
        assert live.delta_windows > 0
        assert build.windows == live.window_count - live.delta_windows
        assert build.windows == sum(s.size for s in live.segments)
        assert build.nodes > 0

    def test_stats_snapshot(self, compaction_on_calling_thread):
        # Deterministic compaction: a background merge finishing between
        # stats() and segment_count would change the count under test.
        live = LiveTwinIndex(
            synthetic.random_walk(300, seed=11), length=16, **SMALL
        )
        snapshot = live.stats()
        assert snapshot["windows"] == live.window_count
        assert snapshot["segments"] == live.segment_count
        assert snapshot["durable"] is False
        assert len(snapshot["segment_stats"]) == live.segment_count
