"""Equivalence and lifecycle tests for the live ingestion plane.

The load-bearing suite is :class:`TestRandomizedEquivalence`: randomized
append/query interleavings whose answers must be **byte-identical** to a
from-scratch TSIndex over the full series — positions, distances and
k-NN tie-breaks — across seals, in both the raw and the
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
from repro.live import DEFAULT_SEAL_THRESHOLD, LiveTwinIndex, Segment

PARAMS = TSIndexParams(min_children=2, max_children=4)

#: A small threshold so every test exercises seals.
SMALL = dict(params=PARAMS, seal_threshold=12)


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
        assert live.seal_count >= 1

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
        live.close()
        with pytest.raises(InvalidParameterError, match="closed"):
            live.append([1.0])
        with pytest.raises(InvalidParameterError, match="closed"):
            live.seal()

    def test_segment_overlap_is_l_minus_1(self):
        live = LiveTwinIndex(
            synthetic.random_walk(400, seed=3), length=16, **SMALL
        )
        for first, second in zip(live.segments, live.segments[1:]):
            assert first.stop == second.start
            a = first.index.source.series.values
            b = second.index.source.series.values
            assert np.array_equal(a[-15:], b[:15])

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

    def test_stats_snapshot(self):
        live = LiveTwinIndex(
            synthetic.random_walk(300, seed=11), length=16, **SMALL
        )
        snapshot = live.stats()
        assert snapshot["windows"] == live.window_count
        assert snapshot["segments"] == live.segment_count
        assert snapshot["durable"] is False
        assert len(snapshot["segment_stats"]) == live.segment_count


class TestForestUnderConcurrentIngest:
    def test_every_answer_is_a_snapshot_while_seals_swap_the_forest(self):
        """The sealed forest is replaced on every seal while queries
        join and install it from other threads. More probe threads
        than cores and a short switch interval: each answer must be the
        oracle's twins over the windows of one moment between the
        call's start and its end — a forest left stale by a seal would
        drop the windows sealed since, one joined twice would repeat
        them. After each append the feeder waits (at most 5 s) for an
        answer that saw it, so the probers see many window counts
        however the threads are scheduled."""
        import sys
        import threading

        length, epsilon = 16, 1.5
        series = np.cumsum(np.random.default_rng(21).normal(size=6000))
        live = LiveTwinIndex(series[:200], length, seal_threshold=64)
        windows = np.lib.stride_tricks.sliding_window_view(series, length)
        errors: list[BaseException] = []
        answered: list[int] = []
        recorded = threading.Condition()
        done = threading.Event()

        def feeder():
            for start in range(200, series.size, 5):
                live.append(series[start : start + 5])
                count = live.window_count
                with recorded:
                    recorded.wait_for(
                        lambda: errors or answered[-1:] == [count], timeout=5
                    )
            done.set()

        def prober(seed):
            rng = np.random.default_rng(seed)
            try:
                while not done.is_set():
                    before = live.window_count
                    query = windows[int(rng.integers(0, before))]
                    got = live.search(query, epsilon)
                    after = live.window_count
                    distances = np.abs(windows[:after] - query).max(axis=1)
                    want = np.flatnonzero(distances <= epsilon)
                    seen = want[: got.positions.size]
                    assert np.array_equal(got.positions, seen)
                    assert np.array_equal(got.distances, distances[seen])
                    assert seen.size >= np.count_nonzero(want < before)
                    with recorded:
                        answered.append(after)
                        recorded.notify_all()
            except BaseException as exc:  # reported below, from the test thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=feeder)]
            threads += [threading.Thread(target=prober, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            live.close()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert live.seal_count > 50 and live.segment_count == live.seal_count
        assert len(set(answered)) > 20

    def test_a_seal_during_a_join_leaves_its_forest_uninstalled(self, monkeypatch):
        """The forest is joined outside the plane lock, from the segments
        and delta one locked read took. A seal that lands meanwhile
        neither changes that query's answer nor lets its (now stale)
        forest be installed for the next query. Every window is a twin
        at this ε, so a window missed or counted twice shows."""
        import repro.live.index as live_index

        length, everything = 16, 1e9
        series = np.cumsum(np.random.default_rng(22).normal(size=600))
        live = LiveTwinIndex(series[:300], length, seal_threshold=64)
        query = series[40 : 40 + length]
        real_join = live_index.join
        joins = []

        def join_while_sealing(*args):
            joins.append(len(args[0]))
            if len(joins) == 1:
                live.append(series[300:400])  # seals, from inside the join
            return real_join(*args)

        monkeypatch.setattr(live_index, "join", join_while_sealing)
        before = live.window_count
        assert np.array_equal(live.search(query, everything).positions, np.arange(before))
        assert live.segment_count > joins[0]
        after = live.window_count
        assert np.array_equal(live.search(query, everything).positions, np.arange(after))
        assert joins == [joins[0], live.segment_count]
        live.close()
