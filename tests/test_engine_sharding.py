"""Shard-boundary correctness: sharded == monolithic, exactly.

The load-bearing property of :mod:`repro.engine`: a ShardedTSIndex must
return *byte-identical* positions and distances to a monolithic TSIndex
for every query, shard count, epsilon and normalization regime — shard
window sources are zero-copy views of the monolithic source, so there
is no float tolerance anywhere in these assertions.
"""

import concurrent.futures
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.bulkload import bulk_load_source
from repro.core.normalization import Normalization
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.data import synthetic
from repro.engine import QueryEngine, ShardedTSIndex, default_shard_count, shard_spans
from repro.engine import sharding
from repro.exceptions import InvalidParameterError
from repro.persistence import load_index, save_index

from conftest import assert_root_moved, shard_forest, summed_stats

#: Small capacities force deep trees: many leaves per bulk-loaded shard,
#: and many splits in the monolithic insertion build compared against.
PARAMS = TSIndexParams(min_children=4, max_children=10)

#: Capacities for the tiny-shard edges: a two-level minimum, the suite's
#: own, and the defaults (where every tiny shard is one underfull leaf).
TINY_PARAMS = [
    TSIndexParams(min_children=2, max_children=4),
    PARAMS,
    TSIndexParams(),
]

REGIMES = [Normalization.NONE, Normalization.GLOBAL, Normalization.PER_WINDOW]


def _series(seed: int, n: int = 1500) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.normal(size=n))
    return base + 0.3 * synthetic.noisy_sines(n, seed=seed, noise_std=0.1)


class TestShardSpans:
    def test_partition_covers_every_position(self):
        for count in (1, 7, 100, 1001):
            for shards in {1, min(2, count), min(3, count), min(7, count)}:
                spans = shard_spans(count, shards)
                assert spans[0][0] == 0
                assert spans[-1][1] == count
                for (_, stop), (start, _) in zip(spans, spans[1:]):
                    assert stop == start
                sizes = [stop - start for start, stop in spans]
                assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_windows_rejected(self):
        with pytest.raises(InvalidParameterError):
            shard_spans(3, 4)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            shard_spans(10, 0)

    def test_default_shard_count_bounds(self):
        assert default_shard_count(1) == 1
        assert default_shard_count(10**7) >= 1


class TestWindowSourceShard:
    @pytest.mark.parametrize("regime", REGIMES, ids=[r.value for r in REGIMES])
    def test_shard_windows_bitwise_identical(self, regime):
        source = WindowSource(_series(3), 40, regime)
        for start, stop in shard_spans(source.count, 4):
            shard = source.shard(start, stop)
            assert shard.count == stop - start
            assert shard.length == source.length
            assert shard.normalization is regime
            block = shard.windows(np.arange(shard.count))
            expected = source.windows(np.arange(start, stop))
            assert np.array_equal(block, expected)  # bitwise, no tolerance

    def test_shard_bounds_validated(self):
        source = WindowSource(_series(3), 40, "none")
        for bad in [(-1, 5), (5, 5), (0, source.count + 1), (7, 3)]:
            with pytest.raises(InvalidParameterError):
                source.shard(*bad)

    def test_shard_is_zero_copy(self):
        source = WindowSource(_series(3), 40, "none")
        shard = source.shard(100, 300)
        assert np.shares_memory(shard.values, source.values)


class TestSearchEquivalence:
    """The acceptance property: sharded search == monolithic search."""

    @pytest.mark.parametrize("regime", REGIMES, ids=[r.value for r in REGIMES])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", [11, 29])
    def test_search_byte_identical(self, regime, shards, seed):
        series = _series(seed)
        length = 40
        mono = TSIndex.build(series, length, normalization=regime, params=PARAMS)
        sharded = ShardedTSIndex.build(
            series, length, normalization=regime, shards=shards, params=PARAMS
        )
        rng = np.random.default_rng(seed)
        positions = rng.integers(0, mono.size, size=6)
        # Deliberately include windows straddling every shard boundary.
        boundary = [stop for _, stop in sharded.spans[:-1]]
        for position in [*positions.tolist(), *boundary]:
            position = min(position, mono.size - 1)
            query = mono.source.window(position)
            for epsilon in (0.0, 0.05, 0.4, 1.5):
                expected = mono.search(query, epsilon)
                actual = sharded.search(query, epsilon)
                assert np.array_equal(expected.positions, actual.positions)
                assert np.array_equal(expected.distances, actual.distances)
                assert actual.stats.matches == expected.stats.matches

    @pytest.mark.parametrize("verification", ["bulk", "per_candidate"])
    def test_search_equivalent_under_every_verification_mode(self, verification):
        series = _series(5)
        mono = TSIndex.build(series, 40, normalization="global", params=PARAMS)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="global", shards=3, params=PARAMS
        )
        query = mono.source.window(777)
        expected = mono.search(query, 0.4, verification=verification)
        actual = sharded.search(query, 0.4, verification=verification)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)

    def test_parallel_execution_equals_serial(self):
        """The same twins on the calling thread, which walks the shards'
        joined forest, and on a pool, one part per shard. Each path's
        counters are its own walk's: the forest's, and the per-shard
        sum, to which the forest's synthetic root adds one node."""
        series = _series(7)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="global", shards=4, params=PARAMS
        )
        query = sharded.source.window(321)
        serial = sharded.search(query, 0.5)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            parallel = sharded.search(query, 0.5, executor=pool)
        assert np.array_equal(serial.positions, parallel.positions)
        assert np.array_equal(serial.distances, parallel.distances)
        assert serial.stats == shard_forest(sharded).search(query, 0.5).stats
        assert parallel.stats == summed_stats(
            shard.search(query, 0.5) for shard in sharded.shards
        )
        assert_root_moved(serial.stats, parallel.stats)

    def test_every_window_findable_at_epsilon_zero(self):
        """No window is lost at a shard boundary (overlap length-1)."""
        series = _series(13, n=400)
        sharded = ShardedTSIndex.build(
            series, 25, normalization="none", shards=5, params=PARAMS
        )
        for position in range(0, sharded.size, 37):
            query = sharded.source.window(position)
            result = sharded.search(query, 0.0)
            assert position in result.positions

    def test_raw_query_per_window_prepared_once(self):
        """A raw (unnormalized) query is normalized identically."""
        series = _series(17)
        mono = TSIndex.build(series, 40, normalization="per_window", params=PARAMS)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="per_window", shards=3, params=PARAMS
        )
        raw_query = np.array(series[200:240]) * 3.0 + 11.0
        expected = mono.search(raw_query, 0.3)
        actual = sharded.search(raw_query, 0.3)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)


class TestKnnEquivalence:
    @pytest.mark.parametrize("shards", [1, 3, 6])
    def test_knn_matches_monolithic(self, shards):
        series = _series(23)
        mono = TSIndex.build(series, 40, normalization="global", params=PARAMS)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="global", shards=shards, params=PARAMS
        )
        query = mono.source.window(500)
        for k in (1, 5, 20):
            expected = mono.knn(query, k)
            actual = sharded.knn(query, k)
            assert np.array_equal(expected.distances, actual.distances)
            assert np.array_equal(expected.positions, actual.positions)

    def test_knn_ties_resolve_identically(self):
        """Exact repeats force distance ties across shard boundaries;
        both sides must pick the same (distance, position) ranking."""
        chunk = np.sin(np.linspace(0.0, 6.0, 100))
        series = np.tile(chunk, 10)  # identical windows every 100 positions
        mono = TSIndex.build(series, 50, normalization="none", params=PARAMS)
        sharded = ShardedTSIndex.build(
            series, 50, normalization="none", shards=4, params=PARAMS
        )
        query = mono.source.window(100)
        for k in (1, 3, 7):
            expected = mono.knn(query, k)
            actual = sharded.knn(query, k)
            assert np.array_equal(expected.positions, actual.positions)
            assert np.array_equal(expected.distances, actual.distances)

    def test_knn_exclusion_zone_translated(self):
        series = _series(31)
        mono = TSIndex.build(series, 40, normalization="global", params=PARAMS)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="global", shards=4, params=PARAMS
        )
        query = mono.source.window(700)
        exclude = (680, 721)  # straddles shard frames
        expected = mono.knn(query, 10, exclude=exclude)
        actual = sharded.knn(query, 10, exclude=exclude)
        assert np.array_equal(expected.distances, actual.distances)
        assert not np.any(
            (actual.positions >= exclude[0]) & (actual.positions < exclude[1])
        )

    def test_k_larger_than_size(self):
        series = _series(37, n=300)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="none", shards=3, params=PARAMS
        )
        result = sharded.knn(sharded.source.window(0), sharded.size + 10)
        assert len(result) == sharded.size


class TestBatchEquivalence:
    def test_search_batch_matches_per_query_search(self):
        series = _series(41)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="global", shards=3, params=PARAMS
        )
        queries = [sharded.source.window(p) for p in (5, 250, 900, 1200)]
        batch = sharded.search_batch(queries, 0.4)
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            single = sharded.search(query, 0.4)
            assert np.array_equal(single.positions, result.positions)
            assert np.array_equal(single.distances, result.distances)
        assert batch.stats.matches == batch.total_matches

    def test_search_batch_parallel_preserves_order(self):
        series = _series(43)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="global", shards=2, params=PARAMS
        )
        queries = [sharded.source.window(p) for p in range(0, 1000, 97)]
        serial = sharded.search_batch(queries, 0.3)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            parallel = sharded.search_batch(queries, 0.3, executor=pool)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.positions, b.positions)


class TestShardShape:
    """Every shard is the bulk load of its span, packed in position
    order: no split ever runs while a sharded index builds."""

    @pytest.mark.parametrize("regime", REGIMES, ids=[r.value for r in REGIMES])
    def test_each_shard_is_the_bulk_load_of_its_span(self, regime):
        sharded = ShardedTSIndex.build(
            _series(19), 40, normalization=regime, shards=3, params=PARAMS
        )
        for (start, stop), tree in zip(sharded.spans, sharded.shards):
            packed = bulk_load_source(
                sharded.source.shard(start, stop), params=PARAMS
            )
            expected, actual = packed.arrays(), tree.arrays()
            assert actual.keys() == expected.keys()
            for field, array in expected.items():
                assert np.array_equal(actual[field], array)
            assert tree.build_stats.splits == 0
        assert sharded.build_stats.splits == 0

    def test_shard_stats_rows_carry_no_splits(self):
        sharded = ShardedTSIndex.build(
            _series(19), 40, normalization="none", shards=2, params=PARAMS
        )
        for row, tree in zip(sharded.shard_stats(), sharded.shards):
            assert "splits" not in row
            assert (row["nodes"], row["height"]) == (tree.node_count, tree.height)


def _tiny_series(windows: int, length: int) -> np.ndarray:
    """A random walk holding exactly ``windows`` ``length``-windows."""
    rng = np.random.default_rng(windows)
    return np.cumsum(rng.normal(size=windows + length - 1))


def _assert_same_answer(expected, actual):
    assert np.array_equal(expected.positions, actual.positions)
    assert np.array_equal(expected.distances, actual.distances)


class TestTinyShards:
    """Shards of a handful of windows — one window each, or fewer than
    ``min_children`` (a bulk load then packs a single underfull leaf) —
    answer every mode exactly as the monolithic insertion build does."""

    LENGTH = 8

    each_params = pytest.mark.parametrize(
        "params", TINY_PARAMS, ids=lambda p: f"{p.min_children}-{p.max_children}"
    )

    @each_params
    @pytest.mark.parametrize(
        ("windows", "shards"),
        [
            (1, 1),
            (2, 1),
            (2, 2),  # one window per shard
            (3, 3),
            (5, 2),  # shards of 3 and 2: below min_children for 4/10
            (5, 5),
            (9, 2),
            (9, 3),  # shards of 3: below min_children for 4/10 and 10/30
            (9, 9),
        ],
    )
    def test_every_mode_matches_monolithic(self, params, windows, shards):
        length = self.LENGTH
        series = _tiny_series(windows, length)
        mono = TSIndex.build(series, length, normalization="none", params=params)
        sharded = ShardedTSIndex.build(
            series, length, normalization="none", shards=shards, params=params
        )
        assert sharded.size == mono.size == windows
        assert sharded.shard_count == shards
        noise = np.random.default_rng(windows + 100).normal(size=length)
        queries = [mono.source.window(p) for p in range(windows)] + [noise]
        for query in queries:
            for epsilon in (0.0, 0.5, 2.0):
                expected = mono.search(query, epsilon)
                _assert_same_answer(expected, sharded.search(query, epsilon))
                assert sharded.count(query, epsilon) == len(expected)
                assert sharded.exists(query, epsilon) == mono.exists(
                    query, epsilon
                )
                _assert_same_answer(
                    mono.search(query[:5], epsilon),
                    sharded.search(query[:5], epsilon),
                )
            for k in (1, 3, windows + 2):
                _assert_same_answer(mono.knn(query, k), sharded.knn(query, k))

    @each_params
    def test_one_to_forty_windows(self, params):
        """Every window count from 1 to 40, at 1, 2 and one-per-window
        shards: ``search`` / ``knn`` / ``exists`` equal the monolithic
        index's, ε = 0 included."""
        length = self.LENGTH
        for windows in range(1, 41):
            series = _tiny_series(windows, length)
            mono = TSIndex.build(
                series, length, normalization="none", params=params
            )
            for shards in sorted({1, min(2, windows), windows}):
                sharded = ShardedTSIndex.build(
                    series, length, normalization="none", shards=shards,
                    params=params,
                )
                for position in range(0, windows, 3):
                    query = mono.source.window(position)
                    for epsilon in (0.0, 0.5):
                        expected = mono.search(query, epsilon)
                        _assert_same_answer(
                            expected, sharded.search(query, epsilon)
                        )
                        assert sharded.exists(query, epsilon) == mono.exists(
                            query, epsilon
                        )
                    _assert_same_answer(mono.knn(query, 3), sharded.knn(query, 3))


class TestMetadata:
    def test_build_stats_aggregation(self):
        series = _series(47)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="none", shards=4, params=PARAMS
        )
        build = sharded.build_stats
        assert build.windows == sharded.size
        assert build.nodes == sum(t.node_count for t in sharded.shards)
        # Shards build one after another: the build time is their sum.
        assert build.seconds == sum(t.build_stats.seconds for t in sharded.shards)
        assert build.seconds > max(t.build_stats.seconds for t in sharded.shards)

    def test_spans_partition_positions(self):
        series = _series(47)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="none", shards=5, params=PARAMS
        )
        spans = sharded.spans
        assert spans[0][0] == 0 and spans[-1][1] == sharded.size
        assert len(sharded.shard_stats()) == 5

    def test_single_shard_is_monolithic(self):
        series = _series(53, n=500)
        sharded = ShardedTSIndex.build(
            series, 40, normalization="none", shards=1, params=PARAMS
        )
        assert sharded.shard_count == 1
        assert sharded.shards[0].size == sharded.size

    def test_factory_builds_sharded_by_name(self):
        from repro import create_method

        series = _series(59, n=600)
        engine = create_method(
            "sharded", series, 40, normalization="none", shards=2, params=PARAMS
        )
        assert isinstance(engine, ShardedTSIndex)
        assert engine.shard_count == 2
        assert 123 in engine.search(series[123:163], 0.0).positions


class TestForest:
    """Calling-thread queries walk one tree: the shards joined under a
    synthetic root at the first such query, then kept. Pooled queries
    walk the shards."""

    @pytest.fixture
    def joins(self, monkeypatch):
        """Every ``join`` the plane runs, each taking ``delay`` seconds
        longer (room for a concurrent first query to arrive)."""
        calls = []
        real = sharding.join

        def counting(*args):
            calls.append(args)
            time.sleep(counting.delay)
            return real(*args)

        counting.delay = 0.0
        monkeypatch.setattr(sharding, "join", counting)
        return counting, calls

    @staticmethod
    def _plane():
        return ShardedTSIndex.build(
            _series(23), 40, normalization="none", shards=3, params=PARAMS
        )

    def test_cached_forest_is_the_join_of_the_shards(self):
        plane = self._plane()
        plane.search(plane.source.window(100), 0.5)
        cached = plane._joined().raw_arrays()
        joined = shard_forest(plane).raw_arrays()
        assert cached.keys() == joined.keys()
        for name, array in joined.items():
            assert cached[name].dtype == array.dtype, name
            assert np.array_equal(cached[name], array), name
        assert plane._joined().source is plane.source

    def test_joined_once_across_every_mode_and_never_in_build(self, joins, tmp_path):
        _, calls = joins
        plane = self._plane()
        save_index(plane, tmp_path / "plane", fsync=False)
        loaded = load_index(tmp_path / "plane")
        with QueryEngine() as engine:
            served = engine.build("demo", _series(23), 40, shards=3, normalization="none")
            assert calls == []
            query = served.source.window(100)
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                served.search(query, 0.5, executor=pool)
            assert calls == []  # a caller's pool runs per shard
            engine.query("demo", query, 0.5, use_cache=False)
            engine.query("demo", query[:20], 0.5, use_cache=False)
            engine.count("demo", query, 0.5)
            engine.exists("demo", query, 0.5)
            engine.knn("demo", query, 5)
            engine.batch("demo", [query, query + 0.01], 0.5, use_cache=False)
        assert len(calls) == 1
        for index in (plane, loaded):
            index.search(query, 0.5)
            index.search(query[:20], 0.5)
            index.count(query, 0.5)
            index.exists(query, 0.5)
            index.knn(query, 5)
            index.search_batch([query, query + 0.01], 0.5)
        assert len(calls) == 3

    def test_concurrent_first_queries_join_once(self, joins):
        """Four threads (more than this suite's two cores) ask at once,
        with the interpreter switching threads every microsecond and the
        join slowed: one join, four identical answers."""
        counting, calls = joins
        counting.delay = 0.2
        plane = self._plane()
        query = plane.source.window(500)
        expected = self._plane().search(query, 0.8)
        barrier = threading.Barrier(4, timeout=10.0)

        def first(_):
            barrier.wait()
            return plane.search(query, 0.8)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                answers = list(pool.map(first, range(4), timeout=30.0))
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 2  # the plane's, and the reference plane's
        for answer in answers:
            assert np.array_equal(answer.positions, expected.positions)
            assert np.array_equal(answer.distances, expected.distances)
            assert answer.stats == expected.stats
