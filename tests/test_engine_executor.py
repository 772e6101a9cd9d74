"""Tests for the QueryEngine front door (cache + concurrency + stats)."""

import concurrent.futures

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.engine import QueryEngine
from repro.exceptions import IndexNotBuiltError

PARAMS = TSIndexParams(min_children=4, max_children=10)
LENGTH = 40


@pytest.fixture()
def series():
    return np.cumsum(np.random.default_rng(21).normal(size=1500))


@pytest.fixture()
def engine(series):
    with QueryEngine(cache_capacity=16, max_workers=4) as engine:
        engine.build(
            "demo", series, LENGTH,
            normalization="global", shards=3, params=PARAMS,
        )
        yield engine


class TestServing:
    def test_query_matches_monolithic(self, engine, series):
        mono = TSIndex.build(series, LENGTH, normalization="global", params=PARAMS)
        query = mono.source.window(444)
        expected = mono.search(query, 0.4)
        actual = engine.query("demo", query, 0.4)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)

    def test_repeat_query_served_from_cache(self, engine):
        query = engine.get("demo").source.window(100)
        first = engine.query("demo", query, 0.3)
        second = engine.query("demo", query, 0.3)
        assert second is first  # the cached object itself
        cache = engine.cache.stats()
        assert cache.hits == 1 and cache.misses == 1

    def test_use_cache_false_bypasses(self, engine):
        query = engine.get("demo").source.window(100)
        first = engine.query("demo", query, 0.3, use_cache=False)
        second = engine.query("demo", query, 0.3, use_cache=False)
        assert second is not first
        assert engine.cache.stats().lookups == 0

    def test_distinct_epsilons_not_conflated(self, engine):
        query = engine.get("demo").source.window(100)
        wide = engine.query("demo", query, 1.0)
        narrow = engine.query("demo", query, 0.01)
        assert len(narrow) <= len(wide)
        assert engine.cache.stats().misses == 2

    def test_unknown_index_raises(self, engine):
        with pytest.raises(IndexNotBuiltError):
            engine.query("ghost", np.zeros(LENGTH), 0.1)

    def test_knn(self, engine, series):
        mono = TSIndex.build(series, LENGTH, normalization="global", params=PARAMS)
        query = mono.source.window(200)
        expected = mono.knn(query, 5)
        actual = engine.knn("demo", query, 5)
        assert np.array_equal(expected.distances, actual.distances)

    def test_batch_matches_singles_and_caches(self, engine):
        source = engine.get("demo").source
        queries = [source.window(p) for p in (3, 400, 900, 3)]  # repeat!
        batch = engine.batch("demo", queries, 0.4)
        assert len(batch) == 4
        # queries[0] and queries[3] are equal -> same cached object or at
        # least equal results; singles must agree with the batch.
        for query, result in zip(queries, batch):
            single = engine.query("demo", query, 0.4)
            assert np.array_equal(single.positions, result.positions)
        assert batch.total_matches == sum(len(r) for r in batch)

    def test_concurrent_callers(self, engine):
        source = engine.get("demo").source
        queries = [source.window(p) for p in range(0, 1000, 53)]

        def call(query):
            return engine.query("demo", query, 0.35)

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(call, queries))
        for query, result in zip(queries, results):
            expected = engine.get("demo").search(query, 0.35)
            assert np.array_equal(expected.positions, result.positions)


class TestLifecycleAndStats:
    def test_stats_aggregation(self, engine):
        source = engine.get("demo").source
        engine.query("demo", source.window(1), 0.3)
        engine.query("demo", source.window(1), 0.3)  # hit
        engine.query("demo", source.window(2), 0.3)
        stats = engine.stats()
        assert stats.queries == 3
        assert stats.cache.hits == 1
        assert stats.query_stats.candidates > 0
        assert stats.indexes[0]["name"] == "demo"
        row = stats.as_dict()
        assert row["queries"] == 3
        assert row["cache"]["hits"] == 1

    def test_lifetime_qps_survives_wall_clock_steps(self, engine, monkeypatch):
        """Regression: lifetime QPS derives from the monotonic clock —
        a wall-clock step backwards (NTP) must not divide the query
        count by ~1e-9 and report a billion QPS."""
        import time as time_module

        source = engine.get("demo").source
        engine.query("demo", source.window(1), 0.3)
        real_time = time_module.time
        monkeypatch.setattr(time_module, "time", lambda: real_time() - 3600)
        qps = engine._qps()
        assert 0.0 < qps < 1e6

    def test_rebuild_overwrite_invalidates_cache(self, engine):
        """A rebuilt name must never serve the old index's results."""
        other = np.cumsum(np.random.default_rng(99).normal(size=1500))
        query = engine.get("demo").source.window(77)
        stale = engine.query("demo", query, 0.3)
        engine.build(
            "demo", other, LENGTH,
            normalization="global", shards=2, params=PARAMS, overwrite=True,
        )
        fresh = engine.query("demo", query, 0.3)
        assert fresh is not stale
        expected = engine.get("demo").search(query, 0.3)
        assert np.array_equal(expected.positions, fresh.positions)

    def test_load_overwrite_invalidates_cache(self, engine, series, tmp_path):
        query = engine.get("demo").source.window(77)
        stale = engine.query("demo", query, 0.3)
        path = tmp_path / "demo.rts"
        engine.save("demo", path)
        restored = engine.load("demo", path, overwrite=True)
        assert engine.get("demo") is restored
        fresh = engine.query("demo", query, 0.3)
        assert fresh is not stale  # recomputed, not served stale
        assert np.array_equal(stale.positions, fresh.positions)

    def test_query_and_batch_share_cache_entries(self, engine):
        source = engine.get("demo").source
        query = source.window(123)
        engine.batch("demo", [query], 0.3)
        hit = engine.query("demo", query, 0.3)
        stats = engine.cache.stats()
        assert stats.hits == 1  # query() reused the batch()-made entry
        assert len(hit) >= 1

    def test_evict_clears_cache(self, engine, series):
        query = engine.get("demo").source.window(10)
        stale = engine.query("demo", query, 0.3)
        engine.evict("demo")
        assert engine.names() == []
        engine.build(
            "demo", series, LENGTH,
            normalization="global", shards=2, params=PARAMS,
        )
        fresh = engine.query("demo", query, 0.3)
        assert fresh is not stale  # never serve the old index's result
        assert np.array_equal(fresh.positions, stale.positions)

    def test_close_idempotent(self, series):
        engine = QueryEngine(cache_capacity=4)
        engine.close()
        engine.close()

    def test_context_manager_leaves_registry_usable(self, series):
        with QueryEngine() as engine:
            engine.build(
                "x", series, LENGTH,
                normalization="none", shards=2, params=PARAMS,
            )
        # Pool is gone, but the engine's planes survive.
        index = engine.get("x")
        result = index.search(series[100:100 + LENGTH], 0.1)
        assert 100 in result.positions
