"""Tests for the engine's named planes (ownership + persistence)."""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.engine import QueryEngine, ShardedTSIndex
from repro.exceptions import IndexNotBuiltError, InvalidParameterError

from conftest import index_row

PARAMS = TSIndexParams(min_children=4, max_children=10)


@pytest.fixture()
def series():
    return np.cumsum(np.random.default_rng(9).normal(size=1200))


@pytest.fixture()
def engine(series):
    with QueryEngine(metrics=False) as engine:
        engine.build(
            "demo", series, 40, normalization="none", shards=3, params=PARAMS
        )
        yield engine


class TestOwnership:
    def test_build_and_get(self, engine):
        plane = engine.get("demo")
        assert isinstance(plane, ShardedTSIndex)
        assert plane.shard_count == 3
        assert engine.names() == ["demo"]
        assert "demo" in engine.names() and len(engine.names()) == 1

    def test_build_duplicate_rejected(self, engine, series):
        with pytest.raises(InvalidParameterError):
            engine.build("demo", series, 40, normalization="none", shards=2)

    def test_build_overwrite_allowed(self, engine, series):
        rebuilt = engine.build(
            "demo", series, 40, normalization="none", shards=2,
            params=PARAMS, overwrite=True,
        )
        assert engine.get("demo") is rebuilt
        assert rebuilt.shard_count == 2

    def test_get_unknown_raises(self, engine):
        with pytest.raises(IndexNotBuiltError, match="nope"):
            engine.get("nope")

    def test_evict_returns_engine(self, engine):
        plane = engine.evict("demo")
        assert isinstance(plane, ShardedTSIndex)
        assert engine.names() == []
        with pytest.raises(IndexNotBuiltError):
            engine.evict("demo")

    def test_add_rejects_non_engine(self, engine):
        with pytest.raises(InvalidParameterError):
            engine.add("bad", object())

    def test_bad_names_rejected(self, engine, series):
        for bad in ("", "   ", None, 7):
            with pytest.raises(InvalidParameterError):
                engine.build(bad, series, 40, normalization="none", shards=1)


class TestStats:
    def test_stats_shape(self, engine):
        stats = index_row(engine, "demo")
        assert stats["name"] == "demo"
        assert stats["shards"] == 3
        assert stats["windows"] == engine.get("demo").size
        assert stats["normalization"] == "none"
        assert len(stats["shard_stats"]) == 3
        assert stats["built_at"] > 0

    def test_stats_all(self, engine, series):
        engine.build("two", series, 30, normalization="global", shards=2,
                       params=PARAMS)
        rows = engine.stats().indexes
        assert [row["name"] for row in rows] == ["demo", "two"]


class TestPersistence:
    def test_save_load_roundtrip(self, engine, tmp_path):
        path = tmp_path / "demo.rts"
        engine.save("demo", path)
        restored = engine.load("copy", path)
        original = engine.get("demo")
        assert restored.shard_count == original.shard_count
        assert restored.spans == original.spans
        query = original.source.window(321)
        expected = original.search(query, 0.4)
        actual = restored.search(query, 0.4)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)

    def test_roundtrip_per_window(self, tmp_path):
        series = np.cumsum(np.random.default_rng(4).normal(size=900))
        with QueryEngine(metrics=False) as engine:
            original = engine.build(
                "pw", series, 30, normalization="per_window", shards=4,
                params=PARAMS,
            )
            engine.save("pw", tmp_path / "pw.rts")
            restored = engine.load("pw2", tmp_path / "pw.rts")
        query = np.array(series[100:130])  # raw query, normalized on entry
        expected = original.search(query, 0.2)
        actual = restored.search(query, 0.2)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)

    def test_load_rejects_non_sharded_archive(self, engine, tmp_path, series):
        from repro.persistence import save_index

        mono = TSIndex.build(series, 40, normalization="none", params=PARAMS)
        path = tmp_path / "mono.rts"
        save_index(mono, path)
        with pytest.raises(InvalidParameterError):
            engine.load("mono", path)

    def test_load_duplicate_name_rejected(self, engine, tmp_path):
        path = tmp_path / "demo.rts"
        engine.save("demo", path)
        with pytest.raises(InvalidParameterError):
            engine.load("demo", path)
        engine.load("demo", path, overwrite=True)  # explicit is fine
