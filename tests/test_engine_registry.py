"""Tests for the named-index registry (ownership + persistence)."""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.engine import IndexRegistry, ShardedTSIndex
from repro.exceptions import IndexNotBuiltError, InvalidParameterError

PARAMS = TSIndexParams(min_children=4, max_children=10)


@pytest.fixture()
def series():
    return np.cumsum(np.random.default_rng(9).normal(size=1200))


@pytest.fixture()
def registry(series):
    registry = IndexRegistry()
    registry.build(
        "demo", series, 40, normalization="none", shards=3, params=PARAMS
    )
    return registry


class TestOwnership:
    def test_build_and_get(self, registry):
        engine = registry.get("demo")
        assert isinstance(engine, ShardedTSIndex)
        assert engine.shard_count == 3
        assert registry.names() == ["demo"]
        assert "demo" in registry and len(registry) == 1

    def test_build_duplicate_rejected(self, registry, series):
        with pytest.raises(InvalidParameterError):
            registry.build("demo", series, 40, normalization="none", shards=2)

    def test_build_overwrite_allowed(self, registry, series):
        rebuilt = registry.build(
            "demo", series, 40, normalization="none", shards=2,
            params=PARAMS, overwrite=True,
        )
        assert registry.get("demo") is rebuilt
        assert rebuilt.shard_count == 2

    def test_get_unknown_raises(self, registry):
        with pytest.raises(IndexNotBuiltError, match="nope"):
            registry.get("nope")

    def test_evict_returns_engine(self, registry):
        engine = registry.evict("demo")
        assert isinstance(engine, ShardedTSIndex)
        assert registry.names() == []
        with pytest.raises(IndexNotBuiltError):
            registry.evict("demo")

    def test_add_rejects_non_engine(self, registry):
        with pytest.raises(InvalidParameterError):
            registry.add("bad", object())

    def test_bad_names_rejected(self, registry, series):
        for bad in ("", "   ", None, 7):
            with pytest.raises(InvalidParameterError):
                registry.build(bad, series, 40, normalization="none", shards=1)


class TestStats:
    def test_stats_shape(self, registry):
        stats = registry.stats("demo")
        assert stats["name"] == "demo"
        assert stats["shards"] == 3
        assert stats["windows"] == registry.get("demo").size
        assert stats["normalization"] == "none"
        assert len(stats["shard_stats"]) == 3
        assert stats["built_at"] > 0

    def test_stats_all(self, registry, series):
        registry.build("two", series, 30, normalization="global", shards=2,
                       params=PARAMS)
        rows = registry.stats_all()
        assert [row["name"] for row in rows] == ["demo", "two"]


class TestPersistence:
    def test_save_load_roundtrip(self, registry, tmp_path):
        path = tmp_path / "demo.rts"
        registry.save("demo", path)
        restored = registry.load("copy", path)
        original = registry.get("demo")
        assert restored.shard_count == original.shard_count
        assert restored.spans == original.spans
        query = original.source.window(321)
        expected = original.search(query, 0.4)
        actual = restored.search(query, 0.4)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)

    def test_roundtrip_per_window(self, tmp_path):
        series = np.cumsum(np.random.default_rng(4).normal(size=900))
        registry = IndexRegistry()
        original = registry.build(
            "pw", series, 30, normalization="per_window", shards=4,
            params=PARAMS,
        )
        registry.save("pw", tmp_path / "pw.rts")
        restored = registry.load("pw2", tmp_path / "pw.rts")
        query = np.array(series[100:130])  # raw query, normalized on entry
        expected = original.search(query, 0.2)
        actual = restored.search(query, 0.2)
        assert np.array_equal(expected.positions, actual.positions)
        assert np.array_equal(expected.distances, actual.distances)

    def test_load_rejects_non_sharded_archive(self, registry, tmp_path, series):
        from repro.persistence import save_index

        mono = TSIndex.build(series, 40, normalization="none", params=PARAMS)
        path = tmp_path / "mono.rts"
        save_index(mono, path)
        with pytest.raises(InvalidParameterError):
            registry.load("mono", path)

    def test_load_duplicate_name_rejected(self, registry, tmp_path):
        path = tmp_path / "demo.rts"
        registry.save("demo", path)
        with pytest.raises(InvalidParameterError):
            registry.load("demo", path)
        registry.load("demo", path, overwrite=True)  # explicit is fine
