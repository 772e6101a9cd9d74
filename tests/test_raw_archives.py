"""Raw (mmap-able) archive directories: format equivalence, zero-copy
adoption, atomic commit, and legacy ``.npz`` compatibility.

The contract under test: an index restored from a raw archive answers
every query byte-identically to the in-memory original *and* to an
``.npz`` restore — positions, distances, and the structural
:class:`~repro.core.stats.QueryStats` counters alike — while the load
itself adopts the on-disk arrays as read-only memory maps instead of
copying them.
"""

import mmap
import os

import numpy as np
import pytest

from repro.core.frozen import FrozenTSIndex
from repro.core.tsindex import TSIndex
from repro.engine import ShardedTSIndex
from repro.exceptions import SerializationError
from repro.persistence import load_index, save_index

LENGTH = 50


def _frozen(series_values, normalization) -> FrozenTSIndex:
    return TSIndex.build(
        series_values, LENGTH, normalization=normalization
    ).freeze()


def _assert_identical(a, b, query, epsilon=0.5, k=5):
    ra, rb = a.search(query, epsilon), b.search(query, epsilon)
    assert np.array_equal(ra.positions, rb.positions)
    assert np.array_equal(ra.distances, rb.distances)
    assert ra.stats == rb.stats
    ka, kb = a.knn(query, k), b.knn(query, k)
    assert np.array_equal(ka.positions, kb.positions)
    assert np.array_equal(ka.distances, kb.distances)
    assert a.count(query, epsilon) == b.count(query, epsilon)


def _ultimate_base(array):
    """Walk ``.base`` to the buffer an ndarray's memory lives in."""
    base = array
    while isinstance(getattr(base, "base", None), (np.ndarray, mmap.mmap)):
        base = base.base
    return base


class TestFrozenRawRoundTrip:
    def test_byte_identical_across_formats(
        self, tmp_path, series_values, any_normalization, query_of
    ):
        original = _frozen(series_values, any_normalization)
        npz_path = tmp_path / "frozen.npz"
        raw_path = tmp_path / "frozen.raw"
        save_index(original, npz_path)
        save_index(original, raw_path, format="raw")
        from_npz = load_index(npz_path)
        from_raw = load_index(raw_path)
        query = query_of(123)
        _assert_identical(original, from_raw, query)
        _assert_identical(from_npz, from_raw, query)

    def test_mmap_load_is_zero_copy(self, tmp_path, series_values, query_of):
        original = _frozen(series_values, "global")
        path = tmp_path / "frozen.raw"
        save_index(original, path, format="raw")
        loaded = load_index(path)
        # The envelope planes must live in the OS page cache, not in
        # private copies: their memory bottoms out at an mmap buffer.
        assert isinstance(_ultimate_base(loaded._uppers_t), mmap.mmap)
        assert isinstance(_ultimate_base(loaded._lowers_t), mmap.mmap)
        # ... as the float32 the frozen plane holds them in: the file
        # says its own dtype, and nothing is converted on the way in.
        assert loaded._uppers_t.dtype == loaded._lowers_t.dtype == np.float32
        assert np.load(path / "uppers_t.npy", mmap_mode="r").dtype == np.float32
        # mmap=False opts out: plain private arrays.
        in_memory = load_index(path, mmap=False)
        assert not isinstance(_ultimate_base(in_memory._uppers_t), mmap.mmap)
        _assert_identical(loaded, in_memory, query_of(50))

    def test_raw_views_are_read_only(self, tmp_path, series_values):
        original = _frozen(series_values, "none")
        path = tmp_path / "frozen.raw"
        save_index(original, path, format="raw")
        loaded = load_index(path)
        with pytest.raises(ValueError):
            loaded._uppers_t[0, 0] = 0.0

    def test_overwrite_in_place(self, tmp_path, series_values, query_of):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values[:1000], "global"), path, format="raw")
        replacement = _frozen(series_values, "global")
        save_index(replacement, path, format="raw")
        _assert_identical(replacement, load_index(path), query_of(99))


class TestShardedRawRoundTrip:
    def test_byte_identical_across_formats(
        self, tmp_path, series_values, any_normalization, query_of
    ):
        engine = ShardedTSIndex.build(
            series_values, LENGTH, normalization=any_normalization, shards=3
        )
        raw_path = tmp_path / "engine.raw"
        npz_path = tmp_path / "engine.npz"
        save_index(engine, raw_path, format="raw")
        save_index(engine, npz_path)
        from_raw = load_index(raw_path)
        assert isinstance(from_raw, ShardedTSIndex)
        assert from_raw.shard_count == engine.shard_count
        query = query_of(222)
        _assert_identical(engine, from_raw, query)
        _assert_identical(load_index(npz_path), from_raw, query)

    def test_load_attaches_archive_path(self, tmp_path, series_values):
        engine = ShardedTSIndex.build(series_values, LENGTH, shards=2)
        assert engine.archive_path is None
        raw_path = tmp_path / "engine.raw"
        save_index(engine, raw_path, format="raw")
        loaded = load_index(raw_path)
        assert loaded.archive_path == os.fspath(raw_path)
        npz_path = tmp_path / "engine.npz"
        save_index(engine, npz_path)
        assert load_index(npz_path).archive_path == os.fspath(npz_path)

    def test_shard_planes_are_mmapped(self, tmp_path, series_values):
        engine = ShardedTSIndex.build(series_values, LENGTH, shards=2)
        path = tmp_path / "engine.raw"
        save_index(engine, path, format="raw")
        loaded = load_index(path)
        for shard in loaded.shards:
            assert isinstance(_ultimate_base(shard._uppers_t), mmap.mmap)


class TestAtomicCommit:
    def test_missing_meta_fails_loudly(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path, format="raw")
        os.unlink(path / "meta.json")
        with pytest.raises(SerializationError, match="uncommitted or torn"):
            load_index(path)

    def test_corrupt_meta_fails_loudly(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path, format="raw")
        (path / "meta.json").write_text("{not json")
        with pytest.raises(SerializationError, match="uncommitted or torn"):
            load_index(path)

    def test_torn_array_fails_loudly(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path, format="raw")
        (path / "uppers_t.npy").write_bytes(b"\x93NUMPY")
        with pytest.raises(SerializationError):
            load_index(path).search(series_values[:LENGTH], 0.5)

    def test_no_tmp_files_survive_commit(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path, format="raw")
        leftovers = [n for n in os.listdir(path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_stale_arrays_removed_on_rewrite(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path, format="raw")
        stale = path / "ghost_field.npy"
        stale.write_bytes(b"stale")
        save_index(_frozen(series_values, "global"), path, format="raw")
        assert not stale.exists()


class TestLegacyCompatibility:
    def test_legacy_field_layout_still_loads(
        self, tmp_path, series_values, query_of
    ):
        """Archives in the pre-raw layout carry ``uppers``/``lowers``
        (window-major, no ``uppers_t``); the compressed container still
        writes exactly that layout, and it must keep loading."""
        original = _frozen(series_values, "global")
        path = tmp_path / "legacy.npz"
        save_index(original, path)
        with np.load(path, allow_pickle=False) as archive:
            fields = set(archive.files)
        assert "uppers" in fields and "uppers_t" not in fields
        restored = load_index(path)
        _assert_identical(original, restored, query_of(42))

    @pytest.mark.parametrize("container", ["raw", "npz"])
    def test_float64_envelope_archives_still_load(
        self, tmp_path, series_values, any_normalization, query_of, container
    ):
        """Archives written before the envelopes became float32 hold
        them as float64 (timestamp-major in raw directories, node-major
        in ``.npz``). Loading rounds them outward once — into private
        memory; the other arrays stay mapped — and gives the very
        arrays freezing the same tree gives today."""
        from repro.persistence.serializer import _flatten_tree

        dynamic = TSIndex.build(
            series_values, LENGTH, normalization=any_normalization
        )
        original = dynamic.freeze()
        exact = _flatten_tree(dynamic._root)  # float64, same BFS order
        assert exact["uppers"].dtype == np.float64
        path = tmp_path / f"legacy.{container}"
        save_index(original, path, format=container, fsync=False)
        if container == "raw":
            np.save(path / "uppers_t.npy", np.ascontiguousarray(exact["uppers"].T))
            np.save(path / "lowers_t.npy", np.ascontiguousarray(exact["lowers"].T))
        else:
            with np.load(path, allow_pickle=False) as archive:
                payload = {key: archive[key] for key in archive.files}
            payload.update(uppers=exact["uppers"], lowers=exact["lowers"])
            np.savez_compressed(path, **payload)
        restored = load_index(path)
        for field, array in original.raw_arrays().items():
            assert restored.raw_arrays()[field].dtype == array.dtype
            assert np.array_equal(restored.raw_arrays()[field], array)
        if container == "raw":
            assert not isinstance(_ultimate_base(restored._uppers_t), mmap.mmap)
            assert isinstance(_ultimate_base(restored._positions), mmap.mmap)
        source = original.source
        for position in (42, 1500):
            _assert_identical(original, restored, query_of(position, source))

    def test_raw_other_plane_kinds_round_trip(
        self, tmp_path, series_values, query_of
    ):
        """The raw container is not frozen-specific: a dynamic
        pointer-tree TS-Index round-trips through it too."""
        original = TSIndex.build(series_values, LENGTH, normalization="global")
        path = tmp_path / "dynamic.raw"
        save_index(original, path, format="raw")
        restored = load_index(path)
        query = query_of(77)
        a, b = original.search(query, 0.5), restored.search(query, 0.5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.distances, b.distances)


class TestLoadMetric:
    def test_archive_load_histogram_observes(self, tmp_path, series_values):
        from repro.obs import (
            MetricsRegistry,
            default_registry,
            set_default_registry,
        )

        npz_path = tmp_path / "frozen.npz"
        raw_path = tmp_path / "frozen.raw"
        original = _frozen(series_values, "global")
        save_index(original, npz_path)
        save_index(original, raw_path, format="raw")
        previous = default_registry()
        registry = MetricsRegistry()
        set_default_registry(registry)
        try:
            load_index(raw_path)
            load_index(npz_path)
        finally:
            set_default_registry(previous)
        histogram = registry.get("repro_archive_load_seconds")
        assert histogram is not None
        for container in ("raw", "npz"):
            _, _, count = histogram.labels(format=container).snapshot()
            assert count == 1
