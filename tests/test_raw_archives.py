"""Raw (mmap-able) archive directories — the one container
``save_index`` writes: zero-copy adoption, atomic commit, the paths it
refuses, and the read-only legacy ``.npz`` reader.

The contract under test: an index restored from a raw archive answers
every query byte-identically to the in-memory original *and* to a
restore of a legacy ``.npz`` file (written here by the
``save_legacy_npz`` fixture, or committed under ``tests/data``) —
positions, distances, and the structural
:class:`~repro.core.stats.QueryStats` counters alike — while the load
itself adopts the on-disk arrays as read-only memory maps instead of
copying them.
"""

import json
import mmap
import os
import pathlib
import shutil

import numpy as np
import pytest

from repro.core.frozen import (
    ARRAY_FIELDS,
    RAW_ARRAY_FIELDS,
    FrozenTSIndex,
    flatten,
)
from repro.core.stats import QueryStats
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.engine import ShardedTSIndex
from repro.euclidean.mass import chebyshev_distance_profile
from repro.exceptions import InvalidParameterError, SerializationError
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


#: The resident envelope arrays of a frozen index (its private slots).
ENVELOPE_PARTS = ("_upper_head", "_upper_tail", "_lower_head", "_lower_tail")
ENVELOPE_FILES = ("uppers_head", "uppers_tail", "lowers_head", "lowers_tail")

DATA = pathlib.Path(__file__).parent / "data"


def _ultimate_base(array):
    """Walk ``.base`` to the buffer an ndarray's memory lives in."""
    base = array
    while isinstance(getattr(base, "base", None), (np.ndarray, mmap.mmap)):
        base = base.base
    return base


class TestFrozenRawRoundTrip:
    def test_byte_identical_across_formats(
        self, tmp_path, series_values, any_normalization, query_of,
        save_legacy_npz,
    ):
        original = _frozen(series_values, any_normalization)
        npz_path = tmp_path / "frozen.npz"
        raw_path = tmp_path / "frozen.raw"
        save_legacy_npz(original, npz_path)
        save_index(original, raw_path)
        from_npz = load_index(npz_path)
        from_raw = load_index(raw_path)
        query = query_of(123)
        _assert_identical(original, from_raw, query)
        _assert_identical(from_npz, from_raw, query)

    def test_mmap_load_is_zero_copy(self, tmp_path, series_values, query_of):
        original = _frozen(series_values, "global")
        path = tmp_path / "frozen.raw"
        save_index(original, path)
        loaded = load_index(path)
        # The envelope planes — both parts of both bounds — must live in
        # the OS page cache, not in private copies: their memory
        # bottoms out at an mmap buffer.
        for part, file in zip(ENVELOPE_PARTS, ENVELOPE_FILES):
            assert isinstance(_ultimate_base(getattr(loaded, part)), mmap.mmap)
            # ... as the float32 the frozen plane holds them in: the
            # file says its own dtype and shape, and nothing is
            # converted or re-laid-out on the way in.
            on_disk = np.load(path / f"{file}.npy", mmap_mode="r")
            assert getattr(loaded, part).dtype == on_disk.dtype == np.float32
            assert getattr(loaded, part).shape == on_disk.shape
        # mmap=False opts out: plain private arrays.
        in_memory = load_index(path, mmap=False)
        for part in ENVELOPE_PARTS:
            assert not isinstance(
                _ultimate_base(getattr(in_memory, part)), mmap.mmap
            )
        _assert_identical(loaded, in_memory, query_of(50))

    def test_raw_views_are_read_only(self, tmp_path, series_values):
        original = _frozen(series_values, "none")
        path = tmp_path / "frozen.raw"
        save_index(original, path)
        loaded = load_index(path)
        for part in ENVELOPE_PARTS:
            with pytest.raises(ValueError):
                getattr(loaded, part)[0, 0] = 0.0

    def test_overwrite_in_place(self, tmp_path, series_values, query_of):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values[:1000], "global"), path)
        replacement = _frozen(series_values, "global")
        save_index(replacement, path)
        _assert_identical(replacement, load_index(path), query_of(99))


class TestShardedRawRoundTrip:
    def test_byte_identical_across_formats(
        self, tmp_path, series_values, any_normalization, query_of,
        save_legacy_npz,
    ):
        engine = ShardedTSIndex.build(
            series_values, LENGTH, normalization=any_normalization, shards=3
        )
        raw_path = tmp_path / "engine.raw"
        npz_path = tmp_path / "engine.npz"
        save_index(engine, raw_path)
        save_legacy_npz(engine, npz_path)
        from_raw = load_index(raw_path)
        assert isinstance(from_raw, ShardedTSIndex)
        assert from_raw.shard_count == engine.shard_count
        query = query_of(222)
        _assert_identical(engine, from_raw, query)
        _assert_identical(load_index(npz_path), from_raw, query)

    def test_load_attaches_archive_path(
        self, tmp_path, series_values, save_legacy_npz
    ):
        engine = ShardedTSIndex.build(series_values, LENGTH, shards=2)
        assert engine.archive_path is None
        raw_path = tmp_path / "engine.raw"
        save_index(engine, raw_path)
        loaded = load_index(raw_path)
        assert loaded.archive_path == os.fspath(raw_path)
        npz_path = tmp_path / "engine.npz"
        save_legacy_npz(engine, npz_path)
        assert load_index(npz_path).archive_path == os.fspath(npz_path)

    def test_shard_planes_are_mmapped(self, tmp_path, series_values):
        engine = ShardedTSIndex.build(series_values, LENGTH, shards=2)
        path = tmp_path / "engine.raw"
        save_index(engine, path)
        loaded = load_index(path)
        for shard in loaded.shards:
            for part in ENVELOPE_PARTS:
                assert isinstance(_ultimate_base(getattr(shard, part)), mmap.mmap)


class TestAtomicCommit:
    def test_missing_meta_fails_loudly(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path)
        os.unlink(path / "meta.json")
        with pytest.raises(SerializationError, match="uncommitted or torn"):
            load_index(path)

    def test_corrupt_meta_fails_loudly(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path)
        (path / "meta.json").write_text("{not json")
        with pytest.raises(SerializationError, match="uncommitted or torn"):
            load_index(path)

    def test_torn_array_fails_loudly(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path)
        (path / "uppers_tail.npy").write_bytes(b"\x93NUMPY")
        with pytest.raises(SerializationError):
            load_index(path).search(series_values[:LENGTH], 0.5)

    def test_no_tmp_files_survive_commit(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path)
        leftovers = [n for n in os.listdir(path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_stale_arrays_removed_on_rewrite(self, tmp_path, series_values):
        path = tmp_path / "frozen.raw"
        save_index(_frozen(series_values, "global"), path)
        stale = path / "ghost_field.npy"
        stale.write_bytes(b"stale")
        save_index(_frozen(series_values, "global"), path)
        assert not stale.exists()


class TestRefusedPaths:
    """``save_index`` clears its target directory before writing, so it
    only ever does that to a directory that is an archive (or empty, or
    absent), and says so with a typed error otherwise."""

    def test_regular_file_is_refused(self, tmp_path, series_values):
        path = tmp_path / "last_week.npz"
        path.write_bytes(b"an archive file of an older version")
        with pytest.raises(SerializationError, match="a file is already there"):
            save_index(_frozen(series_values[:500], "none"), path)
        assert path.read_bytes() == b"an archive file of an older version"

    def test_directory_of_other_files_is_refused_untouched(
        self, tmp_path, series_values
    ):
        path = tmp_path / "experiment"
        path.mkdir()
        np.save(path / "my_experiment.npy", np.arange(5))
        (path / "notes.txt").write_text("do not lose")
        with pytest.raises(SerializationError, match="notes.txt"):
            save_index(_frozen(series_values[:500], "none"), path)
        assert sorted(os.listdir(path)) == ["my_experiment.npy", "notes.txt"]
        assert np.array_equal(np.load(path / "my_experiment.npy"), np.arange(5))

    def test_torn_archive_directory_is_overwritten(
        self, tmp_path, series_values, query_of
    ):
        """No ``meta.json``, a stray ``.tmp``: what a crashed save
        leaves behind holds only files of ours, and is written over."""
        path = tmp_path / "torn.rts"
        original = _frozen(series_values, "global")
        save_index(original, path)
        os.unlink(path / "meta.json")
        (path / "series.npy.tmp").write_bytes(b"half a write")
        save_index(original, path)
        assert not (path / "series.npy.tmp").exists()
        _assert_identical(original, load_index(path), query_of(7))

    @pytest.mark.parametrize("name", ["idx", "b.rts", "idx.npz"])
    def test_load_returns_what_save_wrote_at_the_path_given(
        self, tmp_path, series_values, query_of, name
    ):
        """Whatever the name, the archive is at exactly that path (numpy
        used to append ``.npz`` to a suffix-less one, so ``load_index``
        of the same path failed — or served a stale directory)."""
        path = tmp_path / name
        save_index(_frozen(series_values[:800], "global"), path)
        replacement = _frozen(series_values, "global")
        save_index(replacement, path)
        assert os.listdir(tmp_path) == [name]
        _assert_identical(replacement, load_index(path), query_of(31))


class TestLegacyCompatibility:
    def test_legacy_field_layout_still_loads(
        self, tmp_path, series_values, query_of, save_legacy_npz
    ):
        """Archives in the pre-raw layout carry ``uppers``/``lowers``
        (whole node-major matrices, none of the resident parts) in one
        compressed file. Nothing writes that any more; it must keep
        loading — and the fixture that stands in for the old writer
        must produce the members of a committed file the old writer
        made."""
        original = _frozen(series_values, "global")
        path = tmp_path / "legacy.npz"
        save_legacy_npz(original, path)
        with np.load(path, allow_pickle=False) as archive:
            fields = set(archive.files)
        assert "uppers" in fields and not fields & set(ENVELOPE_FILES)
        with np.load(DATA / "frozen_node_major.npz", allow_pickle=False) as archive:
            assert fields == set(archive.files)
        restored = load_index(path)
        _assert_identical(original, restored, query_of(42))

    @pytest.mark.parametrize("container", ["raw", "npz"])
    def test_float64_envelope_archives_still_load(
        self, tmp_path, series_values, any_normalization, query_of, container,
        save_legacy_npz,
    ):
        """Archives written before the envelopes became float32 hold
        them as float64 (whole timestamp-major ``uppers_t`` /
        ``lowers_t`` matrices in raw directories, node-major in
        ``.npz``). Loading rounds them outward and re-lays them out
        once — into private memory; the other arrays stay mapped — and
        gives the very arrays freezing the same tree gives today."""
        dynamic = TSIndex.build(
            series_values, LENGTH, normalization=any_normalization
        )
        original = dynamic.freeze()
        exact = flatten(dynamic._root, dynamic.length)  # float64, same BFS order
        assert exact["uppers"].dtype == np.float64
        path = tmp_path / f"legacy.{container}"
        if container == "raw":
            save_index(original, path, fsync=False)
            for file in ENVELOPE_FILES:
                os.unlink(path / f"{file}.npy")
            np.save(path / "uppers_t.npy", np.ascontiguousarray(exact["uppers"].T))
            np.save(path / "lowers_t.npy", np.ascontiguousarray(exact["lowers"].T))
        else:
            save_legacy_npz(
                original, path, uppers=exact["uppers"], lowers=exact["lowers"]
            )
        restored = load_index(path)
        for field, array in original.raw_arrays().items():
            assert restored.raw_arrays()[field].dtype == array.dtype
            assert np.array_equal(restored.raw_arrays()[field], array)
        if container == "raw":
            for part in ENVELOPE_PARTS:
                assert not isinstance(
                    _ultimate_base(getattr(restored, part)), mmap.mmap
                )
            assert isinstance(_ultimate_base(restored._positions), mmap.mmap)
        source = original.source
        for position in (42, 1500):
            _assert_identical(original, restored, query_of(position, source))

    @pytest.mark.parametrize(
        "fixture", ["frozen_timestamp_major.raw", "frozen_node_major.npz"]
    )
    def test_archives_of_the_previous_layout_load(self, fixture):
        """``tests/data/frozen_timestamp_major.raw`` (whole ``(l, n)``
        float32 ``uppers_t`` / ``lowers_t`` members) and
        ``frozen_node_major.npz`` (``(n, l)`` ``uppers`` / ``lowers``)
        were written by the last commit whose resident envelopes were
        the timestamp-major matrices: a 700-point seed-18 random walk,
        l = 24, μc/Mc = 4/10. Each loads to the arrays a fresh freeze
        holds and answers all six query modes as it does."""
        restored = load_index(DATA / fixture)
        assert isinstance(restored, FrozenTSIndex)
        series = np.cumsum(np.random.default_rng(18).normal(size=700))
        fresh = TSIndex.build(
            series, 24, normalization="global",
            params=TSIndexParams(min_children=4, max_children=10),
        ).freeze()
        for field, array in fresh.raw_arrays().items():
            assert restored.raw_arrays()[field].dtype == array.dtype
            assert np.array_equal(restored.raw_arrays()[field], array), field
        # ``arrays()`` hands back the archived matrices themselves.
        if fixture.endswith(".npz"):
            with np.load(DATA / fixture, allow_pickle=False) as archive:
                stored = {"uppers": archive["uppers"], "lowers": archive["lowers"]}
        else:
            stored = {
                "uppers": np.load(DATA / fixture / "uppers_t.npy").T,
                "lowers": np.load(DATA / fixture / "lowers_t.npy").T,
            }
        for field, matrix in stored.items():
            assert matrix.dtype == np.float32
            assert np.array_equal(restored.arrays()[field], matrix), field
        source = fresh.source
        for position in (5, 123, 600):
            query = np.array(source.window_block(position, position + 1)[0])
            _assert_identical(fresh, restored, query, epsilon=0.4)
            prefix_a = fresh.search(query[:11], 0.4)
            prefix_b = restored.search(query[:11], 0.4)
            assert np.array_equal(prefix_a.positions, prefix_b.positions)
            assert np.array_equal(prefix_a.distances, prefix_b.distances)
            assert prefix_a.stats == prefix_b.stats
            stats_a, stats_b = QueryStats(), QueryStats()
            found = fresh.exists(query + 0.01, 0.4, stats=stats_a)
            assert found == restored.exists(query + 0.01, 0.4, stats=stats_b)
            assert found == bool(
                chebyshev_distance_profile(source, query + 0.01).min() <= 0.4
            )
            assert stats_a == stats_b
            queries = [query, query[::-1].copy()]
            batch_a = fresh.search_batch(queries, 0.4)
            batch_b = restored.search_batch(queries, 0.4)
            for a, b in zip(batch_a.results, batch_b.results):
                assert np.array_equal(a.positions, b.positions)
                assert np.array_equal(a.distances, b.distances)
                assert a.stats == b.stats

    def test_pointer_archive_of_the_previous_layout_loads(self):
        """``tests/data/pointer_tsindex.raw`` was written by the last
        commit whose pointer-tree archives held the tree as
        ``child_starts`` / ``child_counts`` / ``position_offsets``, from
        the frozen fixtures' recipe. It loads to the tree a fresh build
        makes: the same float64 envelopes, kinds and positions bit for
        bit, the same frozen arrays, the same answers and counters."""
        restored = load_index(DATA / "pointer_tsindex.raw")
        assert type(restored) is TSIndex
        series = np.cumsum(np.random.default_rng(18).normal(size=700))
        fresh = TSIndex.build(
            series, 24, normalization="global",
            params=TSIndexParams(min_children=4, max_children=10),
        )
        ours, theirs = flatten(restored._root, 24), flatten(fresh._root, 24)
        assert ours["uppers"].dtype == ours["lowers"].dtype == np.float64
        for field in ARRAY_FIELDS:
            assert ours[field].dtype == theirs[field].dtype, field
            assert ours[field].tobytes() == theirs[field].tobytes(), field
        for field, array in fresh.freeze().raw_arrays().items():
            assert restored.freeze().raw_arrays()[field].dtype == array.dtype
            assert np.array_equal(restored.freeze().raw_arrays()[field], array)
        source = fresh.source
        for position in (5, 123, 600):
            query = np.array(source.window_block(position, position + 1)[0])
            a, b = fresh.search(query, 0.4), restored.search(query, 0.4)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.distances, b.distances)
            assert a.stats == b.stats

    def test_one_resident_copy_of_the_envelopes(self, series_values):
        """The resident arrays hold every envelope element exactly once
        — ``2·n·l`` float32 values — beside the structure arrays: a
        shadow copy in either layout would show here (and in
        twinbench's ``footprint_bytes_per_window``, which sums the same
        arrays)."""
        index = _frozen(series_values, "global")
        raw = index.raw_arrays()
        assert set(raw) == set(RAW_ARRAY_FIELDS)
        structure = [f for f in ARRAY_FIELDS if f not in ("uppers", "lowers")]
        assert set(raw) - set(ENVELOPE_FILES) == set(structure)
        envelope_bytes = 2 * index.node_count * index.length * 4
        assert sum(raw[file].nbytes for file in ENVELOPE_FILES) == envelope_bytes
        assert sum(array.nbytes for array in raw.values()) == envelope_bytes + sum(
            index.arrays()[field].nbytes for field in structure
        )
        # Nothing else on the object holds an array.
        held = [
            getattr(index, slot)
            for slot in FrozenTSIndex.__slots__
            if isinstance(getattr(index, slot), np.ndarray)
        ]
        assert len(held) == len(raw)
        assert {id(array) for array in held} == {id(a) for a in raw.values()}

    def test_raw_other_plane_kinds_round_trip(
        self, tmp_path, series_values, query_of
    ):
        """The raw container is not frozen-specific: a dynamic
        pointer-tree TS-Index round-trips through it too."""
        original = TSIndex.build(series_values, LENGTH, normalization="global")
        path = tmp_path / "dynamic.raw"
        save_index(original, path)
        restored = load_index(path)
        query = query_of(77)
        a, b = original.search(query, 0.5), restored.search(query, 0.5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.distances, b.distances)


def _drop_positions(path):
    positions = np.load(path / "positions.npy")
    np.save(path / "positions.npy", positions[:-5])


def _drop_params(path):
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    del meta["params"]
    (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def _shift_child_starts(path):
    starts = np.load(path / "child_starts.npy")
    starts[0] += 1
    np.save(path / "child_starts.npy", starts)


class TestMalformedArchives:
    """A damaged archive fails with a typed error, never silently and
    never with a bare ``KeyError``. Over a 577-window index, l = 24."""

    @pytest.mark.parametrize(
        "kind, damage, error, match",
        [
            ("pointer", _drop_positions, InvalidParameterError, "leaf_offsets"),
            (
                "frozen",
                lambda path: os.unlink(path / "kinds.npy"),
                SerializationError,
                "'kinds'",
            ),
            ("pointer", _drop_params, SerializationError, "'params'"),
            ("frozen", _drop_params, SerializationError, "'params'"),
            ("legacy", _shift_child_starts, SerializationError, "child_starts"),
        ],
    )
    def test_damage_is_refused(self, tmp_path, kind, damage, error, match):
        path = tmp_path / f"{kind}.raw"
        if kind == "legacy":
            shutil.copytree(DATA / "pointer_tsindex.raw", path)
        else:
            series = np.cumsum(np.random.default_rng(3).normal(size=600))
            index = TSIndex.build(series, 24, normalization="global")
            save_index(index if kind == "pointer" else index.freeze(), path)
        damage(path)
        with pytest.raises(error, match=match):
            load_index(path)


class TestLoadMetric:
    def test_archive_load_histogram_observes(
        self, tmp_path, series_values, save_legacy_npz
    ):
        from repro.obs import (
            MetricsRegistry,
            default_registry,
            set_default_registry,
        )

        npz_path = tmp_path / "frozen.npz"
        raw_path = tmp_path / "frozen.raw"
        original = _frozen(series_values, "global")
        save_legacy_npz(original, npz_path)
        save_index(original, raw_path)
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
