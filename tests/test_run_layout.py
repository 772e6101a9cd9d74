"""The run layout of bulk-built frozen trees.

A bulk-loaded leaf is a run of ``k = params.bulk_fill`` consecutive
windows, so its envelope is a slice of the series' width-``k`` sliding
extrema and its positions are ``start + arange(k)``. A bulk-built
:class:`~repro.core.frozen.FrozenTSIndex` (outside per-window
normalization) therefore holds the sliding extrema and one start per
leaf instead of those leaves' tail rows and positions. These tests hold:

* the extrema kernel to a direct reduction;
* the footprint: every array a tree holds is one ``raw_arrays()``
  reports (the footprint metric and the serializer both read it), and
  the run layout takes a bulk-built tree under 24 B/window while the
  other trees hold what they held before it;
* joins: a forest of run-layout trees is one, equal to the stored
  layout's forest, and any mix joins;
* format-2 archives (``tests/data/*_v2.raw``, written before the run
  layout): they load into it, equal to a fresh build bit for bit, and a
  stored leaf value moved inward is refused by member name.
"""

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro import TSIndex, bulk_load
from repro.core.bulkload import sliding_extrema
from repro.core.frozen import FrozenTSIndex, join
from repro.core.mbts import round_down_f32, round_up_f32
from repro.core.tsindex import TSIndexParams
from repro.engine import ShardedTSIndex
from repro.exceptions import InvalidParameterError, SerializationError
from repro.persistence import load_index, save_index

DATA = pathlib.Path(__file__).parent / "data"


def _series(seed: int, size: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=size))


def _answers_equal(a, b, queries, epsilons=(0.0, 0.4, 1.5)) -> None:
    for query in queries:
        for epsilon in epsilons:
            ra, rb = a.search(query, epsilon), b.search(query, epsilon)
            assert np.array_equal(ra.positions, rb.positions)
            assert np.array_equal(ra.distances, rb.distances)
            assert ra.stats == rb.stats
            pa, pb = a.search(query[:9], epsilon), b.search(query[:9], epsilon)
            assert np.array_equal(pa.positions, pb.positions)
            assert np.array_equal(pa.distances, pb.distances)
            assert pa.stats == pb.stats
        ka, kb = a.knn(query, 4), b.knn(query, 4)
        assert np.array_equal(ka.positions, kb.positions)
        assert np.array_equal(ka.distances, kb.distances)
        assert ka.stats == kb.stats
    for ra, rb in zip(
        a.search_batch(queries, 0.4).results, b.search_batch(queries, 0.4).results
    ):
        assert np.array_equal(ra.positions, rb.positions)
        assert ra.stats == rb.stats


def _queries(index, positions=(3, 250, 600)) -> list[np.ndarray]:
    rng = np.random.default_rng(4)
    return [
        np.array(index.source.window_block(p, p + 1)[0]) + rng.normal(0, 0.05, index.length)
        for p in positions
    ]


class TestSlidingExtrema:
    @pytest.mark.parametrize("width", [1, 2, 7, 22, 50])
    @pytest.mark.parametrize("size", [1, 21, 22, 23, 500])
    def test_equals_a_direct_reduction(self, width, size):
        values = np.random.default_rng(size + width).normal(size=size) * 1e3
        upper, lower = sliding_extrema(values, width)
        if size < width:
            assert upper.size == lower.size == 0
            return
        view = np.lib.stride_tricks.sliding_window_view(values, width)
        assert upper.tobytes() == view.max(axis=1).tobytes()
        assert lower.tobytes() == view.min(axis=1).tobytes()

    def test_bulk_leaf_rows_are_sliding_extrema_rows(self):
        """Every full-run leaf's whole row is the outward-rounded
        extrema row at its first position — what the tree reads."""
        index = bulk_load(_series(2, 3000), 40, normalization="none")
        fill = index.params.bulk_fill
        arrays = index.arrays()
        upper, lower = sliding_extrema(index.source.values, fill)
        for leaf in np.flatnonzero(arrays["kinds"]):
            first, stop = arrays["leaf_offsets"][leaf : leaf + 2]
            positions = arrays["positions"][first:stop]
            if positions.size != fill:
                continue
            start = positions[0]
            assert np.array_equal(positions, np.arange(start, start + fill))
            window = slice(start, start + index.length)
            assert arrays["uppers"][leaf].tobytes() == round_up_f32(upper[window]).tobytes()
            assert arrays["lowers"][leaf].tobytes() == round_down_f32(lower[window]).tobytes()


# ----------------------------------------------------------------------
# Footprint honesty
# ----------------------------------------------------------------------
def _held_arrays(index: FrozenTSIndex) -> dict[str, np.ndarray]:
    """Every ndarray a frozen index holds, by slot (tuples unpacked)."""
    held = {}
    for slot in FrozenTSIndex.__slots__:
        value = getattr(index, slot)
        items = value if isinstance(value, tuple) else (value,)
        for number, item in enumerate(items):
            if isinstance(item, np.ndarray):
                held[f"{slot}[{number}]"] = item
    return held


def _memory_of(array: np.ndarray) -> int:
    """The id of the object an array's memory lives in (the ``.base``
    chain's end: an owning array, an mmap buffer)."""
    while getattr(array, "base", None) is not None:
        array = array.base
    return id(array)


@pytest.fixture(scope="module")
def trees() -> dict[str, FrozenTSIndex]:
    series = _series(3, 4000)
    params = TSIndexParams(min_children=4, max_children=10)
    trees = {
        f"bulk-{norm}": bulk_load(series, 48, normalization=norm, params=params)
        for norm in ("global", "none", "per_window")
    }
    trees["tsindex-freeze"] = TSIndex.build(series[:1500], 48, normalization="none").freeze()
    sharded = ShardedTSIndex.build(series, 48, normalization="none", shards=3, params=params)
    trees["sharded-forest"] = sharded._joined()
    return trees


class TestFootprintHonesty:
    @pytest.mark.parametrize(
        "name",
        ["bulk-global", "bulk-none", "bulk-per_window", "tsindex-freeze", "sharded-forest"],
    )
    def test_every_held_array_is_a_raw_array(self, trees, name):
        """The footprint metric sums ``raw_arrays()``, and the
        serializer writes it: nothing else the tree holds may take
        memory of its own, bar the stored layout's ``(1, l)`` copies of
        the root's whole rows."""
        index = trees[name]
        raw = {_memory_of(array) for array in index.raw_arrays().values()}
        for slot, array in _held_arrays(index).items():
            if _memory_of(array) in raw:
                continue
            assert slot.startswith("_root_rows") and index._pool_rows is None, slot
            assert array.shape == (1, index.length) and array.dtype == np.float32

    @pytest.mark.parametrize("normalization", ["global", "none"])
    def test_a_bulk_built_tree_holds_under_24_bytes_per_window(self, normalization):
        """20,000 windows of l = 100, default parameters (fill 22): the
        stored layout held 47.01 B/window; the run layout 21.04."""
        series = _series(3, 20_000 + 99)
        index = bulk_load(series, 100, normalization=normalization)
        held = sum(array.nbytes for array in index.raw_arrays().values())
        assert held / index.size == pytest.approx(21.03775)
        assert held / index.size <= 24

    def test_stored_layout_trees_hold_what_they_held(self):
        """The trees the sliding rule does not cover keep the stored
        layout and its footprint: a per-window bulk load of the same
        20,000 windows (47.01 B/window before and after) and a frozen
        insertion-built tree over 3,000 (49.94)."""
        series = _series(3, 20_000 + 99)
        for index, before in (
            (bulk_load(series, 100, normalization="per_window"), 47.01255),
            (TSIndex.build(series[:3099], 100, normalization="none").freeze(), 49.944666),
        ):
            assert "positions" in index.raw_arrays()
            held = sum(array.nbytes for array in index.raw_arrays().values())
            assert held / index.size == pytest.approx(before)


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
class TestJoin:
    def _stored(self, tree: FrozenTSIndex) -> FrozenTSIndex:
        return FrozenTSIndex(tree.source, tree.params, tree.build_stats, tree.arrays())

    @pytest.mark.parametrize("normalization", ["none", "global"])
    def test_run_forest_equals_the_stored_forest(self, normalization):
        sharded = ShardedTSIndex.build(
            _series(5, 3000), 32, normalization=normalization, shards=4,
            params=TSIndexParams(min_children=4, max_children=10),
        )
        forest = join(sharded.shards, [a for a, _ in sharded.spans], sharded.source)
        assert forest._pool_rows is not None and "positions" not in forest.raw_arrays()
        stored = join(
            [self._stored(tree) for tree in sharded.shards],
            [a for a, _ in sharded.spans],
            sharded.source,
        )
        assert stored._pool_rows is None
        for field, array in stored.arrays().items():
            assert forest.arrays()[field].tobytes() == array.tobytes(), field
        _answers_equal(forest, stored, _queries(forest))
        # Entry ``e`` of the forest's extrema is the source's own.
        upper, _ = sliding_extrema(sharded.source.values, sharded.params.bulk_fill)
        slide = forest._upper_pool[: forest._slide_size]
        assert slide.tobytes() == round_up_f32(upper[: slide.size]).tobytes()

    def test_a_mix_of_layouts_joins_in_the_stored_layout(self):
        sharded = ShardedTSIndex.build(
            _series(6, 2000), 32, normalization="none", shards=2,
            params=TSIndexParams(min_children=4, max_children=10),
        )
        first, second = sharded.shards
        mixed = join([first, self._stored(second)], [a for a, _ in sharded.spans], sharded.source)
        assert mixed._pool_rows is None
        _answers_equal(mixed, sharded._joined(), _queries(mixed))


# ----------------------------------------------------------------------
# Format-2 archives
# ----------------------------------------------------------------------
SERIES_V2 = np.cumsum(np.random.default_rng(18).normal(size=700))
PARAMS_V2 = TSIndexParams(min_children=4, max_children=10)


class TestFormat2Archives:
    """``tests/data/bulk_frozen_v2.raw`` and ``sharded_bulk_v2.raw`` were
    written by the last commit before the run layout (format 2, leaf
    tails and positions stored): a 700-point seed-18 random walk, l = 24,
    ``global``, μc/Mc = 4/10 (fill 8), the sharded one in two shards."""

    def test_frozen_archive_loads_into_the_run_layout(self):
        restored = load_index(DATA / "bulk_frozen_v2.raw")
        fresh = bulk_load(SERIES_V2, 24, normalization="global", params=PARAMS_V2)
        assert restored._pool_rows is not None
        assert restored.raw_arrays().keys() == fresh.raw_arrays().keys()
        for field, array in fresh.raw_arrays().items():
            assert restored.raw_arrays()[field].dtype == array.dtype, field
            assert restored.raw_arrays()[field].tobytes() == array.tobytes(), field
        _answers_equal(restored, fresh, _queries(fresh, (5, 123, 600)))

    def test_sharded_archive_loads_into_the_run_layout(self):
        restored = load_index(DATA / "sharded_bulk_v2.raw")
        fresh = ShardedTSIndex.build(
            SERIES_V2, 24, normalization="global", shards=2, params=PARAMS_V2
        )
        assert restored.spans == fresh.spans
        for ours, theirs in zip(restored.shards, fresh.shards):
            assert ours._pool_rows is not None
            for field, array in theirs.raw_arrays().items():
                assert ours.raw_arrays()[field].tobytes() == array.tobytes(), field
        for query in _queries(fresh.shards[0], (5, 123, 300)):
            for epsilon in (0.2, 0.6):
                ra, rb = restored.search(query, epsilon), fresh.search(query, epsilon)
                assert np.array_equal(ra.positions, rb.positions)
                assert np.array_equal(ra.distances, rb.distances)
                assert ra.stats == rb.stats

    @staticmethod
    def _full_run_leaf(path: pathlib.Path, prefix: str) -> int:
        kinds = np.load(path / f"{prefix}kinds.npy")
        counts = np.diff(np.load(path / f"{prefix}leaf_offsets.npy"))
        leaves = np.flatnonzero((kinds == 1) & (counts == PARAMS_V2.bulk_fill))
        return int(leaves[len(leaves) // 2])

    @pytest.mark.parametrize(
        "fixture, prefix, member",
        [
            ("bulk_frozen_v2.raw", "", "uppers_tail"),
            ("bulk_frozen_v2.raw", "", "lowers_tail"),
            ("sharded_bulk_v2.raw", "s1_", "uppers_tail"),
            ("sharded_bulk_v2.raw", "s0_", "lowers_head"),
        ],
    )
    def test_a_leaf_value_moved_inward_is_refused_by_member(
        self, tmp_path, fixture, prefix, member
    ):
        path = pathlib.Path(shutil.copytree(DATA / fixture, tmp_path / fixture))
        leaf = self._full_run_leaf(path, prefix)
        stored = np.load(path / f"{prefix}{member}.npy")
        inward = -np.inf if member.startswith("uppers") else np.inf
        if member.endswith("_head"):
            stored[1, leaf] = np.nextafter(stored[1, leaf], np.float32(inward))
        else:
            stored[leaf, 2] = np.nextafter(stored[leaf, 2], np.float32(inward))
        np.save(path / f"{prefix}{member}.npy", stored)
        with pytest.raises(SerializationError, match=f"{prefix}{member}"):
            load_index(path)

    def test_a_looser_leaf_keeps_the_stored_layout(self, tmp_path):
        """A stored row wider than its windows' envelope is still a
        valid cover (a thawed and grown tree holds such rows): the tree
        loads, in the stored layout, with the same answers."""
        path = pathlib.Path(shutil.copytree(DATA / "bulk_frozen_v2.raw", tmp_path / "v2"))
        leaf = self._full_run_leaf(path, "")
        tails = np.load(path / "uppers_tail.npy")
        tails[leaf, 2] = np.nextafter(tails[leaf, 2], np.float32(np.inf))
        np.save(path / "uppers_tail.npy", tails)
        restored = load_index(path)
        assert restored._pool_rows is None and "uppers_tail" in restored.raw_arrays()
        fresh = bulk_load(SERIES_V2, 24, normalization="global", params=PARAMS_V2)
        for query in _queries(fresh, (5, 123, 600)):
            for epsilon in (0.0, 0.4, 1.5):
                ra, rb = restored.search(query, epsilon), fresh.search(query, epsilon)
                assert np.array_equal(ra.positions, rb.positions)
                assert np.array_equal(ra.distances, rb.distances)

    def test_resaved_archives_are_format_3_run_layout(self, tmp_path):
        restored = load_index(DATA / "bulk_frozen_v2.raw")
        save_index(restored, tmp_path / "v3", fsync=False)
        meta = json.loads((tmp_path / "v3" / "meta.json").read_text(encoding="utf-8"))
        assert meta["format"] == 3
        assert not (tmp_path / "v3" / "positions.npy").exists()
        again = load_index(tmp_path / "v3")
        for field, array in restored.raw_arrays().items():
            assert again.raw_arrays()[field].tobytes() == array.tobytes(), field


class TestRunLayoutRefusals:
    def test_pool_rows_that_disagree_are_refused(self):
        index = bulk_load(_series(7, 800), 24, normalization="none")
        arrays = dict(index.raw_arrays())
        rows = np.array(arrays["pool_rows"])
        rows[-1] += 1
        arrays["pool_rows"] = rows
        with pytest.raises(InvalidParameterError, match="pool_rows"):
            FrozenTSIndex(index.source, index.params, index.build_stats, arrays)

    def test_a_pool_too_short_for_its_rows_is_refused(self):
        index = bulk_load(_series(7, 800), 24, normalization="none")
        arrays = dict(index.raw_arrays())
        arrays.pop("pool_rows")
        for name in ("uppers_pool", "lowers_pool"):
            arrays[name] = arrays[name][index.length * 3 :]
        with pytest.raises(InvalidParameterError, match="pools"):
            FrozenTSIndex(index.source, index.params, index.build_stats, arrays)

    def test_leaf_runs_outside_the_windows_are_refused(self):
        index = bulk_load(_series(7, 800), 24, normalization="none")
        arrays = dict(index.raw_arrays())
        starts = np.array(arrays["leaf_starts"])
        starts[-1] = index.size
        arrays["leaf_starts"] = starts
        with pytest.raises(InvalidParameterError, match="leaf runs"):
            FrozenTSIndex(index.source, index.params, index.build_stats, arrays)
