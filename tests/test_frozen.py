"""FrozenTSIndex: structure, exactness, the snapshot memo, wiring.

The contract under test is *exactness*: ``search`` on the flat form
returns what Algorithm 1 over the pointer tree returns, and the modes
only the flat form implements (``knn`` / ``exists`` / ``search_batch``,
which ``TSIndex`` answers through its ``freeze()`` snapshot) return what
a brute-force Chebyshev scan returns — positions, distances, k-NN
``(distance, position)`` tie-breaks — across every normalization regime.
The frozen envelopes are float32 rounded outward, so the structural
counters of ``search`` / ``exists`` may exceed the pointer tree's by
nodes whose exact bound clears ε by less than the rounding step; on the
seeded workloads here no bound sits that close, and the counters are
held to equality. A seeded randomized suite drives both implementations
with identical workloads and compares bit-for-bit; further classes cover
thaw, serializer round-trips of the flat arrays, and the frozen sharded
engine. (``tests/test_frozen_float32.py`` holds the rounding contract
itself and the oracle property.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.frozen import ARRAY_FIELDS, FrozenTSIndex, _concat_ranges
from repro.core.normalization import Normalization
from repro.core.stats import QueryStats
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.data import synthetic
from repro.engine import ShardedTSIndex
from repro.euclidean.mass import chebyshev_distance_profile
from repro.indices import create_method
from repro.persistence import load_index, save_index
from repro.query.planner import scan_knn

#: Small capacities force deep trees so traversal logic is exercised.
PARAMS = TSIndexParams(min_children=4, max_children=10)

LENGTH = 30

REGIMES = (Normalization.NONE, Normalization.GLOBAL, Normalization.PER_WINDOW)

EPSILONS = (0.0, 0.05, 0.3, 1.0, 4.0)


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return synthetic.noisy_sines(900, seed=42, noise_std=0.3)


@pytest.fixture(
    scope="module", params=REGIMES, ids=[regime.value for regime in REGIMES]
)
def pair(request, values):
    """(dynamic, frozen) built over the same source, per regime."""
    source = WindowSource(values, LENGTH, request.param)
    dynamic = TSIndex.from_source(source, params=PARAMS)
    return dynamic, dynamic.freeze()


def _queries(source: WindowSource, rng: np.random.Generator, count: int = 12):
    """A workload mixing exact windows, perturbed windows and noise."""
    queries = []
    for position in rng.integers(0, source.count, size=count // 3):
        queries.append(np.array(source.window_block(int(position), int(position) + 1)[0]))
    for position in rng.integers(0, source.count, size=count // 3):
        window = np.array(source.window_block(int(position), int(position) + 1)[0])
        queries.append(window + rng.normal(scale=0.1, size=window.size))
    for _ in range(count - len(queries)):
        queries.append(rng.normal(size=source.length))
    return queries


def _assert_result_equal(a, b, *, stats: bool = True):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.distances, b.distances)
    if stats:
        assert a.stats.as_dict() == b.stats.as_dict()


class TestStructure:
    def test_flat_arrays_mirror_tree(self, pair):
        dynamic, frozen = pair
        assert frozen.node_count == dynamic.node_count
        assert frozen.height == dynamic.height
        assert frozen.size == dynamic.size
        assert frozen.length == dynamic.length
        assert frozen.leaf_count == sum(
            1 for node, _ in dynamic.iter_nodes() if node.is_leaf
        )
        arrays = frozen.arrays()
        assert set(arrays) == set(ARRAY_FIELDS)
        n = frozen.node_count
        assert arrays["uppers"].shape == (n, LENGTH)
        assert arrays["lowers"].shape == (n, LENGTH)
        # CSR adjacency covers every non-root node exactly once.
        assert arrays["children_offsets"].shape == (n + 1,)
        assert sorted(arrays["children"].tolist()) == list(range(1, n))
        # Every indexed window position appears exactly once in a leaf.
        assert sorted(arrays["positions"].tolist()) == list(range(frozen.size))

    def test_arrays_are_read_only(self, pair):
        _, frozen = pair
        for array in frozen.arrays().values():
            with pytest.raises(ValueError):
                array[..., 0] = 0

    def test_envelope_rows_match_node_mbts(self, pair):
        """Stored rows are float32 covers of the node's envelope, less
        than one float32 step outside it."""
        dynamic, frozen = pair
        arrays = frozen.arrays()
        root = dynamic._root
        upper, lower = arrays["uppers"][0], arrays["lowers"][0]
        assert upper.dtype == lower.dtype == np.float32
        assert np.all(upper >= root.mbts.upper)
        assert np.all(lower <= root.mbts.lower)
        assert np.all(np.nextafter(upper, -np.inf) < root.mbts.upper)
        assert np.all(np.nextafter(lower, np.inf) > root.mbts.lower)

    def test_empty_index_freezes(self, values):
        source = WindowSource(values, LENGTH, Normalization.NONE)
        empty = TSIndex(source, PARAMS)  # no insertions
        frozen = empty.freeze()
        assert frozen.node_count == 0
        assert frozen.height == 0
        query = np.array(source.window_block(0, 1)[0])
        assert len(frozen.search(query, 1.0)) == 0
        assert not frozen.exists(query, 1.0)
        assert len(frozen.knn(query, 3)) == 0

    def test_repr(self, pair):
        _, frozen = pair
        assert "FrozenTSIndex" in repr(frozen)

    def test_corrupted_arrays_rejected(self, pair):
        from repro.core.stats import BuildStats
        from repro.exceptions import InvalidParameterError

        dynamic, frozen = pair

        def corrupt(field, mutate):
            arrays = {
                key: np.array(value)
                for key, value in frozen.arrays().items()
            }
            mutate(arrays[field])
            with pytest.raises(InvalidParameterError):
                FrozenTSIndex.from_arrays(
                    dynamic.source, dynamic.params, BuildStats(), arrays
                )

        corrupt("children", lambda a: a.__setitem__(3, -1))
        corrupt("children", lambda a: a.__setitem__(3, frozen.node_count))
        corrupt("children_offsets", lambda a: a.__setitem__(0, 2))
        corrupt("leaf_offsets", lambda a: a.__setitem__(1, -1))
        corrupt("positions", lambda a: a.__setitem__(0, frozen.size))

    def test_truncated_empty_arrays_rejected(self, pair):
        from repro.core.stats import BuildStats
        from repro.exceptions import InvalidParameterError

        dynamic, _ = pair
        # A truncated archive: node arrays lost, orphan positions left.
        arrays = {
            "uppers": np.empty((0, LENGTH)),
            "lowers": np.empty((0, LENGTH)),
            "kinds": np.empty(0, dtype=np.int8),
            "children_offsets": np.zeros(1, dtype=np.int64),
            "children": np.empty(0, dtype=np.int64),
            "leaf_offsets": np.zeros(1, dtype=np.int64),
            "positions": np.arange(20, dtype=np.int64),
        }
        with pytest.raises(InvalidParameterError):
            FrozenTSIndex.from_arrays(
                dynamic.source, dynamic.params, BuildStats(), arrays
            )

    def test_concat_ranges(self):
        starts = np.array([5, 0, 9], dtype=np.int64)
        counts = np.array([3, 0, 2], dtype=np.int64)
        assert _concat_ranges(starts, counts).tolist() == [5, 6, 7, 9, 10]
        assert _concat_ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ).size == 0


class TestEquivalence:
    """Seeded randomized frozen == pointer ``search`` == brute-force
    scan, across regimes."""

    def test_search_exact(self, pair):
        dynamic, frozen = pair
        rng = np.random.default_rng(7)
        for query in _queries(dynamic.source, rng):
            for epsilon in EPSILONS:
                _assert_result_equal(
                    dynamic.search(query, epsilon),
                    frozen.search(query, epsilon),
                )

    def test_search_all_verification_modes(self, pair):
        dynamic, frozen = pair
        rng = np.random.default_rng(8)
        (query,) = _queries(dynamic.source, rng, count=3)[:1]
        for mode in ("bulk", "per_candidate"):
            _assert_result_equal(
                dynamic.search(query, 0.4, verification=mode),
                frozen.search(query, 0.4, verification=mode),
            )

    def test_exists_exact_with_stats(self, pair):
        dynamic, frozen = pair
        rng = np.random.default_rng(9)
        for query in _queries(dynamic.source, rng):
            profile = chebyshev_distance_profile(dynamic.source, query)
            for epsilon in EPSILONS:
                stats = QueryStats()
                found = frozen.exists(query, epsilon, stats=stats)
                assert found == bool(profile.min() <= epsilon)
                # ``exists`` is the search, so it reports the search's
                # counters.
                assert stats == frozen.search(query, epsilon).stats

    def test_exists_agrees_with_search(self, pair):
        dynamic, frozen = pair
        rng = np.random.default_rng(10)
        for query in _queries(dynamic.source, rng, count=6):
            for epsilon in EPSILONS:
                expected = len(dynamic.search(query, epsilon)) > 0
                assert frozen.exists(query, epsilon) == expected

    def test_knn_exact(self, pair):
        dynamic, frozen = pair
        rng = np.random.default_rng(11)
        for query in _queries(dynamic.source, rng, count=6):
            for k in (1, 5, 23):
                _assert_result_equal(
                    scan_knn(dynamic.source, query, k),
                    frozen.knn(query, k),
                    stats=False,
                )

    def test_knn_exclude_exact(self, pair):
        dynamic, frozen = pair
        rng = np.random.default_rng(12)
        for position in rng.integers(0, dynamic.size, size=4):
            position = int(position)
            query = np.array(
                dynamic.source.window_block(position, position + 1)[0]
            )
            zone = (max(0, position - LENGTH), position + LENGTH)
            a = scan_knn(dynamic.source, query, 7, exclude=zone)
            b = frozen.knn(query, 7, exclude=zone)
            _assert_result_equal(a, b, stats=False)
            assert not np.any((b.positions >= zone[0]) & (b.positions < zone[1]))

    def test_knn_k_exceeds_size(self, pair):
        dynamic, frozen = pair
        query = np.array(dynamic.source.window_block(0, 1)[0])
        _assert_result_equal(
            scan_knn(dynamic.source, query, dynamic.size + 5),
            frozen.knn(query, frozen.size + 5),
            stats=False,
        )

    def test_search_batch_matches_single(self, pair):
        """Per query, a batch answers what ``search`` answers alone —
        positions, distances and counters — at width 9 and width 1, for
        a batch mixing a query the root prunes with live queries and a
        duplicate, and on an index with no nodes."""
        dynamic, frozen = pair
        rng = np.random.default_rng(13)
        queries = _queries(dynamic.source, rng, count=9)
        far = np.zeros(LENGTH)
        far[0] = 1e3
        mixed = [queries[0], far, queries[4], queries[0]]
        empty = TSIndex(dynamic.source, PARAMS).freeze()
        for epsilon in (0.0, 0.3, 1.0):
            assert frozen.search(far, epsilon).stats.nodes_visited == 1
            for index, workload in (
                (frozen, queries),
                (frozen, queries[:1]),
                (frozen, mixed),
                (empty, mixed),
            ):
                batch = index.search_batch(workload, epsilon)
                assert len(batch) == len(workload)
                for query, result in zip(workload, batch.results):
                    _assert_result_equal(result, index.search(query, epsilon))
                    if index is frozen:
                        _assert_result_equal(
                            result, dynamic.search(query, epsilon)
                        )

    def test_search_batch_empty_workload(self, pair):
        _, frozen = pair
        batch = frozen.search_batch([], 0.5)
        assert len(batch) == 0
        assert batch.stats.candidates == 0

    def test_invalid_inputs_rejected(self, pair):
        from repro.exceptions import (
            IncompatibleQueryError,
            InvalidParameterError,
        )

        _, frozen = pair
        query = np.zeros(LENGTH)
        with pytest.raises(InvalidParameterError):
            frozen.search(query, -1.0)
        with pytest.raises(IncompatibleQueryError):
            frozen.search(np.zeros(LENGTH + 1), 0.5)
        with pytest.raises(InvalidParameterError):
            frozen.knn(query, 0)
        with pytest.raises(InvalidParameterError):
            frozen.knn(query, 3, exclude=(10, 5))


class TestThaw:
    def test_thaw_round_trip(self, pair):
        dynamic, frozen = pair
        thawed = frozen.thaw()
        assert isinstance(thawed, TSIndex)
        assert thawed.node_count == dynamic.node_count
        assert thawed.height == dynamic.height
        rng = np.random.default_rng(21)
        for query in _queries(dynamic.source, rng, count=6):
            _assert_result_equal(
                thawed.search(query, 0.4), dynamic.search(query, 0.4)
            )

    def test_thawed_tree_accepts_inserts(self, values):
        source = WindowSource(values, LENGTH, Normalization.NONE)
        partial = TSIndex(source, PARAMS)
        for position in range(200):
            partial.insert(position)
        thawed = partial.freeze().thaw()
        thawed.insert(200)
        query = np.array(source.window_block(200, 201)[0])
        assert 200 in thawed.search(query, 0.0).positions


class TestSnapshot:
    """The memoised ``freeze()`` that ``TSIndex.knn`` / ``exists`` /
    ``search_batch`` / ``search_varlength`` answer from."""

    @staticmethod
    def _seen_by(tree: TSIndex, position: int) -> list[bool]:
        """Whether each delegated mode finds the window at ``position``
        (noisy data: it has no other exact twin)."""
        query = np.array(tree.source.window_block(position, position + 1)[0])
        return [
            position in tree.knn(query, 1).positions,
            tree.exists(query, 0.0),
            position in tree.search_batch([query], 0.0).results[0].positions,
            position in tree.search_varlength(query[: LENGTH // 2], 0.0).positions,
        ]

    @pytest.fixture()
    def partial(self, values) -> TSIndex:
        tree = TSIndex(WindowSource(values, LENGTH, Normalization.NONE), PARAMS)
        for position in range(300):
            tree.insert(position)
        return tree

    def test_insert_invalidates_the_snapshot(self, partial):
        assert self._seen_by(partial, 300) == [False] * 4
        snapshot = partial.freeze()
        assert partial.freeze() is snapshot
        partial.insert(300)
        assert partial.freeze() is not snapshot
        assert self._seen_by(partial, 300) == [True] * 4
        thawed = partial.freeze().thaw()
        assert self._seen_by(thawed, 301) == [False] * 4
        thawed.insert(301)
        assert self._seen_by(thawed, 301) == [True] * 4
        assert self._seen_by(partial, 301) == [False] * 4

    def test_freeze_stamps_what_it_flattens(self, partial, tmp_path):
        # insert() keeps no height / node count; the pointer tree, its
        # snapshot, and every archive written from either used to carry
        # the zeros.
        frozen = partial.freeze()
        save_index(frozen, tmp_path / "partial.rts", fsync=False)
        save_index(partial, tmp_path / "pointer.rts", fsync=False)
        restored = load_index(tmp_path / "pointer.rts")
        assert isinstance(restored, TSIndex)
        for index in (
            partial, restored, frozen, load_index(tmp_path / "partial.rts")
        ):
            stats = index.build_stats
            assert (stats.height, stats.nodes, stats.windows) == (
                partial.height, partial.node_count, 300,
            )
            assert (index.height, index.node_count) == (stats.height, stats.nodes)


class TestPersistence:
    def test_frozen_round_trip(self, tmp_path, pair):
        dynamic, frozen = pair
        path = tmp_path / "frozen.rts"
        save_index(frozen, path)
        restored = load_index(path)
        assert isinstance(restored, FrozenTSIndex)
        assert restored.node_count == frozen.node_count
        assert restored.params == frozen.params
        for field in ARRAY_FIELDS:
            assert np.array_equal(
                restored.arrays()[field], frozen.arrays()[field]
            )
        rng = np.random.default_rng(31)
        for query in _queries(dynamic.source, rng, count=6):
            _assert_result_equal(
                restored.search(query, 0.4), dynamic.search(query, 0.4)
            )

    def test_pointer_archives_still_load_as_trees(self, tmp_path, pair):
        dynamic, _ = pair
        path = tmp_path / "pointer.rts"
        save_index(dynamic, path)
        assert isinstance(load_index(path), TSIndex)

    def test_sharded_frozen_round_trip(self, tmp_path, values):
        engine = ShardedTSIndex.build(
            values, LENGTH, normalization="global", shards=3, params=PARAMS
        )
        path = tmp_path / "engine.rts"
        save_index(engine, path)
        restored = load_index(path)
        assert isinstance(restored, ShardedTSIndex)
        assert all(
            isinstance(tree, FrozenTSIndex) for tree in restored.shards
        )
        query = np.array(engine.source.window_block(123, 124)[0])
        for epsilon in (0.0, 0.4):
            _assert_result_equal(
                restored.search(query, epsilon), engine.search(query, epsilon)
            )

    def test_pointer_shard_archive_loads_frozen(self):
        """``tests/data/sharded_pointer_shards.npz`` was written by the
        last commit whose ``ShardedTSIndex.build`` took ``frozen=False``
        (700-point seed-17 random walk, l = 24, 2 shards, μc/Mc = 4/10).
        Its pointer shards freeze on load into the very arrays freezing
        those trees gives: insertion-built trees, so each is compared
        with a fresh insertion build of its span (a fresh
        ``ShardedTSIndex.build`` bulk-loads its shards), and the
        answers with the fresh sharded build."""
        import pathlib

        path = pathlib.Path(__file__).parent / "data" / "sharded_pointer_shards.npz"
        restored = load_index(path)
        assert isinstance(restored, ShardedTSIndex)
        assert all(isinstance(tree, FrozenTSIndex) for tree in restored.shards)
        series = np.cumsum(np.random.default_rng(17).normal(size=700))
        rebuilt = ShardedTSIndex.build(
            series, 24, normalization="global", shards=2, params=PARAMS
        )
        assert restored.spans == rebuilt.spans
        for loaded, (start, stop) in zip(restored.shards, rebuilt.spans):
            inserted = TSIndex.from_source(
                rebuilt.source.shard(start, stop), params=PARAMS
            ).freeze()
            for field in ARRAY_FIELDS:
                assert np.array_equal(
                    loaded.arrays()[field], inserted.arrays()[field]
                )
        query = np.array(rebuilt.source.window_block(123, 124)[0])
        for epsilon in (0.0, 0.4):
            loaded, built = (
                restored.search(query, epsilon), rebuilt.search(query, epsilon)
            )
            # Same answer from differently packed trees: the structural
            # counters differ, the matches do not.
            _assert_result_equal(loaded, built, stats=False)
            assert loaded.stats.matches == built.stats.matches


class TestShardedFrozen:
    @pytest.fixture(scope="class")
    def engines(self, values):
        """(monolithic dynamic, sharded)."""
        source = WindowSource(values, LENGTH, Normalization.GLOBAL)
        mono = TSIndex.from_source(source, params=PARAMS)
        frozen_engine = ShardedTSIndex.from_source(
            source, shards=4, params=PARAMS
        )
        return mono, frozen_engine

    def test_default_build_is_frozen(self, engines):
        _, frozen_engine = engines
        assert all(
            isinstance(tree, FrozenTSIndex) for tree in frozen_engine.shards
        )

    def test_search_matches_monolithic(self, engines):
        mono, frozen_engine = engines
        rng = np.random.default_rng(41)
        for query in _queries(mono.source, rng, count=9):
            for epsilon in (0.0, 0.3, 1.0):
                _assert_result_equal(
                    frozen_engine.search(query, epsilon),
                    mono.search(query, epsilon),
                    stats=False,
                )

    def test_knn_matches_monolithic(self, engines):
        mono, frozen_engine = engines
        rng = np.random.default_rng(42)
        for query in _queries(mono.source, rng, count=6):
            for k in (1, 9):
                _assert_result_equal(
                    frozen_engine.knn(query, k),
                    mono.knn(query, k),
                    stats=False,
                )

    def test_batched_path_matches_per_query(self, engines):
        from repro.query.parts import PartitionedPlane

        _, frozen_engine = engines
        rng = np.random.default_rng(43)
        queries = _queries(frozen_engine.source, rng, count=8)
        looped = PartitionedPlane.search_batch(frozen_engine, queries, 0.4)
        batched = frozen_engine.search_batch(queries, 0.4)
        assert len(batched) == len(looped)
        for fast, slow in zip(batched.results, looped.results):
            _assert_result_equal(fast, slow)
        assert batched.stats.as_dict() == looped.stats.as_dict()

    @pytest.mark.parametrize(
        "options", [{"timeout": 5.0}, {"degraded": True}], ids=["timeout", "degraded"]
    )
    def test_deadline_options_take_the_planner_loop(self, engines, options):
        """A deadline option is the planner's to honour: with no
        executor, the sharded batch answers it through the planner loop
        rather than handing it to the per-shard walk."""
        from repro.query.parts import PartitionedPlane

        _, frozen_engine = engines
        rng = np.random.default_rng(44)
        queries = _queries(frozen_engine.source, rng, count=6)
        looped = PartitionedPlane.search_batch(
            frozen_engine, queries, 0.4, **options
        )
        batched = frozen_engine.search_batch(queries, 0.4, **options)
        assert len(batched) == len(looped) == len(queries)
        for fast, slow in zip(batched.results, looped.results):
            _assert_result_equal(fast, slow)
            assert fast.degraded is None


class TestFactoryAndCLI:
    def test_factory_builds_frozen(self, values):
        method = create_method(
            "frozen", values, LENGTH, normalization="none"
        )
        assert isinstance(method, FrozenTSIndex)

    def test_engine_build_freezes_shards(self, tmp_path, capsys):
        from repro import cli

        path = tmp_path / "engine.rts"
        code = cli.main([
            "engine", "build", "--output", str(path),
            "--dataset", "insect", "--scale", "0.02",
            "--length", "50", "--shards", "2",
        ])
        assert code == 0
        assert all(
            isinstance(tree, FrozenTSIndex)
            for tree in load_index(path).shards
        )
        capsys.readouterr()
