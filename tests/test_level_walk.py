"""The frozen plane's level walk against a node-by-node walk.

:meth:`FrozenTSIndex._collect_candidates` steps from level to level by
child counts over the BFS level table. The reference here walks the
same tree one node at a time over :meth:`FrozenTSIndex.arrays` — the
root against its exact float64 bound, every other node against the
query's float32 thresholds at every timestamp — and the two must agree
on the candidates (in id order) and on ``nodes_visited``,
``nodes_pruned`` and ``leaves_accessed``, for full-length and prefix
queries, on bulk-loaded, inserted, unbalanced and degenerate trees.
"""

import json
from collections import deque

import numpy as np
import pytest

from repro.core import frozen as frozen_module
from repro.core.bulkload import bulk_load_source
from repro.core.frozen import FrozenTSIndex
from repro.core.stats import BuildStats, QueryStats
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.exceptions import InvalidParameterError, SerializationError
from repro.persistence import load_index, save_index

REGIMES = ("none", "global", "per_window")
LENGTH = 24
PARAMS = TSIndexParams(min_children=2, max_children=5)


def reference_walk(index, query, epsilon):
    """Candidates and counters of Algorithm 1, one node at a time."""
    arrays = index.arrays()
    m = query.size
    uppers = arrays["uppers"][:, :m].astype(np.float64)
    lowers = arrays["lowers"][:, :m].astype(np.float64)
    kinds, offsets = arrays["kinds"], arrays["children_offsets"]
    leaf_offsets, positions = arrays["leaf_offsets"], arrays["positions"]
    lo, hi = frozen_module._thresholds(query, epsilon)
    counters = {"nodes_visited": 0, "nodes_pruned": 0, "leaves_accessed": 0}
    found = []
    if kinds.size == 0:
        return np.empty(0, dtype=np.int64), counters
    counters["nodes_visited"] += 1
    root = max(float(np.maximum(query - uppers[0], lowers[0] - query).max()), 0.0)
    if root > epsilon:
        counters["nodes_pruned"] += 1
        return np.empty(0, dtype=np.int64), counters
    queue = deque([0])
    while queue:
        node = queue.popleft()
        if kinds[node] == 1:
            counters["leaves_accessed"] += 1
            found.extend(positions[leaf_offsets[node]:leaf_offsets[node + 1]])
            continue
        # Child slot ``j`` is node ``j + 1`` (BFS, root first).
        for child in range(offsets[node] + 1, offsets[node + 1] + 1):
            counters["nodes_visited"] += 1
            if (uppers[child] >= lo).all() and (lowers[child] <= hi).all():
                queue.append(child)
            else:
                counters["nodes_pruned"] += 1
    return np.asarray(found, dtype=np.int64), counters


def assert_walks_agree(index, query, epsilon):
    stats = QueryStats()
    candidates = index.collect_varlength_candidates(query, epsilon, stats)
    expected, counters = reference_walk(index, query, epsilon)
    assert np.array_equal(candidates, expected)
    assert {name: getattr(stats, name) for name in counters} == counters
    return counters


def queries(source, rng, count=6):
    """Windows of ``source`` with a little noise, full length and two
    prefixes, plus one far from every window (its root is pruned)."""
    for position in rng.integers(0, source.count, size=count).tolist():
        window = source.window(position) + rng.normal(scale=0.02, size=LENGTH)
        for m in (LENGTH, LENGTH // 2, 3):
            yield window[:m]
    yield np.full(LENGTH, 1e3)


@pytest.fixture(scope="module", params=REGIMES)
def source(request):
    values = np.cumsum(np.random.default_rng(11).normal(size=3_000))
    return WindowSource(values, LENGTH, request.param)


@pytest.mark.parametrize("build", ["bulk", "insert"])
def test_level_walk_counts_like_a_node_walk(source, build):
    tree = (
        bulk_load_source(source, params=PARAMS)
        if build == "bulk"
        else TSIndex.from_source(source, params=PARAMS)
    )
    index = tree.freeze()
    assert index.height >= 4
    rng = np.random.default_rng(5)
    pruned_root = kept_leaves = 0
    for query in queries(source, rng):
        for epsilon in (0.0, 0.1, 0.5, 2.0, 1e9):
            counters = assert_walks_agree(index, query, epsilon)
            pruned_root += counters["nodes_visited"] == 1
            kept_leaves += counters["leaves_accessed"]
    assert pruned_root and kept_leaves


def test_sparse_frontiers_gather(source, monkeypatch):
    """Every level's head pass on the gather path."""
    monkeypatch.setattr(frozen_module, "_SPAN_FACTOR", 0)
    index = bulk_load_source(source, params=PARAMS)
    for query in queries(source, np.random.default_rng(6), count=3):
        for epsilon in (0.1, 0.5, 2.0):
            assert_walks_agree(index, query, epsilon)


def from_structure(source, kinds, child_counts, leaf_sizes, rng):
    """A frozen index over a BFS structure: node ``i`` has
    ``child_counts[i]`` children and (a leaf) ``leaf_sizes[i]`` random
    positions; envelopes are random bands around window 0."""
    n = len(kinds)
    centre = source.window(0)
    width = rng.uniform(0.0, 2.0, size=(n, 1)) * np.ones(LENGTH)
    shift = rng.normal(scale=1.0, size=(n, LENGTH))
    leaf_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(leaf_sizes, out=leaf_offsets[1:])
    children_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(child_counts, out=children_offsets[1:])
    return FrozenTSIndex.from_arrays(
        source,
        PARAMS,
        BuildStats(),
        {
            "uppers": centre + shift + width,
            "lowers": centre + shift - width,
            "kinds": np.asarray(kinds, dtype=np.int8),
            "children_offsets": children_offsets,
            "leaf_offsets": leaf_offsets,
            "positions": rng.integers(0, source.count, size=int(leaf_offsets[-1])),
        },
    )


def random_structure(rng, depth=4):
    """A random unbalanced BFS tree: leaves on several levels, some of
    them empty."""
    levels, kinds, counts = [0], [], []
    for level in levels:  # grows while it is walked: BFS order
        leaf = level == depth or (level > 0 and rng.random() < 0.3)
        kinds.append(int(leaf))
        counts.append(0 if leaf else int(rng.integers(1, 5)))
        levels.extend([level + 1] * counts[-1])
    sizes = [int(rng.integers(0, 4)) if kind else 0 for kind in kinds]
    return kinds, counts, sizes


def test_unbalanced_trees(source):
    rng = np.random.default_rng(9)
    mixed = 0
    for _ in range(25):
        kinds, counts, sizes = random_structure(rng)
        index = from_structure(source, kinds, counts, sizes, rng)
        mixed += any(0 < leaves < stop - start for start, stop, leaves in index._levels)
        centre = source.window(0)
        for epsilon in (0.5, 1.5, 3.0, 1e9):
            for m in (LENGTH, 5):
                assert_walks_agree(index, centre[:m], epsilon)
    assert mixed


@pytest.mark.parametrize(
    "kinds, counts, sizes",
    [
        ([1], [0], [7]),  # a lone leaf root
        ([0, 1], [1, 0], [0, 7]),  # a root over one leaf
        ([0], [0], [0]),  # a root with nothing under it
        ([0, 1, 1, 1], [3, 0, 0, 0], [0, 0, 0, 0]),  # empty leaves only
    ],
    ids=["leaf-root", "root-over-one-leaf", "childless-root", "empty-leaves"],
)
def test_degenerate_trees(source, kinds, counts, sizes):
    rng = np.random.default_rng(len(kinds))
    index = from_structure(source, kinds, counts, sizes, rng)
    assert index.height == (2 if len(kinds) > 1 else 1)
    centre = source.window(0)
    for epsilon in (0.0, 1.0, 3.0, 1e9):
        for m in (LENGTH, 4):
            assert_walks_agree(index, centre[:m], epsilon)
    # An epsilon that prunes the root.
    assert assert_walks_agree(index, np.full(LENGTH, 1e3), 1.0) == {
        "nodes_visited": 1, "nodes_pruned": 1, "leaves_accessed": 0,
    }


def test_empty_tree(source):
    index = FrozenTSIndex.from_tree(source, None, PARAMS, BuildStats())
    assert index.height == 0
    assert assert_walks_agree(index, source.window(0), 1.0) == {
        "nodes_visited": 0, "nodes_pruned": 0, "leaves_accessed": 0,
    }


class TestLayoutValidation:
    """The level walk reads levels off the BFS layout, so the
    constructor refuses anything else."""

    def arrays(self, source, **overrides):
        index = from_structure(
            source, [0, 0, 1, 1], [1, 2, 0, 0], [0, 0, 2, 3],
            np.random.default_rng(0),
        )
        arrays = dict(index.arrays())
        arrays.update(overrides)
        return arrays

    def test_bfs_tree_is_accepted(self, source):
        index = FrozenTSIndex.from_arrays(
            source, PARAMS, BuildStats(), self.arrays(source)
        )
        assert index._levels == ((0, 1, 0), (1, 2, 0), (2, 4, 2))

    def test_permuted_adjacency(self, source, tmp_path):
        # No adjacency list is held, so none can be permuted in memory;
        # an archive from before it became implicit still stores one,
        # and loading refuses any but 1 .. n-1.
        index = FrozenTSIndex.from_arrays(
            source, PARAMS, BuildStats(), self.arrays(source)
        )
        path = tmp_path / "tree"
        save_index(index, path, fsync=False)
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        meta["format"] = 1  # the member below is a version-1 one
        (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        np.save(path / "children.npy", np.array([1, 2, 3]))
        assert load_index(path).raw_arrays().keys() == index.raw_arrays().keys()
        np.save(path / "children.npy", np.array([1, 3, 2]))
        with pytest.raises(SerializationError, match="breadth-first"):
            load_index(path)

    def test_child_before_parent(self, source):
        # Node 1 names itself (slot 0) as its child; the root has none.
        arrays = self.arrays(
            source,
            children_offsets=np.array([0, 0, 1, 3, 3]),
        )
        with pytest.raises(InvalidParameterError, match="earlier node"):
            FrozenTSIndex.from_arrays(source, PARAMS, BuildStats(), arrays)

    def test_leaf_with_children(self, source):
        arrays = self.arrays(source, kinds=np.array([0, 1, 1, 1], dtype=np.int8))
        with pytest.raises(InvalidParameterError, match="no children"):
            FrozenTSIndex.from_arrays(source, PARAMS, BuildStats(), arrays)
