"""Tests for bottom-up bulk loading of TS-Index."""

import numpy as np
import pytest

from repro.core import bulkload as bulkload_module
from repro.core.bulkload import bulk_load, bulk_load_source
from repro.core.mbts import MBTS, round_down_f32, round_up_f32
from repro.core.tsindex import TSIndexParams, _Node
from repro.core.windows import WindowSource
from repro.indices.sweepline import SweeplineSearch


class TestBulkLoadCorrectness:
    def test_matches_sweepline(self, source_global, sweepline_global, query_of):
        index = bulk_load_source(
            source_global,
            params=TSIndexParams(min_children=4, max_children=10),
        )
        for position in (5, 700, 2000):
            query = query_of(position)
            for epsilon in (0.0, 0.5, 1.2):
                expected = sweepline_global.search(query, epsilon)
                actual = index.search(query, epsilon)
                assert np.array_equal(actual.positions, expected.positions)

    def test_indexes_every_window_once(self, source_global):
        index = bulk_load_source(source_global)
        positions = index.arrays()["positions"]
        assert sorted(positions.tolist()) == list(range(source_global.count))

    def test_from_raw_values(self, series_values):
        index = bulk_load(series_values[:600], 40, normalization="none")
        query = np.asarray(series_values[100:140])
        assert 100 in index.search(query, 0.0).positions

    def test_knn_works_on_bulk_tree(self, source_global):
        index = bulk_load_source(source_global)
        query = np.array(source_global.window_block(50, 51)[0])
        result = index.knn(query, 3)
        assert result.positions[0] == 50

    def test_single_leaf_tree(self):
        index = bulk_load(np.arange(40.0), 30, normalization="none")
        assert index.size == 11
        assert index.height == 1


class TestBulkLoadStructure:
    def test_build_stats(self, source_global):
        index = bulk_load_source(source_global)
        stats = index.build_stats
        assert stats.windows == source_global.count
        assert stats.splits == 0
        assert stats.height == index.height
        assert stats.nodes == index.node_count

    def test_much_faster_than_insertion(self, source_global):
        from repro.core.tsindex import TSIndex

        bulk = bulk_load_source(source_global)
        inserted = TSIndex.from_source(source_global)
        assert bulk.build_stats.seconds < inserted.build_stats.seconds

    @pytest.mark.parametrize("max_children", [8, 9, 20])
    def test_leaf_size_at_most_max_children(self, source_global, max_children):
        params = TSIndexParams(min_children=4, max_children=max_children)
        arrays = bulk_load_source(source_global, params=params).arrays()
        sizes = np.diff(arrays["leaf_offsets"])[arrays["kinds"] == 1]
        assert sizes.min() >= params.min_children
        assert sizes.max() <= params.max_children

    def test_builds_no_pointer_node(self, source_global, monkeypatch):
        """The loader writes the frozen arrays: no ``_Node`` or ``MBTS``
        is made on the way, and the result is its own frozen form."""

        def refuse(*args, **kwargs):
            raise AssertionError("the bulk loader built a pointer-tree object")

        monkeypatch.setattr(_Node, "__init__", refuse)
        monkeypatch.setattr(MBTS, "__init__", refuse)
        params = TSIndexParams(min_children=4, max_children=10)
        index = bulk_load_source(source_global, params=params)
        assert index.freeze() is index
        assert index.height > 2
        sweepline = SweeplineSearch.from_source(source_global)
        for position in (5, 700, 2000):
            query = source_global.window(position).copy()
            expected = sweepline.search(query, 0.5)
            actual = index.search(query, 0.5)
            assert np.array_equal(actual.positions, expected.positions)
            assert np.array_equal(actual.distances, expected.distances)



def position_runs(total, fill, minimum):
    """The leaves of a position-order packing, written out: runs of
    ``fill`` windows; a last run below ``minimum`` joins the one before
    it, and the two are re-split evenly when both can reach
    ``minimum``."""
    runs = [list(range(start, min(start + fill, total)))
            for start in range(0, total, fill)]
    if len(runs) > 1 and len(runs[-1]) < minimum:
        tail = runs[-2] + runs[-1]
        del runs[-2:]
        if len(tail) >= 2 * minimum:
            half = max(minimum, len(tail) // 2)
            runs += [tail[:half], tail[half:]]
        else:
            runs.append(tail)
    return runs


def position_order_node_count(leaves, fill):
    """Nodes of a tree stacked over ``leaves`` nodes in runs of
    ``fill``, a singleton last group joining the group before it."""
    count = nodes = leaves
    while nodes > 1:
        nodes = -(-nodes // fill) - (nodes > fill and nodes % fill == 1)
        count += nodes
    return count


class TestPacking:
    """Leaves are position runs with exact envelopes; STR only reorders
    the upper levels, so every internal envelope is still the union of
    its children and the node count is position order's."""

    @pytest.mark.parametrize("normalization", ["none", "global", "per_window"])
    @pytest.mark.parametrize(
        "windows, params",
        [
            (1, TSIndexParams(min_children=2, max_children=4)),
            (3, TSIndexParams(min_children=2, max_children=4)),  # one full leaf
            (23, TSIndexParams()),  # fill 22: 22 + 1 re-split 11 / 12
            (30, TSIndexParams()),  # 22 + 8 re-split 15 / 15
            (41, TSIndexParams()),  # a last leaf of 19 >= 10 stays
            (18, TSIndexParams(min_children=10, max_children=20)),  # 15 + 3 kept whole
            (1_000, TSIndexParams(min_children=2, max_children=4)),
            (5_003, TSIndexParams(min_children=4, max_children=10)),
            (20_000, TSIndexParams()),
        ],
    )
    def test_invariants(self, normalization, windows, params):
        rng = np.random.default_rng(windows)
        values = np.cumsum(rng.normal(size=windows + 15))
        source = WindowSource(values, 16, normalization)
        index = bulk_load_source(source, params=params)
        fill = max(params.min_children, round(params.max_children * 0.75))

        arrays = index.arrays()
        uppers, lowers = arrays["uppers"], arrays["lowers"]
        kinds, leaf_offsets = arrays["kinds"], arrays["leaf_offsets"]
        children_offsets = arrays["children_offsets"]
        leaves = np.flatnonzero(kinds == 1)
        spans = [
            arrays["positions"][leaf_offsets[i]:leaf_offsets[i + 1]].tolist()
            for i in leaves
        ]
        assert sorted(spans) == position_runs(windows, fill, params.min_children)
        # Leaf envelopes are the exact ones, rounded outward to float32
        # (max and min do not round, and rounding is monotone, so the
        # union of rounded children is the rounded union).
        for i, span in zip(leaves, spans):
            exact = MBTS.from_sequences(source.windows(np.asarray(span)))
            assert np.array_equal(uppers[i], round_up_f32(exact.upper))
            assert np.array_equal(lowers[i], round_down_f32(exact.lower))
        for i in np.flatnonzero(kinds == 0):
            children = np.arange(children_offsets[i], children_offsets[i + 1]) + 1
            assert np.array_equal(uppers[i], uppers[children].max(axis=0))
            assert np.array_equal(lowers[i], lowers[children].min(axis=0))
        expected = position_order_node_count(leaves.size, fill)
        assert index.node_count == index.build_stats.nodes == expected

    def test_str_packing_visits_fewer_nodes(self, monkeypatch):
        """What the STR sort is for: twin queries on the packed tree
        visit fewer nodes than on the same leaves stacked in position
        order — and get the same answers."""
        rng = np.random.default_rng(3)
        source = WindowSource(np.cumsum(rng.normal(size=40_000)), 32, "global")
        packed = bulk_load_source(source)
        monkeypatch.setattr(
            bulkload_module, "_str_order", lambda keys, fill: np.arange(len(keys))
        )
        stacked = bulk_load_source(source)
        assert stacked.node_count == packed.node_count
        visited = np.zeros(2, dtype=np.int64)
        for position in rng.integers(0, source.count, size=20).tolist():
            query = source.window(position).copy()
            results = [index.search(query, 0.3) for index in (packed, stacked)]
            assert np.array_equal(results[0].positions, results[1].positions)
            visited += [result.stats.nodes_visited for result in results]
        assert visited[0] < 0.8 * visited[1]
