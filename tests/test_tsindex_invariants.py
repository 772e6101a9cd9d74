"""Structural invariants of the TS-Index tree (Section 5.2).

These validate the R-tree style guarantees the query algorithm relies
on: every node's MBTS covers its subtree, capacities are respected, and
all leaves sit at the same level.
"""

import numpy as np
import pytest

from repro.core.bulkload import bulk_load_source
from repro.core.mbts import MBTS
from repro.core.tsindex import TSIndex, TSIndexParams


def _check_tree(index: TSIndex, *, check_min: bool = True):
    """Assert all structural invariants; returns the leaf count."""
    source = index.source
    params = index.params
    root = index._root
    assert root is not None

    leaf_depths = set()
    seen_positions = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            leaf_depths.add(depth)
            assert len(node.positions) <= params.max_children
            if check_min and node is not root:
                assert len(node.positions) >= params.min_children
            windows = source.windows(np.asarray(node.positions))
            cover = MBTS.from_sequences(windows)
            assert node.mbts.contains_mbts(cover)
            seen_positions.extend(node.positions)
        else:
            assert len(node.children) <= params.max_children
            if check_min and node is not root:
                assert len(node.children) >= params.min_children
            if node is root:
                assert len(node.children) >= 2
            for child in node.children:
                assert node.mbts.contains_mbts(child.mbts)
                stack.append((child, depth + 1))

    # All leaves on the same level (the paper's balanced-tree property).
    assert len(leaf_depths) == 1
    # Every window indexed exactly once.
    assert sorted(seen_positions) == list(range(source.count))
    return len(seen_positions)


@pytest.mark.parametrize("split_metric", ["area", "max"])
def test_inserted_tree_invariants(source_global, split_metric):
    index = TSIndex.from_source(
        source_global,
        params=TSIndexParams(
            min_children=4, max_children=10, split_metric=split_metric
        ),
    )
    _check_tree(index)


def test_default_capacity_tree_invariants(series_values):
    index = TSIndex.build(series_values[:1200], 25, normalization="global")
    _check_tree(index)


def test_bulk_loaded_tree_invariants(source_global):
    index = bulk_load_source(
        source_global, params=TSIndexParams(min_children=4, max_children=10)
    ).thaw()
    # Bulk loading packs leaves at a fill factor; one tail leaf and the
    # top levels may be under the minimum, which is fine for queries.
    _check_tree(index, check_min=False)


def test_per_window_tree_invariants(source_per_window):
    index = TSIndex.from_source(
        source_per_window, params=TSIndexParams(min_children=4, max_children=10)
    )
    _check_tree(index)


def test_envelope_matrices_match_children(tsindex_global):
    """The persistent vectorization matrices must mirror child MBTS."""
    for node, _depth in tsindex_global.iter_nodes():
        if node.is_leaf:
            continue
        upper, lower = node.child_envelopes()
        assert upper.shape[0] == len(node.children)
        for row, child in enumerate(node.children):
            assert np.array_equal(upper[row], child.mbts.upper)
            assert np.array_equal(lower[row], child.mbts.lower)


def test_mbts_tightness_at_leaves(tsindex_global, source_global):
    """Leaf MBTS must be exactly the envelope of their windows (no
    slack): construction only ever expands to covered sequences."""
    for node, _depth in tsindex_global.iter_nodes():
        if not node.is_leaf:
            continue
        windows = source_global.windows(np.asarray(node.positions))
        cover = MBTS.from_sequences(windows)
        assert node.mbts == cover
