"""Insertion builds the same tree, bit for bit, as it always did.

Two guards on the insertion kernel of :mod:`repro.core.tsindex`:

* **Golden digests.** A SHA-256 over every frozen array (plus split,
  node and height counts) of insertion-built trees, recorded at the
  commit *before* the kernel was tightened (``f63f2cb``). Any change to
  a choose-subtree tie, a split seed, an assignment cost or a per-row
  summation order moves at least one of them. The digests cover the
  three normalization regimes × both split metrics × three seeds, a
  constant series (every window identical: the all-ties
  ``_choose_subtree`` path and the ``seed_a == seed_b`` halves), a
  series of repeated windows, and small nodes (many internal splits,
  height 6). They hold float bytes, so they pin NumPy's pairwise
  summation too — scalar C on every platform NumPy ships for.
* **Reference formulations.** ``_choose_subtree`` and ``_distribute``
  against the straightforward code they replaced, kept here, on
  Hypothesis-drawn envelopes from a coarse grid (so distance,
  enlargement, area and cost ties are common, not rare).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mbts import MBTS
from repro.core.tsindex import TSIndex, TSIndexParams, _farthest_pair, _Node
from repro.core.windows import WindowSource


def tree_digest(index: TSIndex) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(index.freeze().raw_arrays().items()):
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(
        f"splits={index.build_stats.splits}:nodes={index.node_count}"
        f":height={index.height}".encode()
    )
    return digest.hexdigest()


def _walk(seed: int, size: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=size))


def _cases():
    """``name -> (series, length, normalization, params)``."""
    cases = {}
    for normalization in ("none", "global", "per_window"):
        for metric in ("area", "max"):
            for seed in (1, 2, 3):
                cases[f"{normalization}-{metric}-{seed}"] = (
                    _walk(seed, 1500), 24, normalization,
                    TSIndexParams(split_metric=metric),
                )
    repeated = np.tile(np.random.default_rng(9).normal(size=16), 50)
    for metric in ("area", "max"):
        params = TSIndexParams(split_metric=metric)
        cases[f"constant-{metric}"] = (np.full(700, 3.25), 16, "none", params)
        cases[f"repeated-{metric}"] = (repeated, 16, "none", params)
        cases[f"small-nodes-{metric}"] = (
            _walk(4, 900), 12, "global",
            TSIndexParams(min_children=2, max_children=5, split_metric=metric),
        )
    return cases


CASES = _cases()

#: name -> (digest, splits, nodes, height), recorded at ``f63f2cb``.
GOLDEN = {
    "none-area-1": ("3c6d075658bdd686097c1c56a055d54f88c815279f43088445d4812f18f71f95", 86, 89, 3),
    "none-area-2": ("6375312a011bb2d2b25280f9168899f73f1ed41d823af1a8164b5d5da9fbf2ba", 89, 92, 3),
    "none-area-3": ("21431656941fa59eab8b7ecaf7b39ad2dbb613fc8b024050ab22f54997818a8e", 89, 92, 3),
    "none-max-1": ("713de08c277e72f362e7e5ebe5fde7182fb26c8f7e7ad138d8a30387eb868680", 84, 87, 3),
    "none-max-2": ("d63258de7f8bea26dca4d0fa21863261a258de7ab5c782300ab391fa2bb5ebf1", 85, 88, 3),
    "none-max-3": ("8e3ba711b8b0f48a018d5698f4e007d0343a25247a3f421c1f6511924704491a", 85, 88, 3),
    "global-area-1": ("b795be065d72e17ddceedff274d3a3b5da5b8e9b006e55743d7d321c9cb1d15b", 86, 89, 3),
    "global-area-2": ("61a051f82aa07c88a0e2adbaf1a545773dcb5e44d8a75669c86995954a5d9ff5", 89, 92, 3),
    "global-area-3": ("34a1e2bdf46de1ac915508ae76225e730bac34f1cee76f5559ec503634c936c2", 89, 92, 3),
    "global-max-1": ("543f857c6c511976d3c82a2f618a37373c62a30a8f8a198e1844ac6eaa4fa689", 84, 87, 3),
    "global-max-2": ("e0488e4bc2ce0647d817cae3fc1b266f49e33350711427290a203f0d7b42e2c4", 85, 88, 3),
    "global-max-3": ("24e3de1e2e0bce3970b18368fdc747403e218665cdf513243e76c6f7a89ee741", 85, 88, 3),
    "per_window-area-1": ("e73978f29c11f5a7be231d68a939ca33f820db27d1bdebfe30ca42354103658b", 87, 90, 3),
    "per_window-area-2": ("5e5a8adcdef5c494132e64c965e01ec7d9d0c7fdb857ec9dbf8a07cc877eeb26", 86, 89, 3),
    "per_window-area-3": ("ca2a53807b66c5af7871f4f3e5d345e1f0a7317c9f0009951c1279ad0e094a1c", 91, 94, 3),
    "per_window-max-1": ("d8aa680dc68d63b625599fc98a8326a68f86b167b09adbbf56dd40e603760014", 88, 91, 3),
    "per_window-max-2": ("5447ba4e004a22cb824d87cf3b4c8333b8a7fd2928d31e90838614fd0b9b8c90", 91, 94, 3),
    "per_window-max-3": ("bf73932c7858d33e5a8eba9df6ef5df14cd67ba3c9d329eac5ef5015ac4d1746", 88, 91, 3),
    "constant-area": ("e481bfa4b70a0bfbb1d9c3522d0986567c1536c658532dca8e0bca590a47c692", 42, 45, 3),
    "repeated-area": ("70f21ad72cc2b9f46c475317245eb86f1a8d1a83616fc5df68197d8c97f5ccca", 38, 41, 3),
    "constant-max": ("e481bfa4b70a0bfbb1d9c3522d0986567c1536c658532dca8e0bca590a47c692", 42, 45, 3),
    "repeated-max": ("5100d029b39fab5cdecd1a2b4c639d23179bab85a24391f666337fc526d1cdf9", 36, 39, 3),
    "small-nodes-area": ("680a67221a715f1d65865b16aa68025a395283bfcd329a1b13057c954d06b7e1", 401, 407, 6),
    "small-nodes-max": ("7dbacb46b3ff5843f0c8022d22063a03e48437914f932717cc3e37110e404da5", 394, 400, 6),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_insertion_built_tree_matches_golden_digest(name):
    series, length, normalization, params = CASES[name]
    digest, splits, nodes, height = GOLDEN[name]
    index = TSIndex.build(series, length, normalization=normalization, params=params)
    assert (index.build_stats.splits, index.node_count, index.height) == (
        splits, nodes, height,
    )
    assert tree_digest(index) == digest


def test_constant_series_takes_the_identical_entries_split():
    """Every leaf split of a constant series sees ``Mc + 1`` identical
    windows: no farthest pair exists and the halves are positional."""
    index = TSIndex.build(np.full(700, 3.25), 16, normalization="none")
    sizes = sorted(
        node.fanout for node, _ in index.iter_nodes() if node.is_leaf
    )
    assert index.build_stats.splits > 0
    assert sum(sizes) == index.size
    # Positional halves of 31 entries: 15 and 16, never an 11/20 split.
    assert sizes[0] >= 15


# ----------------------------------------------------------------------
# Reference formulations (the code the kernel replaced)
# ----------------------------------------------------------------------
def reference_choose_subtree(upper: np.ndarray, lower: np.ndarray, window: np.ndarray) -> int:
    outside = np.maximum(window - upper, lower - window)
    distances = np.maximum(outside.max(axis=1), 0.0)
    best = np.flatnonzero(distances == distances.min())
    if best.size == 1:
        return int(best[0])
    enlargements = np.maximum(outside[best], 0.0).sum(axis=1)
    best = best[enlargements == enlargements.min()]
    if best.size == 1:
        return int(best[0])
    areas = (upper[best] - lower[best]).sum(axis=1)
    return int(best[int(np.argmin(areas))])


def reference_farthest_pair(matrix: np.ndarray) -> tuple[int, int] | None:
    pairwise = matrix[:, None, :] - matrix[None, :, :]
    np.abs(pairwise, out=pairwise)
    distances = pairwise.max(axis=2)
    seed_a, seed_b = np.unravel_index(np.argmax(distances), distances.shape)
    return None if seed_a == seed_b else (int(seed_a), int(seed_b))


def reference_distribute(rows, seed_a, seed_b, *, rows_are_mbts, minimum, metric):
    total = rows.shape[0]

    def bounds_of(i):
        if rows_are_mbts:
            return rows[i, 0], rows[i, 1]
        return rows[i], rows[i]

    upper_a, lower_a = (b.copy() for b in bounds_of(seed_a))
    upper_b, lower_b = (b.copy() for b in bounds_of(seed_b))
    group_a, group_b = [seed_a], [seed_b]
    remaining = [i for i in range(total) if i not in (seed_a, seed_b)]
    for index_in_queue, i in enumerate(remaining):
        left = len(remaining) - index_in_queue
        if len(group_a) + left == minimum:
            group_a.extend(remaining[index_in_queue:])
            break
        if len(group_b) + left == minimum:
            group_b.extend(remaining[index_in_queue:])
            break
        hi, lo = bounds_of(i)
        grow_up_a = np.maximum(hi - upper_a, 0.0)
        grow_dn_a = np.maximum(lower_a - lo, 0.0)
        grow_up_b = np.maximum(hi - upper_b, 0.0)
        grow_dn_b = np.maximum(lower_b - lo, 0.0)
        if metric == "area":
            cost_a = float(grow_up_a.sum() + grow_dn_a.sum())
            cost_b = float(grow_up_b.sum() + grow_dn_b.sum())
        else:
            cost_a = float(max(grow_up_a.max(), grow_dn_a.max()))
            cost_b = float(max(grow_up_b.max(), grow_dn_b.max()))
        if cost_a < cost_b or (
            cost_a == cost_b
            and float((upper_a - lower_a).sum()) <= float((upper_b - lower_b).sum())
        ):
            group_a.append(i)
            np.maximum(upper_a, hi, out=upper_a)
            np.minimum(lower_a, lo, out=lower_a)
        else:
            group_b.append(i)
            np.maximum(upper_b, hi, out=upper_b)
            np.minimum(lower_b, lo, out=lower_b)
    return group_a, group_b


def _empty_index(length: int, params: TSIndexParams | None = None) -> TSIndex:
    return TSIndex(WindowSource(np.zeros(length + 1), length, "none"), params)


#: Mostly a coarse grid (ties everywhere), sometimes arbitrary floats
#: (sums whose value depends on the summation order).
_values = st.one_of(
    st.integers(-4, 4).map(lambda v: v / 4),
    st.floats(-8, 8, allow_nan=False, allow_infinity=False),
)


@st.composite
def _envelopes(draw, min_rows: int, max_rows: int):
    """``(upper, lower)`` row matrices with ``lower <= upper``."""
    rows = draw(st.integers(min_rows, max_rows))
    length = draw(st.integers(1, 9))
    cells = st.lists(_values, min_size=rows * length, max_size=rows * length)
    first = np.array(draw(cells)).reshape(rows, length)
    second = np.array(draw(cells)).reshape(rows, length)
    return np.maximum(first, second), np.minimum(first, second)


@settings(max_examples=300, deadline=None)
@given(_envelopes(2, 9), st.data())
def test_choose_subtree_matches_reference(envelopes, data):
    upper, lower = envelopes
    length = upper.shape[1]
    window = np.array(
        data.draw(st.lists(_values, min_size=length, max_size=length))
    )
    children = [
        _Node(MBTS(upper[i], lower[i]), positions=[i])
        for i in range(upper.shape[0])
    ]
    node = _Node(MBTS(upper.max(axis=0), lower.min(axis=0)), children=children)
    index = _empty_index(length)
    assert index._choose_subtree(node, index._tile(window)) == (
        reference_choose_subtree(upper, lower, window)
    )


@settings(max_examples=300, deadline=None)
@given(
    _envelopes(4, 13),
    st.booleans(),
    st.sampled_from(["area", "max"]),
    st.integers(1, 3),
    st.data(),
)
def test_distribute_matches_reference(envelopes, rows_are_mbts, metric, minimum, data):
    upper, lower = envelopes
    rows = np.stack([upper, lower], axis=1) if rows_are_mbts else upper
    total = rows.shape[0]
    seed_a = data.draw(st.integers(0, total - 1))
    seed_b = data.draw(st.integers(0, total - 1).filter(lambda b: b != seed_a))
    params = TSIndexParams(
        min_children=minimum, max_children=max(2 * minimum, total), split_metric=metric
    )
    index = _empty_index(rows.shape[-1], params)
    assert index._distribute(
        rows, seed_a, seed_b, rows_are_mbts=rows_are_mbts
    ) == reference_distribute(
        rows, seed_a, seed_b,
        rows_are_mbts=rows_are_mbts, minimum=minimum, metric=metric,
    )


@settings(max_examples=300, deadline=None)
@given(_envelopes(2, 12))
def test_leaf_split_seeds_match_reference(envelopes):
    matrix, _ = envelopes
    assert _farthest_pair(matrix) == reference_farthest_pair(matrix)
