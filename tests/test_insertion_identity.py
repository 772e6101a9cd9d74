"""Insertion builds the same tree, bit for bit, as it always did.

Two guards on the insertion kernel of :mod:`repro.core.tsindex`:

* **Golden digests.** A SHA-256 over every frozen array (plus split,
  node and height counts) of insertion-built trees. The structure
  arrays and counts are those recorded at the commit *before* the
  kernel was tightened (``f63f2cb``); the envelope matrices have been
  float32, rounded outward, since the frozen plane stores them that way
  — the digests were re-recorded then, and equal the ``f63f2cb`` arrays
  with ``round_up_f32`` / ``round_down_f32`` applied. Any change to
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

from repro.core.frozen import flatten
from repro.core.mbts import MBTS
from repro.core.tsindex import TSIndex, TSIndexParams, _farthest_pair, _Node
from repro.core.windows import WindowSource
from repro.persistence import load_index, save_index


def tree_digest(index: TSIndex) -> str:
    """Over the structure arrays and the whole envelope matrices in
    their ``(l, n)`` transposes under the names ``uppers_t`` /
    ``lowers_t`` — the form the digests were recorded in, which a
    frozen index's own layout of the same values does not move."""
    arrays = index.freeze().arrays()
    arrays["uppers_t"] = arrays.pop("uppers").T
    arrays["lowers_t"] = arrays.pop("lowers").T
    digest = hashlib.sha256()
    for name, array in sorted(arrays.items()):
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

#: name -> (digest, splits, nodes, height); see the module docstring.
GOLDEN = {
    "none-area-1": ("cc814b85d54b82df76cc29d6316baa83820fc5a166ed6eb421a14145784db0e0", 86, 89, 3),
    "none-area-2": ("aaf6f72cf212e8231e9379bfa673abf087d3bdff667fd440ecf109f42a6adacc", 89, 92, 3),
    "none-area-3": ("f0b11b5f995cbbbdec9b7368e43ac98feca4322d1640d5cc3d462af3ecf09371", 89, 92, 3),
    "none-max-1": ("f86a38dc34eaeb0c51141c328c3e18b3d65fdafee6db65286ce63ba205e70022", 84, 87, 3),
    "none-max-2": ("734695d637a6a351c01dc7c36915c0277803119876491c2bac2fa2402c056282", 85, 88, 3),
    "none-max-3": ("8aaa2a093000397bee6bb1d0e83334c946cc6df89a14512c2d611e41ad3687a0", 85, 88, 3),
    "global-area-1": ("ae9599ca6f5044314f01da4f5426d79a62d22bcb8a30f41aeb55fa7ce61c6167", 86, 89, 3),
    "global-area-2": ("0b8b39315d911ce8aee961b5d1137399e6010c9ef43b571b41cbe86db49f8a1b", 89, 92, 3),
    "global-area-3": ("7c3c6d4ecb6a75085ef6d34cd92772340be5cdfdf57f6e24d14017d9a0c0e605", 89, 92, 3),
    "global-max-1": ("2b78ff328964e581c97d6f78c90ee70aa80a80b7baf81658ede88df457518587", 84, 87, 3),
    "global-max-2": ("1fe10af143f21c8275c5626505739ab72eb61faf9e8c14d7482fa9f3dc2f669d", 85, 88, 3),
    "global-max-3": ("abe7359f1fa8658d01455dc162ec7fcea712f6d668a6b7fc581acb4734f36d25", 85, 88, 3),
    "per_window-area-1": ("ae22e9a3b5f11c47aef01ed1d976ca1e915a6c4e62b130e3a7cf05e84875e61c", 87, 90, 3),
    "per_window-area-2": ("f7b599da2bfdae71a252c711eadf2487f5e83e69a0deadbeec562fca80151c50", 86, 89, 3),
    "per_window-area-3": ("2ea90f11dbd1b0cab9da7a7337e76ca01166c689de48b33863908a6850ee1fd6", 91, 94, 3),
    "per_window-max-1": ("a7ca0937a02f71622f44b9313dab94d3e9a82da6e958ef8c629e69b999971c51", 88, 91, 3),
    "per_window-max-2": ("90e169c92e19d83fc321fda9b7d0440449f9be6b5d93c9df3a12c22a788d92a6", 91, 94, 3),
    "per_window-max-3": ("2ed09bcc4b98206277157cad2ba2572e708afad9d2b7020e1b7e213d30f052db", 88, 91, 3),
    "constant-area": ("0dd3c6cfd6d9476ed2fc62eea4a47fe6d6f5f11f3769ecbb0e3e4f209ab61ba3", 42, 45, 3),
    "repeated-area": ("665b2ccec0f165b6f844611f59fdc51d619208aec14af101228d93fbcdcacdef", 38, 41, 3),
    "constant-max": ("0dd3c6cfd6d9476ed2fc62eea4a47fe6d6f5f11f3769ecbb0e3e4f209ab61ba3", 42, 45, 3),
    "repeated-max": ("ddcf6f94f0ec6f2bd9049f0b9af05f8f5d0fd7ff50963626ed04fd9899063c52", 36, 39, 3),
    "small-nodes-area": ("1ec3e04d37bd7182b0901e15dda63520c3c8745973e0832c59f7ae568c11f905", 401, 407, 6),
    "small-nodes-max": ("044cb4d8a2fcf302639f02ee3be4a0d54ab49c6c940743f95f8dfbc2273e1a9e", 394, 400, 6),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_insertion_built_tree_matches_golden_digest(name, tmp_path):
    series, length, normalization, params = CASES[name]
    digest, splits, nodes, height = GOLDEN[name]
    index = TSIndex.build(series, length, normalization=normalization, params=params)
    assert (index.build_stats.splits, index.node_count, index.height) == (
        splits, nodes, height,
    )
    assert tree_digest(index) == digest
    # A pointer-tree archive gives the float64 envelopes back bit for
    # bit, so the round-tripped tree holds the digest too.
    save_index(index, tmp_path / "tree", fsync=False)
    restored = load_index(tmp_path / "tree")
    assert tree_digest(restored) == digest
    exact = flatten(index._root, length)
    for field, array in flatten(restored._root, length).items():
        assert array.dtype == exact[field].dtype
        assert array.tobytes() == exact[field].tobytes(), field


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
