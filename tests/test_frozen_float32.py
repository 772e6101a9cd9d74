"""The frozen plane's float32 contract.

Frozen envelopes are float32, rounded outward once at freeze/load, and
queries are compared against them through float32 thresholds rounded
outward the other way. Three things hold that together:

* the rounding helpers (:func:`repro.core.mbts.round_up_f32` /
  ``round_down_f32``): cover the input, tight, conservative beyond the
  float32 range, idempotent;
* every way of getting a frozen index — bulk load, insertion, shards,
  a recovered live segment — holds float32 envelopes;
* exactness, proved rather than argued: against the brute-force scan of
  ``benchmarks/twinbench/oracle.py`` (``none`` / ``global``; the
  per-window regime, which that scan does not model, against the
  library's own exhaustive sweepline plane), ``search`` / ``exists`` /
  ``knn`` / ``search_batch`` / prefix search return exactly the twins,
  and no node holding a twin is pruned by the filter kernel.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import frozen as frozen_module
from repro.core.bulkload import bulk_load
from repro.core.frozen import FrozenTSIndex, flatten
from repro.core.mbts import round_down_f32, round_up_f32
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.engine import ShardedTSIndex
from repro.indices.sweepline import SweeplineSearch
from repro.live import LiveTwinIndex

_ORACLE_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "twinbench", "oracle.py",
)
_spec = importlib.util.spec_from_file_location("twinbench_oracle", _ORACLE_FILE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

F32 = np.finfo(np.float32)

finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ----------------------------------------------------------------------
# The rounding helpers
# ----------------------------------------------------------------------
def masked_nextafter(values, direction):
    """The straightforward formulation the bit-step replaced."""
    toward = np.float32(np.inf if direction > 0 else -np.inf)
    with np.errstate(over="ignore"):  # the cast, and ±max stepping to ±inf
        rounded = values.astype(np.float32)
        stepped = np.nextafter(rounded, toward)
    short = rounded < values if direction > 0 else rounded > values
    return np.where(short, stepped, rounded)


class TestOutwardRounding:
    @given(st.lists(finite_doubles, min_size=1, max_size=40))
    def test_covers_and_is_tight(self, values):
        values = np.array(values)
        up, down = round_up_f32(values), round_down_f32(values)
        assert up.dtype == down.dtype == np.float32
        assert np.all(up >= values) and np.all(down <= values)
        # The tightest cover: the next float32 inward no longer covers,
        # i.e. the result is less than one float32 step from its input.
        with np.errstate(over="ignore"):  # one step inward of ±max is ±inf
            assert np.all(np.nextafter(up, np.float32(-np.inf)) < values)
            assert np.all(np.nextafter(down, np.float32(np.inf)) > values)
        assert np.array_equal(up, masked_nextafter(values, +1))
        assert np.array_equal(down, masked_nextafter(values, -1))

    @given(st.lists(st.floats(width=32, allow_nan=False), min_size=1, max_size=40))
    def test_float32_values_pass_through(self, values):
        values = np.array(values, dtype=np.float32)
        widened = values.astype(np.float64)
        assert round_up_f32(values) is values  # nothing to do, no copy
        assert round_down_f32(values) is values
        assert np.array_equal(round_up_f32(widened), values)
        assert np.array_equal(round_down_f32(widened), values)

    def test_beyond_float32_range(self):
        values = np.array([1e300, -1e300, 3.5e38, -3.5e38])
        assert round_up_f32(values).tolist() == [np.inf, -F32.max, np.inf, -F32.max]
        assert round_down_f32(values).tolist() == [F32.max, -np.inf, F32.max, -np.inf]
        infinite = np.array([np.inf, -np.inf])
        assert round_up_f32(infinite).tolist() == [np.inf, -np.inf]
        assert round_down_f32(infinite).tolist() == [np.inf, -np.inf]

    def test_below_float32_resolution(self):
        tiny = float(F32.smallest_subnormal)
        values = np.array([1e-50, -1e-50, 0.0, -0.0, tiny, tiny / 2])
        assert round_up_f32(values).tolist() == [tiny, -0.0, 0.0, -0.0, tiny, tiny]
        assert round_down_f32(values).tolist() == [0.0, -tiny, 0.0, -0.0, tiny, 0.0]

    def test_scalars_and_matrices(self):
        assert float(round_up_f32(0.1)) > 0.1 > float(round_down_f32(0.1))
        matrix = np.random.default_rng(0).normal(size=(7, 5))
        assert round_up_f32(matrix).shape == (7, 5)
        assert np.array_equal(round_up_f32(matrix.T), round_up_f32(matrix).T)

    @pytest.mark.parametrize("normalization", ["none", "global", "per_window"])
    def test_thaw_freeze_reproduces_the_arrays(self, normalization):
        series = np.cumsum(np.random.default_rng(5).normal(size=900))
        dynamic = TSIndex.build(series, 24, normalization=normalization)
        frozen = dynamic.freeze()
        again = frozen.thaw().freeze()
        for field, array in frozen.raw_arrays().items():
            assert again.raw_arrays()[field].dtype == array.dtype
            assert np.array_equal(again.raw_arrays()[field], array), field
        # ... and ``arrays()`` assembles, whatever the resident layout,
        # the ``(n, l)`` matrices the plane has exposed since its
        # envelopes became float32: the tree's exact rows, in BFS
        # order, rounded outward — bit for bit.
        exact = flatten(dynamic._root, dynamic.length)
        for assembled in (frozen.arrays(), again.arrays()):
            for field, rounded in (
                ("uppers", round_up_f32(exact["uppers"])),
                ("lowers", round_down_f32(exact["lowers"])),
            ):
                assert assembled[field].dtype == np.float32
                assert assembled[field].tobytes() == rounded.tobytes(), field


# ----------------------------------------------------------------------
# Every frozen index holds float32 envelopes
# ----------------------------------------------------------------------
def _assert_float32(index: FrozenTSIndex) -> None:
    arrays = index.raw_arrays()
    for part in ("uppers_head", "uppers_tail", "lowers_head", "lowers_tail"):
        assert arrays[part].dtype == np.float32
        assert arrays[part].flags.c_contiguous
    assert index.arrays()["uppers"].dtype == np.float32


class TestEnvelopeDtype:
    SERIES = np.cumsum(np.random.default_rng(17).normal(size=2500))

    def test_bulk_loaded(self):
        _assert_float32(bulk_load(self.SERIES, 40))

    def test_insertion_built(self):
        _assert_float32(TSIndex.build(self.SERIES, 40).freeze())

    def test_sharded(self):
        engine = ShardedTSIndex.build(self.SERIES, 40, shards=3)
        for shard in engine.shards:
            _assert_float32(shard)

    @pytest.mark.parametrize("archive_format", ["npz", "raw"])
    def test_recovered_segments(self, tmp_path, archive_format, legacy_live_copy):
        """Segments recovered from archive directories written here, or
        (``npz``) from the committed directory of single-file segments
        an older version wrote."""
        if archive_format == "npz":
            legacy_live_copy(tmp_path / "live")
        else:
            live = LiveTwinIndex.create(
                tmp_path / "live", self.SERIES[:600], length=40, seal_threshold=200
            )
            live.append(self.SERIES[600:1500])
            assert live.segments
            for segment in live.segments:
                _assert_float32(segment.index)
            live.close()
        recovered = LiveTwinIndex.recover(tmp_path / "live")
        try:
            assert recovered.segments
            for segment in recovered.segments:
                _assert_float32(segment.index)
        finally:
            recovered.close()


# ----------------------------------------------------------------------
# Exactness against the oracle
# ----------------------------------------------------------------------
LENGTH = 16
SMALL_NODES = TSIndexParams(min_children=2, max_children=4)

SERIES_KINDS = ("walk", "noise", "constant", "near_constant", "offset", "steps")


def make_series(kind: str, seed: int, size: int = 220) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.normal(size=size))
    if kind == "noise":
        return rng.normal(scale=10.0 ** rng.integers(-3, 4), size=size)
    if kind == "constant":
        return np.full(size, float(rng.normal()))
    if kind == "near_constant":
        return 3.25 + 1e-9 * rng.normal(size=size)
    if kind == "offset":  # float32 resolves 1e6 to 0.06: the noise is below it
        return 1e6 + rng.normal(scale=0.01, size=size)
    # Few distinct values: exact ties between windows and at ε.
    return rng.integers(-2, 3, size=size).astype(np.float64)


def reference_twins(index, values, query, epsilon):
    """``(positions, distances)`` of the twins of a *prepared* query:
    the twinbench oracle's scan over the index-domain buffer where that
    models the regime, the exhaustive sweepline plane otherwise."""
    if index.source.normalization.value == "per_window":
        result = SweeplineSearch.from_source(index.source).search(query, epsilon)
        return result.positions, result.distances
    return oracle.twins(values, query, epsilon)


def parents_of(index: FrozenTSIndex) -> np.ndarray:
    arrays = index.arrays()
    parents = np.full(index.node_count, -1, dtype=np.int64)
    counts = np.diff(arrays["children_offsets"])
    parents[arrays["children"]] = np.repeat(np.arange(index.node_count), counts)
    return parents


def assert_twin_paths_survive(index, query, epsilon, twin_positions):
    """Every node on the root-to-leaf path of every twin passes the
    filter kernel (evaluated over all nodes at once)."""
    lo, hi = map(
        frozen_module._head_tail, frozen_module._thresholds(query, epsilon)
    )
    keep = np.zeros(index.node_count, dtype=bool)
    keep[
        index._level_keep(
            lo, hi, np.ones(index.node_count, dtype=bool), index.node_count, 0
        )
    ] = True
    arrays = index.arrays()
    leaf_of = np.repeat(
        np.arange(index.node_count), np.diff(arrays["leaf_offsets"])
    )
    leaf_of_position = np.empty(index.size, dtype=np.int64)
    leaf_of_position[arrays["positions"]] = leaf_of
    parents = parents_of(index)
    for position in twin_positions:
        if position >= index.size:  # a prefix twin in the unindexed tail
            continue
        node = leaf_of_position[position]
        while node >= 0:
            assert keep[node], (position, node)
            node = parents[node]


def check_against_oracle(index, query, epsilon):
    source = index.source
    values = np.asarray(source.values)
    prepared = index._prepare_query(query)
    positions, distances = reference_twins(index, values, prepared, epsilon)

    result = index.search(query, epsilon)
    assert np.array_equal(result.positions, positions)
    assert np.array_equal(result.distances, distances)
    assert_twin_paths_survive(index, prepared, epsilon, positions)

    assert index.exists(query, epsilon) == bool(positions.size)

    batch = index.search_batch([query, query], epsilon)
    for member in batch.results:
        assert np.array_equal(member.positions, positions)
        assert np.array_equal(member.distances, distances)
        assert member.stats.as_dict() == result.stats.as_dict()

    if source.normalization.value != "per_window":
        k = 3
        nearest, nearest_distances = oracle.knn(values, prepared, k)
        found = index.knn(query, k)
        assert np.array_equal(found.positions, nearest)
        assert np.array_equal(found.distances, nearest_distances)

        m = LENGTH // 2
        prefix_positions, prefix_distances = oracle.twins(
            values, prepared[:m], epsilon
        )
        prefix = index.search(query[:m], epsilon)
        assert np.array_equal(prefix.positions, prefix_positions)
        assert np.array_equal(prefix.distances, prefix_distances)
        assert_twin_paths_survive(
            index, prepared[:m], epsilon, prefix_positions
        )


@pytest.fixture(params=[None, 0], ids=["budget-default", "budget-64"])
def budget(request, monkeypatch):
    """Also with ``_SPAN_FACTOR`` at 0, so that every frontier of these
    small trees gathers its head columns instead of taking the span
    view. (The ids date from the element budget the kernel had before
    the head/tail layout; kept so the test names stay comparable.)"""
    if request.param is not None:
        monkeypatch.setattr(frozen_module, "_SPAN_FACTOR", request.param)


@pytest.mark.usefixtures("budget")
@pytest.mark.parametrize("normalization", ["none", "global", "per_window"])
@settings(
    max_examples=40,
    deadline=None,
    # One budget per test function is what is wanted: it holds across examples.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_frozen_answers_are_the_oracles(normalization, data):
    kind = data.draw(st.sampled_from(SERIES_KINDS), label="series")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    series = make_series(kind, seed)
    index = TSIndex.build(
        series, LENGTH, normalization=normalization, params=SMALL_NODES
    ).freeze()
    source = index.source
    rng = np.random.default_rng(seed + 1)
    at = int(rng.integers(0, index.size))
    window = np.array(source.window_block(at, at + 1)[0])
    query = window
    if data.draw(st.booleans(), label="perturbed"):
        query = window + rng.normal(scale=0.05 * (np.ptp(window) + 1e-12), size=LENGTH)
    choice = data.draw(st.sampled_from(("zero", "pair", "random")), label="epsilon")
    if choice == "zero":
        epsilon = 0.0
    elif choice == "pair":
        # Exactly the distance of some window to the query, as the
        # verifier computes it: that window sits *on* the threshold.
        other = int(rng.integers(0, index.size))
        prepared = index._prepare_query(query)
        epsilon = float(
            np.max(np.abs(np.array(source.window_block(other, other + 1)[0]) - prepared))
        )
    else:
        scale = float(np.ptp(np.asarray(source.values))) or 1.0
        epsilon = float(rng.uniform(0, 0.5)) * scale
    check_against_oracle(index, query, epsilon)


@pytest.mark.usefixtures("budget")
def test_cancellation_needs_the_guard():
    """``q_i = ε = 1`` against a twin reading ``w_i = -1e-17``: the
    verifier's ``fl(|q_i - w_i|) = 1 <= ε`` admits the window, while
    ``fl(q_i - ε) = 0 > w_i`` — a threshold without the guard of a few
    float64 spacings prunes the leaf that holds it."""
    rng = np.random.default_rng(3)
    series = rng.normal(scale=5.0, size=400)
    twin_at = 123
    series[twin_at:twin_at + LENGTH] = -1e-17
    index = TSIndex.build(
        series, LENGTH, normalization="none", params=SMALL_NODES
    ).freeze()
    query = np.ones(LENGTH)
    assert 1.0 - (-1e-17) == 1.0  # the verifier's view
    bare_lo = round_down_f32(query - 1.0)
    assert np.all(bare_lo > -1e-17)  # what a guard-less threshold would say
    result = index.search(query, 1.0)
    assert twin_at in result.positions
    check_against_oracle(index, query, 1.0)


@pytest.mark.parametrize("normalization", ["none", "global", "per_window"])
def test_counters_never_fall_below_the_pointer_tree(normalization):
    """Outward rounding can only keep more: per query the frozen
    plane's structural counters are ``>=`` the pointer tree's, with
    ``==`` wherever no bound sits inside the rounding step (everywhere,
    on this seeded workload)."""
    series = make_series("walk", 11, size=1500)
    tree = TSIndex.build(
        series, LENGTH, normalization=normalization, params=SMALL_NODES
    )
    frozen = tree.freeze()
    rng = np.random.default_rng(12)
    for at in rng.integers(0, tree.size, size=12):
        query = np.array(tree.source.window_block(int(at), int(at) + 1)[0])
        for epsilon in (0.0, 0.2, 1.0):
            exact = tree.search(query, epsilon).stats
            loose = frozen.search(query, epsilon).stats
            for counter in ("nodes_visited", "leaves_accessed", "candidates"):
                assert getattr(loose, counter) >= getattr(exact, counter)
            assert loose.as_dict() == exact.as_dict()
