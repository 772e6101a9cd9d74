"""The two streaming hot-loop kernels against their unblocked references.

* the refine kernel (:func:`repro.core.verification.verify_positions`)
  against a brute-force max-abs scan over gathered windows — positions
  and distances must be *bitwise* equal;
* the filter kernel (:meth:`FrozenTSIndex._level_keep`: a head pass
  over the frontier — span view or gather — then the survivors' tail
  rows) against the unblocked ``(U >= lo) & (L <= hi)`` over every timestamp,
  which in turn keeps every node the exact float64 bound
  ``np.maximum(q - U, L - q).max(0) <= ε`` keeps;
* frozen-vs-pointer counters on a bulk-loaded tree, with every frontier
  forced onto the gather path the other suites rarely take.
"""

import numpy as np
import pytest

from repro.core.bulkload import bulk_load_source
from repro.core import frozen as frozen_module
from repro.core.frozen import FrozenTSIndex
from repro.core.mbts import round_down_f32, round_up_f32
from repro.core.stats import BuildStats, QueryStats
from repro.core.tsindex import TSIndexParams
from repro.core.verification import (
    GATHER_BUDGET,
    STREAM_CHUNK,
    VERIFICATION_MODES,
    verify,
    verify_positions,
)
from repro.core.windows import WindowSource
from repro.exceptions import InvalidParameterError
from repro.query.varlength import scan_prefix_search

from conftest import LENGTH

REGIMES = ("none", "global", "per_window")

#: A window length that divides the refine kernel's budget.
CUT_LENGTH = 64
assert GATHER_BUDGET % CUT_LENGTH == 0


def brute_force(source, query, positions, epsilon):
    """Gather every candidate ``m``-window, then one max-abs reduction."""
    positions = np.sort(np.asarray(positions, dtype=np.int64))
    if query.size == source.length:
        block = source.windows(positions)
    else:
        block = np.lib.stride_tricks.sliding_window_view(
            source.values, query.size
        )[positions]
    distances = np.abs(block - query).max(axis=1)
    keep = distances <= epsilon
    return positions[keep], distances[keep]


def assert_matches_brute_force(source, query, positions, epsilon):
    expected_positions, expected_distances = brute_force(
        source, query, positions, epsilon
    )
    for mode in VERIFICATION_MODES:
        result = verify(source, query, positions, epsilon, mode=mode)
        assert np.array_equal(result.positions, expected_positions), mode
        assert np.array_equal(result.distances, expected_distances), mode
        assert result.stats.candidates == len(positions)
        assert result.stats.matches == expected_positions.size


def exactly_epsilon_case(source_of, series_values, case):
    """``(source, query)`` for the exactly-ε checks: a regime's source
    and one of its windows, the raw series offset by 1e6 (the guard is
    spacings of ``|q| + ε``, large there), or a cancellation: ``q = 1``
    against a reading of ``-1e-17`` in window 900 verifies at ``ε = 1``
    (``fl(1 + 1e-17) = 1``) but lies below a bare ``fl(q - ε) = 0``."""
    if case == "offset":
        source = WindowSource(series_values + 1e6, LENGTH, "none")
    elif case == "cancellation":
        values = np.zeros(series_values.size)
        values[905] = -1e-17
        query = np.zeros(LENGTH)
        query[5] = 1.0
        return WindowSource(values, LENGTH, "none"), query
    else:
        source = source_of(case)
    return source, source.window(10).copy()


class TestRefineKernel:
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize(
        # candidates × m at GATHER_BUDGET - m, GATHER_BUDGET and
        # GATHER_BUDGET + m (finished at once, or after a walk), every
        # window, and every window repeated past one STREAM_CHUNK (at
        # the largest ε all are twins: the exact pass runs in pieces)
        "count",
        [
            1,
            GATHER_BUDGET // CUT_LENGTH - 1,
            GATHER_BUDGET // CUT_LENGTH,
            GATHER_BUDGET // CUT_LENGTH + 1,
            None,
            STREAM_CHUNK + 1,
        ],
    )
    def test_both_sides_of_the_cut_over(self, source_of, regime, count):
        source = source_of(regime, CUT_LENGTH)
        query = source.window(700).copy()
        positions = np.resize(np.arange(source.count), count or source.count)
        distances = brute_force(source, query, positions, np.inf)[1]
        for epsilon in (0.0, float(np.median(distances)), float(distances.max())):
            assert_matches_brute_force(source, query, positions, epsilon)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_epsilon_zero_finds_the_exact_copy(self, source_of, regime):
        source = source_of(regime)
        query = source.window(1234).copy()
        result = verify(source, query, np.arange(source.count), 0.0)
        assert 1234 in result.positions
        assert np.all(result.distances == 0.0)

    @pytest.mark.parametrize("case", REGIMES + ("offset", "cancellation"))
    def test_distance_exactly_epsilon_is_a_twin(
        self, source_of, series_values, case
    ):
        source, query = exactly_epsilon_case(source_of, series_values, case)
        positions = np.arange(source.count)
        distances = brute_force(source, query, positions, np.inf)[1]
        for target in (5, 900, source.count - 1):
            epsilon = float(distances[target])
            below = float(np.nextafter(epsilon, 0.0))
            # Every window, then the target alone in numbers that make
            # the walk compare it at every timestamp.
            for candidates in (positions, np.full(GATHER_BUDGET + 1, target)):
                result = verify(source, query, candidates, epsilon)
                assert target in result.positions
                assert target not in verify(
                    source, query, candidates, below
                ).positions

    @pytest.mark.parametrize("regime", REGIMES)
    def test_unsorted_and_duplicated_candidates(self, source_of, regime):
        source = source_of(regime)
        rng = np.random.default_rng(3)
        query = source.window(2000).copy()
        positions = rng.integers(0, source.count, size=1024)
        positions = np.concatenate((positions, positions[:50], [2000, 2000]))
        distances = brute_force(source, query, positions, np.inf)[1]
        assert_matches_brute_force(
            source, query, positions, float(np.quantile(distances, 0.3))
        )

    @pytest.mark.parametrize("regime", REGIMES)
    def test_no_candidates(self, source_of, regime):
        """A part whose roots are all pruned verifies nothing: the
        result is empty, the counters unchanged, and the admission
        checks still run."""
        source = source_of(regime)
        query = source.window(10).copy()
        stats = QueryStats(nodes_visited=3, nodes_pruned=3)
        before = stats.as_dict()
        result = verify_positions(source, query, np.empty(0, dtype=np.int64), 0.5, stats=stats)
        assert len(result) == 0 and result.distances.size == 0
        assert result.stats is stats and stats.as_dict() == before
        with pytest.raises(InvalidParameterError):
            verify_positions(source, query, [], -1.0)
        with pytest.raises(InvalidParameterError):
            verify_positions(source, np.zeros(LENGTH + 1), [], 0.5)

    def test_small_chunks_change_nothing(self, source_global):
        query = source_global.window(300).copy()
        positions = np.arange(source_global.count)
        expected = brute_force(source_global, query, positions, 0.8)
        for chunk_size in (1, 7, 257):
            result = verify_positions(
                source_global, query, positions, 0.8, chunk_size=chunk_size
            )
            assert np.array_equal(result.positions, expected[0])
            assert np.array_equal(result.distances, expected[1])

    @pytest.mark.parametrize("regime", ["none", "global"])
    @pytest.mark.parametrize("m", [1, 7, LENGTH - 1])
    def test_prefix_lengths_include_the_tail(self, source_of, regime, m):
        source = source_of(regime)
        total = source.values.size - m + 1
        assert total > source.count  # the tail positions exist
        query = source.values[total - 1:total - 1 + m].copy()  # last m-window
        positions = np.arange(total)
        distances = brute_force(source, query, positions, np.inf)[1]
        for epsilon in (0.0, float(np.quantile(distances, 0.2))):
            assert_matches_brute_force(source, query, positions, epsilon)
        assert total - 1 in verify(source, query, positions, 0.0).positions

    def test_prefix_rejected_under_per_window(self, source_per_window):
        with pytest.raises(InvalidParameterError):
            verify(source_per_window, np.zeros(LENGTH - 1), [0], 1.0)

    @pytest.mark.parametrize("mode", VERIFICATION_MODES)
    def test_out_of_range_positions_raise(self, source_global, mode):
        query = source_global.window(0).copy()
        for bad in ([-1], [source_global.count], [0, 5, source_global.count]):
            with pytest.raises(InvalidParameterError):
                verify(source_global, query, bad, 1.0, mode=mode)
        # A prefix query may reach into the tail, but not past it.
        m = 10
        last = source_global.values.size - m
        assert len(verify(source_global, query[:m], [last], 1e9, mode=mode)) == 1
        with pytest.raises(InvalidParameterError):
            verify(source_global, query[:m], [last + 1], 1.0, mode=mode)


def random_envelopes(rng, length, columns):
    """Random-walk centres with random half-widths: ``L <= U``
    (float64, as a tree computes them)."""
    centres = np.cumsum(rng.normal(size=(length, columns)), axis=0)
    centres += rng.normal(scale=3.0, size=columns)
    half = rng.uniform(0.1, 1.5, size=(length, columns))
    return centres + half, centres - half


def exact_keep(query, upper_t, lower_t, threshold):
    """The float64 Eq. 2 decision the kernel must never fall short of."""
    column = query[:, None]
    return np.maximum(column - upper_t, lower_t - column).max(axis=0) <= threshold


def kernel_inputs(query, upper_t, lower_t, threshold):
    """The query's float32 thresholds and the outward-rounded float32
    envelopes the frozen plane compares them with."""
    lo, hi = frozen_module._thresholds(query, threshold)
    return lo, hi, round_up_f32(upper_t), round_down_f32(lower_t)


def unblocked(lo, hi, upper_t, lower_t):
    return ((upper_t >= lo[:, None]) & (lower_t <= hi[:, None])).all(axis=0)


def index_over(upper_t, lower_t):
    """A frozen index whose node ``i`` carries column ``i`` of the
    ``(l, n)`` float64 envelopes: a root over ``n - 1`` empty leaves
    (the kernel never looks at the structure)."""
    length, n = upper_t.shape
    kinds = np.ones(n, dtype=np.int8)
    kinds[:1] = 0
    children_offsets = np.full(n + 1, n - 1, dtype=np.int64)
    children_offsets[0] = 0
    index = FrozenTSIndex.from_arrays(
        WindowSource(np.zeros(length + 3), length, "none"),
        TSIndexParams(),
        BuildStats(),
        {
            "uppers": upper_t.T,
            "lowers": lower_t.T,
            "kinds": kinds,
            "children_offsets": children_offsets,
            "leaf_offsets": np.zeros(n + 1, dtype=np.int64),
            "positions": np.empty(0, dtype=np.int64),
        },
    )
    return index


def frontier_keep(index, lo, hi, ids):
    """The kernel as the level walk calls it — thresholds split into
    their head and tail parts, the frontier a mask over the ids from 0
    on — as a keep mask over the (ascending) ``ids``. The walk never
    calls it on an empty frontier (``test_empty_frontier``), so neither
    does this."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    visit = np.zeros(index.node_count, dtype=bool)
    visit[ids] = True
    kept = index._level_keep(
        index._parts(lo),
        index._parts(hi),
        visit,
        ids.size,
        0,
    )
    keep = np.zeros(index.node_count, dtype=bool)
    keep[kept] = True
    return keep[ids]


@pytest.fixture(
    params=[0, None], ids=["budget-4096", "budget-default"]
)
def budget(request, monkeypatch):
    """Both head passes of the kernel: with ``_SPAN_FACTOR`` at 0 every
    frontier gathers its head columns; at the default a frontier dense
    in id order takes the span view. (The ids date from the element
    budget the kernel had before the head/tail layout; they are kept so
    the test names stay comparable across commits.)"""
    if request.param is not None:
        monkeypatch.setattr(frozen_module, "_SPAN_FACTOR", request.param)
    return frozen_module._SPAN_FACTOR


@pytest.mark.usefixtures("budget")
class TestPruneKernel:
    @pytest.mark.parametrize("columns", [1, 31, 33, 300, 700, 5000])
    @pytest.mark.parametrize("length", [7, 37, 100])
    def test_matches_unblocked(self, columns, length):
        rng = np.random.default_rng(columns * 1000 + length)
        upper_t, lower_t = random_envelopes(rng, length, columns)
        index = index_over(upper_t, lower_t)
        query = np.cumsum(rng.normal(size=length))
        bounds = np.maximum(
            query[:, None] - upper_t, lower_t - query[:, None]
        ).max(axis=0)
        thresholds = [0.0, 1e300, float(bounds.min()), float(bounds.max())]
        thresholds += [float(t) for t in np.quantile(bounds, [0.02, 0.5])]
        for threshold in thresholds:
            inputs = kernel_inputs(query, upper_t, lower_t, threshold)
            kept = frontier_keep(index, *inputs[:2], np.arange(columns))
            assert kept.dtype == bool
            assert np.array_equal(kept, unblocked(*inputs)), threshold
            # Conservative: whatever the exact bound keeps is kept —
            # at thresholds that *are* some node's bound, too.
            assert kept[exact_keep(query, upper_t, lower_t, threshold)].all()

    def test_all_pruned_and_none_pruned(self):
        rng = np.random.default_rng(0)
        upper_t, lower_t = random_envelopes(rng, 100, 5000)
        index = index_over(upper_t, lower_t)
        ids = np.arange(5000)
        query = np.zeros(100)
        none = frontier_keep(
            index, *kernel_inputs(query, upper_t, lower_t, 1e9)[:2], ids
        )
        assert none.all() and none.size == 5000
        far = frontier_keep(
            index, *kernel_inputs(query + 1e6, upper_t, lower_t, 1.0)[:2], ids
        )
        assert not far.any() and far.size == 5000

    @pytest.mark.parametrize("prefix", [1, 5, 64, 99])
    def test_prefix_lengths(self, prefix):
        rng = np.random.default_rng(prefix)
        upper_t, lower_t = random_envelopes(rng, 100, 2000)
        index = index_over(upper_t, lower_t)
        query = np.cumsum(rng.normal(size=prefix))
        for threshold in (0.5, 2.0, 8.0):
            inputs = kernel_inputs(
                query, upper_t[:prefix], lower_t[:prefix], threshold
            )
            kept = frontier_keep(index, *inputs[:2], np.arange(2000))
            assert np.array_equal(kept, unblocked(*inputs))
            assert kept[
                exact_keep(query, upper_t[:prefix], lower_t[:prefix], threshold)
            ].all()

    @pytest.mark.parametrize("picked", [3, 200, 3000])
    def test_views_gathers_and_named_columns_agree(self, picked):
        """A frontier naming some columns gets the same answers for
        them as the whole id range does, on either head pass."""
        rng = np.random.default_rng(picked)
        upper_t, lower_t = random_envelopes(rng, 100, 6000)
        query = np.cumsum(rng.normal(size=100))
        ids = np.sort(rng.choice(6000, size=picked, replace=False))
        first, last = int(ids[0]), int(ids[-1]) + 1
        index = index_over(upper_t, lower_t)
        for threshold in (1.0, 4.0, 1e300):
            lo, hi, upper_t32, lower_t32 = kernel_inputs(
                query, upper_t, lower_t, threshold
            )
            expected = unblocked(lo, hi, upper_t32, lower_t32)
            named = frontier_keep(index, lo, hi, ids)
            span = frontier_keep(index, lo, hi, np.arange(first, last))
            assert np.array_equal(named, expected[ids])
            assert np.array_equal(span, expected[first:last])

    def test_empty_frontier(self, monkeypatch):
        """The walk never hands the kernel an empty frontier: a root
        pruned, a level pruned whole, leaves with no children below and
        a batch mixing them all reach ``_level_keep`` only with at
        least one visited node, counted right."""
        series = np.cumsum(np.random.default_rng(1).normal(size=3000))
        source = WindowSource(series, LENGTH, "global")
        index = bulk_load_source(
            source, params=TSIndexParams(min_children=2, max_children=4)
        )
        calls = []
        level_keep = FrozenTSIndex._level_keep

        def counted(self, lo, hi, visit, count, base):
            calls.append(count)
            assert count == np.count_nonzero(visit) >= 1
            return level_keep(self, lo, hi, visit, count, base)

        monkeypatch.setattr(FrozenTSIndex, "_level_keep", counted)
        window = source.window(700).copy()
        queries = [window, window + 1e6, window + 0.5, window[::-1].copy()]
        for epsilon in (0.0, 0.05, 1.0):
            for query in queries:
                index.search(query, epsilon)
            index.search_batch(queries, epsilon)
        assert calls

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 100])
    def test_two_phase_keep_equals_unblocked(self, length):
        """Head pass + tail rows == one unblocked evaluation, for every
        prefix length ``m`` (``l - h = 0`` at ``l = 1``, an empty tail
        slice whenever ``m = 1``) and every shape of frontier; the
        thresholds include ones where no node survives the head, where
        every node does, and where the head keeps nodes the tail
        prunes."""
        rng = np.random.default_rng(length)
        columns = 240
        upper_t, lower_t = random_envelopes(rng, length, columns)
        upper32, lower32 = round_up_f32(upper_t), round_down_f32(lower_t)
        index = index_over(upper_t, lower_t)
        frontiers = {
            "empty": np.empty(0, dtype=np.int64),
            "single": np.array([17]),
            "dense": np.arange(5, 200),
            "sparse": np.array([2, 90, 91, 239]),
        }
        head_differs = False
        for m in range(1, length + 1):
            query = np.cumsum(rng.normal(size=m))
            bounds = np.maximum(
                query[:, None] - upper_t[:m], lower_t[:m] - query[:, None]
            ).max(axis=0)
            cases = (
                (query, float(np.median(bounds))),
                (query, 1e300),  # every node survives both phases
                (query + 1e6, 1.0),  # no node survives the head
            )
            for case, (query, threshold) in enumerate(cases):
                lo, hi = frozen_module._thresholds(query, threshold)
                expected = unblocked(lo, hi, upper32[:m], lower32[:m])
                head_only = unblocked(
                    lo[::4], hi[::4], upper32[:m:4], lower32[:m:4]
                )
                head_differs |= bool((head_only & ~expected).any())
                assert case != 1 or expected.all()
                assert case != 2 or not head_only.any()
                for name, ids in frontiers.items():
                    kept = frontier_keep(index, lo, hi, ids)
                    assert np.array_equal(kept, expected[ids]), (m, name)
        # The tail phase is doing something wherever there is a tail.
        assert head_differs == (length > 1)


class TestNarrowBlockCounters:
    """Frozen and pointer planes agree — counters included — with every
    frontier on the head pass that gathers its columns (the path sparse
    frontiers take; a bulk-loaded tree's own are dense in id order and
    would take the span view, as they do in every other suite)."""

    @pytest.fixture(scope="class")
    def pair(self):
        series = np.cumsum(np.random.default_rng(21).normal(size=12_000))
        source = WindowSource(series, LENGTH, "global")
        frozen = bulk_load_source(
            source, params=TSIndexParams(min_children=4, max_children=8)
        )
        assert frozen.leaf_count > 1000
        return frozen.thaw(), frozen

    @pytest.fixture(autouse=True)
    def gathered_heads(self, monkeypatch):
        monkeypatch.setattr(frozen_module, "_SPAN_FACTOR", 0)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3, 1.5])
    def test_search_counters(self, pair, epsilon):
        tree, frozen = pair
        for position in (0, 4321, 11_000):
            query = tree.source.window(position).copy()
            expected = tree.search(query, epsilon)
            result = frozen.search(query, epsilon)
            assert np.array_equal(result.positions, expected.positions)
            assert np.array_equal(result.distances, expected.distances)
            assert result.stats.as_dict() == expected.stats.as_dict()

    @pytest.mark.parametrize("m", [5, LENGTH - 1])
    def test_prefix_search_counters(self, pair, m, monkeypatch):
        tree, frozen = pair
        query = tree.source.values[6000:6000 + m].copy()
        expected = scan_prefix_search(tree.source, query, 0.2)
        result = frozen.search_varlength(query, 0.2)
        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.distances, expected.distances)
        # The prefix traversal exists on the flat form only; its
        # counters are held to the span-view pass of the same frontier.
        monkeypatch.undo()
        spanned = frozen.search_varlength(query, 0.2)
        assert result.stats.as_dict() == spanned.stats.as_dict()

    def test_batch_verifies_like_a_loop_over_search(self, pair):
        tree, frozen = pair
        queries = [tree.source.window(p).copy() for p in (10, 5000, 9000)]
        batch = frozen.search_batch(queries, 0.3)
        for result, query in zip(batch.results, queries):
            alone = frozen.search(query, 0.3)
            assert np.array_equal(result.positions, alone.positions)
            assert np.array_equal(result.distances, alone.distances)
            assert result.stats.as_dict() == alone.stats.as_dict()

    def test_unknown_verification_rejected_before_traversal(self, pair, monkeypatch):
        _, frozen = pair

        def no_traversal(*args, **kwargs):
            raise AssertionError("traversal ran before the mode was checked")

        monkeypatch.setattr(FrozenTSIndex, "_collect_candidates", no_traversal)
        query = frozen.source.window(0).copy()
        with pytest.raises(InvalidParameterError, match="verification mode"):
            frozen.search(query, 0.3, verification="turbo")
        with pytest.raises(InvalidParameterError, match="verification mode"):
            frozen.search(query[:10], 0.3, verification="turbo")
        with pytest.raises(InvalidParameterError, match="verification mode"):
            frozen.search_batch([query], 0.3, verification="turbo")
