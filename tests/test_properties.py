"""Hypothesis property-based tests on core invariants.

Each property is phrased over *generated* series/queries/thresholds so
the suite explores corner cases (constant runs, spikes, tiny windows)
no hand-written example covers.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.distance import chebyshev_distance
from repro.core.mbts import MBTS
from repro.core.normalization import rolling_mean, rolling_std, znormalize
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.indices.isax import ISAXIndex, ISAXParams
from repro.indices.kvindex import KVIndex, KVIndexParams
from repro.indices.paa import paa_transform, segment_bounds
from repro.indices.sax import SAXAlphabet
from repro.indices.sweepline import SweeplineSearch
from repro.live import LiveTwinIndex
from repro.query.planner import scan_knn

#: Bounded, finite float arrays keep distances well-conditioned.
finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def series_strategy(min_size=60, max_size=220):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=min_size, max_value=max_size),
        elements=finite_floats,
    )


@st.composite
def series_and_window(draw):
    values = draw(series_strategy())
    length = draw(st.integers(min_value=2, max_value=min(40, values.size)))
    return values, length


class TestDistanceProperties:
    @given(
        hnp.arrays(np.float64, 25, elements=finite_floats),
        hnp.arrays(np.float64, 25, elements=finite_floats),
    )
    def test_chebyshev_symmetry_and_identity(self, a, b):
        assert chebyshev_distance(a, b) == chebyshev_distance(b, a)
        assert chebyshev_distance(a, a) == 0.0

    @given(
        hnp.arrays(np.float64, 15, elements=finite_floats),
        hnp.arrays(np.float64, 15, elements=finite_floats),
        hnp.arrays(np.float64, 15, elements=finite_floats),
    )
    def test_chebyshev_triangle(self, a, b, c):
        assert chebyshev_distance(a, c) <= (
            chebyshev_distance(a, b) + chebyshev_distance(b, c) + 1e-9
        )

    @given(
        hnp.arrays(np.float64, 20, elements=finite_floats),
        hnp.arrays(np.float64, 20, elements=finite_floats),
    )
    def test_mean_difference_bounded_by_chebyshev(self, a, b):
        # The KV-Index filter property (Section 4.1).
        assert abs(a.mean() - b.mean()) <= chebyshev_distance(a, b) + 1e-9

    @given(
        hnp.arrays(np.float64, 24, elements=finite_floats),
        hnp.arrays(np.float64, 24, elements=finite_floats),
        st.integers(min_value=1, max_value=8),
    )
    def test_paa_difference_bounded_by_chebyshev(self, a, b, segments):
        # The iSAX filter property (Section 4.2).
        diff = np.abs(paa_transform(a, segments) - paa_transform(b, segments))
        assert np.all(diff <= chebyshev_distance(a, b) + 1e-9)


class TestMBTSProperties:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(
                st.integers(min_value=1, max_value=8),
                st.integers(min_value=2, max_value=20),
            ),
            elements=finite_floats,
        ),
        hnp.arrays(np.float64, 20, elements=finite_floats),
    )
    def test_eq2_lower_bounds_members(self, matrix, query):
        query = query[: matrix.shape[1]]
        box = MBTS.from_sequences(matrix)
        bound = box.distance_to_sequence(query)
        for row in matrix:
            assert bound <= chebyshev_distance(query, row) + 1e-9

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=2, max_value=12),
            ),
            elements=finite_floats,
        )
    )
    def test_union_contains_parts(self, matrix):
        half = max(1, matrix.shape[0] // 2)
        first = MBTS.from_sequences(matrix[:half])
        second = MBTS.from_sequences(matrix[half:]) if matrix[half:].size else first
        union = first.union(second)
        assert union.contains_mbts(first)
        assert union.contains_mbts(second)


class TestNormalizationProperties:
    @given(series_strategy(min_size=3, max_size=100))
    def test_znormalize_statistics(self, values):
        z = znormalize(values)
        assert np.all(np.isfinite(z))
        if values.std() > 1e-9:
            assert abs(z.mean()) < 1e-7
            assert abs(z.std() - 1.0) < 1e-7

    @given(series_and_window())
    def test_rolling_stats_match_naive(self, data):
        values, length = data
        means = rolling_mean(values, length)
        stds = rolling_std(values, length)
        # One-pass rolling variance carries an absolute error of about
        # eps_mach * scale^2; stds below that resolution legitimately
        # fall to the floor convention, so only resolvable stds are
        # compared against the two-pass reference.
        scale = max(1.0, float(np.max(np.abs(values))))
        resolution = 1e-6 * scale
        for i in range(0, values.size - length + 1, 7):
            window = values[i : i + length]
            assert abs(means[i] - window.mean()) < 1e-6 * scale
            naive_std = window.std()
            if naive_std > resolution:
                assert abs(stds[i] - naive_std) < 1e-6 * scale


class TestSAXProperties:
    @given(
        hnp.arrays(np.float64, 50, elements=finite_floats),
        st.sampled_from([2, 4, 8, 16]),
    )
    def test_symbol_ranges_cover_values(self, values, cardinality):
        alphabet = SAXAlphabet.gaussian(16)
        symbols = alphabet.symbols(values, cardinality)
        for value, symbol in zip(values, symbols):
            low, high = alphabet.symbol_range(int(symbol), cardinality)
            assert low <= value <= high

    @given(hnp.arrays(np.float64, 50, elements=finite_floats))
    def test_bit_prefix_invariant(self, values):
        alphabet = SAXAlphabet.gaussian(16)
        fine = alphabet.symbols(values, 16)
        for bits in (1, 2, 3):
            assert np.array_equal(
                alphabet.symbols(values, 1 << bits), fine >> (4 - bits)
            )


class TestSegmentBoundsProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=60),
    )
    def test_bounds_partition(self, length, segments):
        if segments > length:
            segments = length
        bounds = segment_bounds(length, segments)
        sizes = np.diff(bounds)
        assert bounds[0] == 0
        assert bounds[-1] == length
        assert np.all(sizes >= 1)
        assert sizes.max() - sizes.min() <= 1


class TestSearchEquivalenceProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        series_strategy(min_size=80, max_size=200),
        st.integers(min_value=4, max_value=25),
        st.floats(min_value=0.0, max_value=20.0),
        st.randoms(use_true_random=False),
    )
    def test_indices_match_sweepline(self, values, length, epsilon, rnd):
        if np.ptp(values) == 0.0:
            values = values + np.arange(values.size) * 1e-3
        source = WindowSource(values, length, "none")
        sweepline = SweeplineSearch.from_source(source)
        tsindex = TSIndex.from_source(
            source, params=TSIndexParams(min_children=2, max_children=4)
        )
        kvindex = KVIndex.from_source(source, params=KVIndexParams(num_bins=16))
        isax = ISAXIndex.from_source(
            source,
            params=ISAXParams(segments=min(4, length), leaf_capacity=8),
        )
        # The live ingestion plane, segmented small so the invariant
        # also covers delta + sealed-segment + compaction fan-out.
        live = LiveTwinIndex.from_source(
            source,
            params=TSIndexParams(min_children=2, max_children=4),
            seal_threshold=16,
            max_segments=2,
        )
        position = rnd.randrange(source.count)
        query = np.array(source.window_block(position, position + 1)[0])
        expected = sweepline.search(query, epsilon).positions
        assert position in expected
        for index in (tsindex, kvindex, isax, live):
            actual = index.search(query, epsilon).positions
            assert np.array_equal(actual, expected), type(index).__name__

    @settings(max_examples=15, deadline=None)
    @given(
        series_strategy(min_size=80, max_size=160),
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=1, max_value=10),
    )
    def test_knn_matches_brute_force(self, values, length, k):
        if np.ptp(values) == 0.0:
            values = values + np.arange(values.size) * 1e-3
        source = WindowSource(values, length, "none")
        index = TSIndex.from_source(
            source, params=TSIndexParams(min_children=2, max_children=4)
        )
        query = np.array(source.window_block(0, 1)[0])
        k = min(k, source.count)
        result = index.knn(query, k)
        block = source.window_block(0, source.count)
        profile = np.max(np.abs(block - query), axis=1)
        assert np.allclose(np.sort(result.distances), np.sort(profile)[:k])
        # The tree answers from its frozen snapshot, so the reference is
        # the scan: same (distance, position) ranking, bit for bit.
        expected = scan_knn(source, query, k)
        assert np.array_equal(result.positions, expected.positions)
        assert np.array_equal(result.distances, expected.distances)
