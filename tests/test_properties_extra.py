"""Additional hypothesis properties over the newer components."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro._util import intervals_to_positions, positions_to_intervals
from repro.core.bulkload import bulk_load_source
from repro.core.events import group_matches
from repro.core.mbts import MBTS
from repro.core.stats import SearchResult
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.query.planner import scan_knn

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestIntervalProperties:
    @given(st.sets(st.integers(min_value=0, max_value=500), max_size=60))
    def test_positions_intervals_round_trip(self, positions):
        ordered = sorted(positions)
        intervals = positions_to_intervals(ordered)
        assert intervals_to_positions(intervals).tolist() == ordered
        # Intervals are disjoint, sorted, with genuine gaps between them.
        for (a_start, a_stop), (b_start, b_stop) in zip(intervals, intervals[1:]):
            assert a_stop < b_start


class TestEventProperties:
    @given(
        st.sets(st.integers(min_value=0, max_value=1000), min_size=1, max_size=80),
        st.integers(min_value=1, max_value=50),
    )
    def test_groups_partition_positions(self, positions, min_gap):
        ordered = np.asarray(sorted(positions), dtype=np.int64)
        result = SearchResult(
            positions=ordered, distances=np.zeros(ordered.size)
        )
        groups = group_matches(result, min_gap)
        covered = sum(group.size for group in groups)
        assert covered == ordered.size
        # Consecutive groups are separated by at least min_gap.
        for a, b in zip(groups, groups[1:]):
            assert b.first_position - a.last_position >= min_gap
        # Within a group, consecutive members are closer than min_gap.
        index = 0
        for group in groups:
            members = ordered[index : index + group.size]
            index += group.size
            assert members[0] == group.first_position
            assert members[-1] == group.last_position
            assert np.all(np.diff(members) < min_gap)


class TestMBTSAlgebra:
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(2, 5), st.just(8)),
                   elements=finite_floats),
        hnp.arrays(np.float64, st.tuples(st.integers(2, 5), st.just(8)),
                   elements=finite_floats),
    )
    def test_union_commutative_and_idempotent(self, first_rows, second_rows):
        first = MBTS.from_sequences(first_rows)
        second = MBTS.from_sequences(second_rows)
        assert first.union(second) == second.union(first)
        assert first.union(first) == first

    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.just(6)),
                   elements=finite_floats)
    )
    def test_gap_zero_iff_overlapping_everywhere(self, rows):
        half = rows.shape[0] // 2 or 1
        first = MBTS.from_sequences(rows[:half])
        second = MBTS.from_sequences(rows[half:]) if rows[half:].size else first
        gap = first.gap_to(second)
        overlaps = np.all(
            (first.lower <= second.upper) & (second.lower <= first.upper)
        )
        assert (gap == 0.0) == bool(overlaps)


class TestBulkVsInsertProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(80, 160), elements=finite_floats),
        st.integers(min_value=4, max_value=20),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_bulk_equals_insert_answers(self, values, length, epsilon):
        if np.ptp(values) == 0.0:
            values = values + np.arange(values.size) * 1e-3
        source = WindowSource(values, length, "none")
        params = TSIndexParams(min_children=2, max_children=4)
        inserted = TSIndex.from_source(source, params=params)
        bulk = bulk_load_source(source, params=params)
        query = np.array(source.window_block(0, 1)[0])
        assert np.array_equal(
            inserted.search(query, epsilon).positions,
            bulk.search(query, epsilon).positions,
        )


class TestKnnExclusionProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(100, 160), elements=finite_floats),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=40),
    )
    def test_excluded_positions_never_returned(self, values, start, width):
        if np.ptp(values) == 0.0:
            values = values + np.arange(values.size) * 1e-3
        source = WindowSource(values, 10, "none")
        index = TSIndex.from_source(
            source, params=TSIndexParams(min_children=2, max_children=4)
        )
        stop = min(start + width, source.count)
        start = min(start, stop)
        query = np.array(source.window_block(0, 1)[0])
        result = index.knn(query, 5, exclude=(start, stop))
        for position in result.positions.tolist():
            assert position < start or position >= stop
        expected = min(5, source.count - (stop - start))
        assert len(result) == expected
        scanned = scan_knn(source, query, 5, exclude=(start, stop))
        assert np.array_equal(result.positions, scanned.positions)
        assert np.array_equal(result.distances, scanned.distances)
