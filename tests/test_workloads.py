"""Tests for query workload generation (Section 6.1 protocol)."""

import numpy as np

from repro.bench.workloads import QueryWorkload, workload_for_source
from repro.core.windows import WindowSource

from conftest import LENGTH


class TestGenerateWorkload:
    def test_count_and_length(self, source_raw):
        workload = workload_for_source(source_raw, count=10, seed=0)
        assert isinstance(workload, QueryWorkload)
        assert len(workload) == 10
        assert all(q.size == LENGTH for q in workload)
        assert workload.length == LENGTH

    def test_deterministic(self, source_raw):
        a = workload_for_source(source_raw, count=5, seed=7)
        b = workload_for_source(source_raw, count=5, seed=7)
        assert a.positions == b.positions
        for qa, qb in zip(a, b):
            assert np.array_equal(qa, qb)

    def test_seed_changes_positions(self, source_raw):
        a = workload_for_source(source_raw, count=5, seed=7)
        b = workload_for_source(source_raw, count=5, seed=8)
        assert a.positions != b.positions

    def test_no_replacement_when_possible(self, source_raw):
        workload = workload_for_source(source_raw, count=50, seed=2)
        assert len(set(workload.positions)) == 50

    def test_replacement_on_tiny_series(self):
        tiny = WindowSource(np.arange(12.0), 10, "none")
        workload = workload_for_source(tiny, count=30, seed=0)
        assert len(workload) == 30
        assert set(workload.positions) <= {0, 1, 2}

    def test_subset(self, source_raw):
        workload = workload_for_source(source_raw, count=10, seed=3)
        subset = workload.subset(4)
        assert len(subset) == 4
        assert subset.positions == workload.positions[:4]

    def test_subset_larger_than_workload(self, source_raw):
        workload = workload_for_source(source_raw, count=3, seed=3)
        assert len(workload.subset(100)) == 3


class TestWorkloadForSource:
    def test_queries_in_source_domain(self, source_global):
        workload = workload_for_source(source_global, count=6, seed=9)
        for position, query in zip(workload.positions, workload.queries):
            assert np.allclose(
                query, source_global.window_block(position, position + 1)[0]
            )

    def test_self_matches_guaranteed(self, source_global, tsindex_global):
        workload = workload_for_source(source_global, count=6, seed=10)
        for position, query in zip(workload.positions, workload.queries):
            assert position in tsindex_global.search(query, 0.0).positions

    def test_length_matches_source(self, source_per_window):
        workload = workload_for_source(source_per_window, count=3, seed=0)
        assert workload.length == LENGTH
