"""Tests for the batch query API: every plane's ``search_batch``."""

import numpy as np
import pytest

from repro.core.batch import BatchResult
from repro.exceptions import InvalidParameterError


@pytest.fixture()
def queries(query_of):
    return [query_of(p) for p in (10, 200, 900)]


class TestSearchBatch:
    def test_results_align_with_queries(self, tsindex_global, queries):
        batch = tsindex_global.search_batch(queries, 0.5)
        assert len(batch) == 3
        for query, result in zip(queries, batch):
            single = tsindex_global.search(query, 0.5)
            assert np.array_equal(result.positions, single.positions)

    def test_total_matches(self, tsindex_global, queries):
        batch = tsindex_global.search_batch(queries, 0.5)
        assert batch.total_matches == sum(batch.match_counts())
        assert batch.total_matches >= 3  # each query matches itself

    def test_stats_aggregated(self, tsindex_global, queries):
        batch = tsindex_global.search_batch(queries, 0.5)
        per_query = [tsindex_global.search(q, 0.5).stats for q in queries]
        assert batch.stats.candidates == sum(s.candidates for s in per_query)
        assert batch.stats.matches == batch.total_matches

    def test_selectivity(self, tsindex_global, queries):
        batch = tsindex_global.search_batch(queries, 0.5)
        windows = tsindex_global.source.count
        expected = batch.total_matches / (windows * 3)
        assert batch.selectivity(windows) == pytest.approx(expected)
        assert batch.selectivity(0) == 0.0

    def test_works_with_every_method(
        self, sweepline_global, kvindex_global, isax_global, queries
    ):
        counts = None
        for method in (sweepline_global, kvindex_global, isax_global):
            batch = method.search_batch(queries, 0.5)
            if counts is None:
                counts = batch.match_counts()
            assert batch.match_counts() == counts

    def test_search_options_forwarded(self, tsindex_global, queries):
        bulk = tsindex_global.search_batch(queries, 0.5, verification="bulk")
        slow = tsindex_global.search_batch(
            queries, 0.5, verification="per_candidate"
        )
        assert bulk.match_counts() == slow.match_counts()

    def test_empty_batch(self, tsindex_global):
        batch = tsindex_global.search_batch([], 0.5)
        assert len(batch) == 0
        assert batch.total_matches == 0

    def test_indexing(self, tsindex_global, queries):
        batch = tsindex_global.search_batch(queries, 0.5)
        assert isinstance(batch, BatchResult)
        assert np.array_equal(batch[0].positions, batch.results[0].positions)

    def test_negative_epsilon(self, tsindex_global, queries):
        with pytest.raises(InvalidParameterError):
            tsindex_global.search_batch(queries, -1.0)
