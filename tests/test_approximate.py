"""Tests for iSAX's approximate (single-leaf) search mode."""

import numpy as np


class TestISAXApproximate:
    def test_subset_of_exact(self, isax_global, query_of):
        for position in (10, 400, 1500):
            query = query_of(position)
            exact = set(isax_global.search(query, 0.5).positions.tolist())
            approx = set(
                isax_global.search_approximate(query, 0.5).positions.tolist()
            )
            assert approx <= exact

    def test_indexed_query_finds_itself(self, isax_global, query_of):
        # Identical values quantize to the identical SAX word.
        for position in (0, 123, 2000):
            query = query_of(position)
            result = isax_global.search_approximate(query, 0.0)
            assert position in result.positions

    def test_cheaper_than_exact(self, isax_global, query_of):
        query = query_of(321)
        exact = isax_global.search(query, 0.8)
        approx = isax_global.search_approximate(query, 0.8)
        assert approx.stats.candidates <= exact.stats.candidates
        assert approx.stats.leaves_accessed == 1

    def test_unseen_word_returns_empty(self, isax_global):
        from conftest import LENGTH

        # A wildly out-of-range query maps to a root word with no child.
        query = np.full(LENGTH, 1e6)
        result = isax_global.search_approximate(query, 0.1)
        assert len(result) == 0

    def test_distances_valid(self, isax_global, query_of):
        query = query_of(77)
        result = isax_global.search_approximate(query, 0.6)
        assert np.all(result.distances <= 0.6)

