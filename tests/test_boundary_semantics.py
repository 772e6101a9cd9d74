"""Boundary semantics: Definition 1 uses ``<= ε``, not ``< ε``.

A window whose Chebyshev distance equals ε *exactly* is a twin. These
tests plant exact-boundary cases and check every method and verifier
includes them — an easy off-by-one to introduce in any comparison.
"""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.verification import (
    verify_positions,
    verify_positions_per_candidate,
)
from repro.core.windows import WindowSource
from repro.indices.isax import ISAXIndex, ISAXParams
from repro.indices.kvindex import KVIndex
from repro.indices.sweepline import SweeplineSearch


@pytest.fixture(scope="module")
def boundary_setup():
    """A series where window 40's distance to the query is exactly 0.5."""
    rng = np.random.default_rng(0)
    values = rng.normal(0.0, 2.0, size=400)
    length = 20
    query = values[100:120].copy()
    # Make window 40 an exact copy except one point displaced by 0.5.
    values[40:60] = query
    values[47] += 0.5
    source = WindowSource(values, length, "none")
    return source, query


EXACT_EPSILON = 0.5


class TestMethodsIncludeBoundary:
    def test_sweepline(self, boundary_setup):
        source, query = boundary_setup
        result = SweeplineSearch.from_source(source).search(query, EXACT_EPSILON)
        assert 40 in result.positions
        assert np.isclose(
            result.distances[result.positions.tolist().index(40)], 0.5
        )

    def test_tsindex(self, boundary_setup):
        source, query = boundary_setup
        index = TSIndex.from_source(
            source, params=TSIndexParams(min_children=2, max_children=5)
        )
        assert 40 in index.search(query, EXACT_EPSILON).positions

    def test_kvindex(self, boundary_setup):
        source, query = boundary_setup
        index = KVIndex.from_source(source)
        assert 40 in index.search(query, EXACT_EPSILON).positions

    def test_isax(self, boundary_setup):
        source, query = boundary_setup
        index = ISAXIndex.from_source(
            source, params=ISAXParams(segments=4, leaf_capacity=16)
        )
        assert 40 in index.search(query, EXACT_EPSILON).positions

    def test_excluded_just_above(self, boundary_setup):
        source, query = boundary_setup
        result = SweeplineSearch.from_source(source).search(
            query, np.nextafter(EXACT_EPSILON, 0.0)
        )
        assert 40 not in result.positions


class TestVerifiersIncludeBoundary:
    @pytest.mark.parametrize(
        "verifier",
        [verify_positions, verify_positions_per_candidate],
        ids=["bulk", "per_candidate"],
    )
    def test_position_verifiers(self, boundary_setup, verifier):
        source, query = boundary_setup
        result = verifier(
            source, query, np.arange(source.count), EXACT_EPSILON
        )
        assert 40 in result.positions


class TestLemmaBoundary:
    def test_node_at_exact_bound_not_pruned(self, boundary_setup):
        # A node whose MBTS distance equals ε exactly must be explored.
        from repro.core.mbts import MBTS

        source, query = boundary_setup
        window = source.window(40)
        box = MBTS.from_sequence(window)
        assert box.distance_to_sequence(query) == EXACT_EPSILON
        # Algorithm 1 prunes strictly greater-than; equality passes.
        assert not (box.distance_to_sequence(query) > EXACT_EPSILON)

    def test_epsilon_zero_exact_copy(self, boundary_setup):
        source, query = boundary_setup
        index = TSIndex.from_source(source)
        result = index.search(query, 0.0)
        assert 100 in result.positions  # the original location
        assert np.all(result.distances == 0.0)
