"""Twins at the edge of ``ε``, on every TS-Index plane.

A twin is a window whose Chebyshev distance to the query is ``<= ε``
(the paper's Definition 2). The tree filter compares the query with
envelopes held as float32 rounded outward, through thresholds rounded
outward the other way, so a window at distance exactly ``ε``, or within
one float32 spacing of it, is where a rounding slip would show: a twin
lost, or a non-twin returned. Each row puts ``ε`` at one of the
smallest distances of a query, moved by nothing, by one float64 step
down, or by one float32 spacing (of ``ε`` itself, or of the series'
values, the grid the envelopes are rounded to) up or down, and every
plane must return exactly what a brute-force Chebyshev scan returns.

The planes: bulk-built frozen trees (``global`` and ``none``), a frozen
insertion-built ``TSIndex``, the sharded plane (on its joined forest
and on a thread pool of shards) and the live plane (sealed segments
plus a scanned delta).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import TSIndex, bulk_load
from repro.core.tsindex import TSIndexParams
from repro.core.windows import WindowSource
from repro.engine import ShardedTSIndex
from repro.euclidean.mass import chebyshev_distance_profile
from repro.live import LiveTwinIndex

LENGTH = 24
PARAMS = TSIndexParams(min_children=4, max_children=10)
SERIES = np.cumsum(np.random.default_rng(29).normal(size=1500)) * 3.7


def _offsets(epsilon: float, values: np.ndarray) -> dict[str, float]:
    """The ``ε`` of each row, for a target distance ``epsilon`` over
    windows of ``values``."""
    value_step = float(np.spacing(np.float32(np.abs(values).max())))
    epsilon_step = float(np.spacing(np.float32(epsilon)))
    return {
        "exact": epsilon,
        "f64-below": float(np.nextafter(epsilon, -np.inf)),
        "f32-eps-above": epsilon + epsilon_step,
        "f32-eps-below": epsilon - epsilon_step,
        "f32-value-above": epsilon + value_step,
        "f32-value-below": epsilon - value_step,
    }


ROWS = sorted(_offsets(1.0, SERIES))


def _query(source: WindowSource) -> np.ndarray:
    """A window of ``source`` with a smooth bump added: its nearest
    windows sit at distinct, non-float32 distances."""
    bump = 0.4 * np.sin(np.linspace(0.0, np.pi, LENGTH))
    return np.array(source.window_block(600, 601)[0]) + bump


def _planes(normalization: str) -> dict:
    built = {"bulk": bulk_load(SERIES, LENGTH, normalization=normalization, params=PARAMS)}
    if normalization == "none":
        built["tsindex-freeze"] = TSIndex.build(
            SERIES, LENGTH, normalization="none", params=PARAMS
        ).freeze()
        built["sharded"] = ShardedTSIndex.build(
            SERIES, LENGTH, normalization="none", shards=3, params=PARAMS
        )
        built["live"] = LiveTwinIndex(SERIES, LENGTH, params=PARAMS, seal_threshold=200)
    return built


@pytest.fixture(scope="module", params=["global", "none"])
def planes(request):
    built = _planes(request.param)
    yield WindowSource(SERIES, LENGTH, request.param), built
    if "live" in built:
        built["live"].close()


@pytest.mark.parametrize("nearest", [1, 2, 3])
@pytest.mark.parametrize("row", ROWS)
def test_twins_at_the_edge_of_epsilon(planes, row, nearest):
    source, built = planes
    query = _query(source)
    profile = chebyshev_distance_profile(source, query)
    epsilon = _offsets(float(np.sort(profile)[nearest - 1]), source.values)[row]
    expected = np.flatnonzero(profile <= epsilon)
    if row == "exact":
        assert expected.size >= nearest
    for name, plane in built.items():
        runs = [plane.search(query, epsilon)]
        if name == "sharded":
            with ThreadPoolExecutor(2) as pool:
                runs.append(plane.search(query, epsilon, executor=pool))
        for result in runs:
            assert np.array_equal(result.positions, expected), (name, row)
            assert np.array_equal(result.distances, profile[expected]), (name, row)
        assert plane.exists(query, epsilon) == bool(expected.size), (name, row)
