"""The planes served as parts — sharded and live — through their one
``_take``.

Two promises. A malformed full-length query raises the TS-Index
planes' typed :class:`~repro.exceptions.IncompatibleQueryError`
(``expected`` / ``received`` populated) in every mode, on the sharded
plane as on the monolithic ones. And the planner serves every mode on
the parts a plane hands it, never through the plane's public query
methods (those are themselves planned calls, so reaching them from the
planner would recurse): with the methods patched to raise, the engine
still answers, equal to an unpatched twin plane.
"""

import numpy as np
import pytest

from repro import QueryEngine, QuerySpec
from repro.engine import ShardedTSIndex
from repro.exceptions import IncompatibleQueryError
from repro.indices import create_method
from repro.live import LiveTwinIndex
from repro.query import execute

LENGTH = 32
SERIES = np.cumsum(np.random.default_rng(11).normal(size=2000))
QUERY = np.array(SERIES[700 : 700 + LENGTH])

#: Malformed full-length queries: one too long, one two-dimensional.
MALFORMED = {
    "long": np.array(SERIES[700 : 700 + LENGTH + 3]),
    "2d": np.stack([QUERY, QUERY]),
}


@pytest.fixture(scope="module")
def planes():
    options = {"sharded": {"shards": 3}, "live": {"seal_threshold": 256}}
    built = {
        name: create_method(name, SERIES, LENGTH, normalization="none", **options.get(name, {}))
        for name in ("tsindex", "frozen", "sharded", "live")
    }
    yield built
    built["live"].close()


@pytest.mark.parametrize("shape", sorted(MALFORMED))
@pytest.mark.parametrize("mode", ["search", "count", "exists", "knn"])
@pytest.mark.parametrize("name", ["tsindex", "frozen", "sharded", "live"])
def test_malformed_query_raises_incompatible_query_error(planes, name, mode, shape):
    query = MALFORMED[shape]
    call = {
        "search": lambda plane: plane.search(query, 0.5),
        "count": lambda plane: plane.count(query, 0.5),
        "exists": lambda plane: plane.exists(query, 0.5),
        "knn": lambda plane: plane.knn(query, 3),
    }[mode]
    with pytest.raises(IncompatibleQueryError) as info:
        call(planes[name])
    assert info.value.expected == LENGTH
    assert info.value.received == (LENGTH + 3 if shape == "long" else (2, LENGTH))


def _sharded():
    return ShardedTSIndex.build(SERIES, LENGTH, shards=3, normalization="none")


def _live_with_delta():
    live = LiveTwinIndex(SERIES, LENGTH, seal_threshold=256)
    assert live.segment_count >= 1 and live.delta_windows > 0
    return live


def _live_before_first_window():
    live = LiveTwinIndex(SERIES[:20], LENGTH)
    assert live.window_count == 0
    return live


#: The public query methods the planner must never call.
PUBLIC = ("search", "search_varlength", "count", "knn", "exists", "search_batch")


def _answers(plane):
    """Every mode, full-length and prefix, through a
    :class:`QueryEngine` the plane is registered with, plus a planned
    batch."""
    full = np.array(SERIES[10 : 10 + LENGTH])
    prefix = np.array(SERIES[10:22])
    out = []
    with QueryEngine() as engine:
        engine.add("plane", plane)
        for query in (full, prefix):
            out += [
                engine.query("plane", query, 0.8, use_cache=False),
                engine.knn("plane", query, 4, exclude=(8, 14)),
                engine.exists("plane", query, 0.8),
                engine.count("plane", query, 0.8),
                *engine.batch("plane", [query, full], 0.8, use_cache=False).results,
            ]
        spec = QuerySpec(query=[full, prefix], mode="batch", epsilon=0.8)
        out += execute(plane, spec).results
    return out


def _same(got, want):
    if isinstance(want, (bool, int)):
        assert got == want
        return
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.distances, want.distances)
    assert got.stats.as_dict() == want.stats.as_dict()


@pytest.mark.parametrize(
    "build", [_sharded, _live_with_delta, _live_before_first_window],
    ids=["sharded", "live-delta", "live-young"],
)
def test_planner_serves_the_parts_not_the_public_methods(build, monkeypatch):
    twin, plane = build(), build()
    try:
        expected = _answers(twin)
        cls = type(plane)

        def refuse(*args, **kwargs):
            raise AssertionError("the planner called a public query method")

        for name in PUBLIC:
            monkeypatch.setattr(cls, name, refuse)
        got = _answers(plane)
        assert len(got) == len(expected)
        for answer, want in zip(got, expected):
            _same(answer, want)
    finally:
        monkeypatch.undo()
        for built in (twin, plane):
            if isinstance(built, LiveTwinIndex):
                built.close()
