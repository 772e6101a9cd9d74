"""The planes served as parts — sharded and live — through their one
``_take``.

Three promises. A malformed full-length query raises the TS-Index
planes' typed :class:`~repro.exceptions.IncompatibleQueryError`
(``expected`` / ``received`` populated) in every mode, on the sharded
plane as on the monolithic ones. And the planner serves every mode on
the parts a plane hands it, never through the plane's public query
methods (those are themselves planned calls, so reaching them from the
planner would recurse): with the methods patched to raise, the engine
still answers, equal to an unpatched twin plane.

And the live plane's sealed segments, joined as one forest on every
executor, answer every mode alike on the calling thread, a thread pool
and a process pool, and as one tree over the whole series does — with
segments of unequal height, and with dozens of them.
"""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro import QueryEngine, QuerySpec, bulk_load
from repro.core.tsindex import TSIndexParams
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


# ----------------------------------------------------------------------
# The sealed forest: one part for every segment, on every executor
# ----------------------------------------------------------------------
#: Small nodes, so a segment sealed over more windows stands taller.
FOREST_PARAMS = TSIndexParams(min_children=4, max_children=10)

#: Windows per forced seal: unequal, so the segments differ in height.
SEAL_SIZES = (600, 40, 300, 9, 150)


@pytest.fixture(scope="module")
def executors():
    """The three paths a query can take: the calling thread, a 2-thread
    pool and a 2-process pool."""
    with ThreadPoolExecutor(2) as threads, ProcessPoolExecutor(2) as processes:
        yield {"calling": None, "threads": threads, "processes": processes}


def _sealed_by_hand(normalization):
    """Forced seals of :data:`SEAL_SIZES` windows, then a delta."""
    live = LiveTwinIndex(
        SERIES[: LENGTH - 1], LENGTH, normalization=normalization,
        params=FOREST_PARAMS, seal_threshold=None,
    )
    for size in SEAL_SIZES:
        live.append(SERIES[live.series_length : live.series_length + size])
        assert live.seal()
    live.append(SERIES[live.series_length :])
    return live


def _sealed_often(normalization):
    """Over 40 threshold seals, then a delta."""
    live = LiveTwinIndex(
        SERIES, LENGTH, normalization=normalization, params=FOREST_PARAMS, seal_threshold=40,
    )
    assert live.segment_count >= 40
    return live


@pytest.fixture(scope="module", params=["none", "per_window"])
def forest_plane(request):
    """Segments of unequal height beside a non-empty delta, and a
    from-scratch bulk load of the same series."""
    live = _sealed_by_hand(request.param)
    assert [segment.size for segment in live.segments] == list(SEAL_SIZES)
    assert len({segment.index.height for segment in live.segments}) > 1
    assert live.delta_windows > 0
    yield live, bulk_load(SERIES, LENGTH, normalization=request.param)
    live.close()


@pytest.fixture(scope="module", params=["none", "per_window"])
def many_plane(request):
    """Over 40 segments beside a non-empty delta, and a from-scratch
    bulk load of the same series."""
    live = _sealed_often(request.param)
    assert live.delta_windows > 0
    yield live, bulk_load(SERIES, LENGTH, normalization=request.param)
    live.close()


def test_the_calling_thread_takes_one_forest(forest_plane, executors):
    """The sealed segments are one part, their forest, beside the delta
    — on every executor (the parts name no archive, so a process pool
    leaves them all to the calling thread)."""
    live, _ = forest_plane
    for executor in executors.values():
        _, parts = live._take(QUERY, executor)
        forest, delta = parts.parts
        assert forest.start == 0 and forest.index.size == live.segments[-1].stop
        # One tree: the segments' trees under one synthetic root.
        assert forest.index.node_count == sum(s.index.node_count for s in live.segments) + 1
        assert delta.start == live.segments[-1].stop
        assert forest.archive is None and delta.archive is None


def _forest_queries():
    rng = np.random.default_rng(17)
    for position in (3, 700, 1500, SERIES.size - LENGTH):
        window = np.array(SERIES[position : position + LENGTH])
        yield position, window + rng.normal(scale=0.05, size=LENGTH)


def _same_answer(got, want):
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.distances, want.distances)


def _assert_every_mode(live, tree, executors, epsilon):
    """Every mode — search, count, prefix search, k-NN with an exclusion
    zone, exists and a batch — answers alike on every executor, counters
    included, and like a from-scratch bulk load on positions and
    distances (one tree walks other nodes than the forest, so its
    counters differ)."""
    queries = list(_forest_queries())
    for position, query in queries:
        found = live.search(query, epsilon)
        _same_answer(found, tree.search(query, epsilon))
        exclude = (position - 10, position + 10)
        nearest = live.knn(query, 5, exclude=exclude)
        _same_answer(nearest, tree.knn(query, 5, exclude=exclude))
        assert live.exists(query, epsilon) == (len(found) > 0)
        short = None
        if live.normalization.value == "none":  # per-window refuses prefixes
            short = query[:20]
            _same_answer(live.search(short, epsilon), tree.search_varlength(short, epsilon))
        for executor in executors.values():
            _same(live.search(query, epsilon, executor=executor), found)
            assert live.count(query, epsilon, executor=executor) == len(found)
            _same(live.knn(query, 5, exclude=exclude, executor=executor), nearest)
            if short is not None:
                _same(
                    live.search(short, epsilon, executor=executor),
                    live.search(short, epsilon),
                )
    batch = [query for _, query in queries]
    want = live.search_batch(batch, epsilon)
    for got, one, scratch in zip(want.results, batch, tree.search_batch(batch, epsilon).results):
        _same(got, live.search(one, epsilon))
        _same_answer(got, scratch)
    for executor in executors.values():
        for got, expected in zip(live.search_batch(batch, epsilon, executor=executor).results, want.results):
            _same(got, expected)


@pytest.mark.parametrize("epsilon", [0.3, 1.5])
def test_forest_answers_like_the_segments_and_one_tree(forest_plane, executors, epsilon):
    _assert_every_mode(*forest_plane, executors, epsilon)


@pytest.mark.parametrize("epsilon", [0.3, 1.5])
def test_many_segments_answer_like_one_tree(many_plane, executors, epsilon):
    _assert_every_mode(*many_plane, executors, epsilon)
