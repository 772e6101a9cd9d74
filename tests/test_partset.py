"""``PartSet`` — the one fan-out loop both composite planes hand the planner.

Two halves. The failure semantics (fail-fast, first failure cancels,
deadline, degraded report, part attribution in notes, spans and
failpoints) run over hand-made fake parts, so nothing real has to be
monkeypatched to be slow or broken. Exactness runs over real trees —
pointer and frozen parts mixed, the last span a sweepline scan part as
the live delta is — against one brute-force Chebyshev scan.
"""

import concurrent.futures
import threading
import time

import numpy as np
import pytest

from repro.core.stats import QueryStats, SearchResult
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource, assemble_source
from repro.engine import ShardedTSIndex
from repro.exceptions import ShardTimeoutError
from repro.faults import failpoints
from repro.indices.sweepline import SweeplineSearch
from repro.obs.trace import QueryTrace, activate_trace, deactivate_trace
from repro.query import QuerySpec, plan
from repro.query.parts import Part, PartSet, local_exclude


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture(scope="module")
def pool():
    with concurrent.futures.ThreadPoolExecutor(4) as executor:
        yield executor


def _result(positions) -> SearchResult:
    positions = np.asarray(positions, dtype=np.int64)
    return SearchResult(
        positions=positions,
        distances=np.zeros(positions.size),
        stats=QueryStats(candidates=positions.size, matches=positions.size),
    )


class FakeIndex:
    """Answers every kernel with the canned local ``positions`` — late
    by ``delay`` seconds, or not at all (``error``)."""

    def __init__(self, positions=(), *, size=10, delay=0.0, error=None):
        self.size, self.delay, self.error = size, delay, error
        self.answer = _result(positions)
        self.calls = []

    def _serve(self, name, value, **kwargs):
        self.calls.append((name, kwargs))
        time.sleep(self.delay)
        if self.error is not None:
            raise self.error
        return value

    def search(self, query, epsilon, *, verification="bulk"):
        return self._serve("search", self.answer, verification=verification)

    def count(self, query, epsilon):
        return self._serve("count", len(self.answer))

    def exists(self, query, epsilon):
        return self._serve("exists", len(self.answer) > 0)

    def knn(self, query, *, k, exclude):
        return self._serve("knn", self.answer, k=k, exclude=exclude)


def _fakes(*indexes, kind="shard", labels=None):
    """Ten-window parts laid end to end."""
    labels = labels or list(range(len(indexes)))
    return PartSet(
        [Part(10 * i, index, labels[i], None) for i, index in enumerate(indexes)],
        kind,
    )


def _notes(exc) -> str:
    return " | ".join(getattr(exc, "__notes__", []))


QUERY = np.zeros(4)


class TestFailureSemantics:
    def test_merges_in_part_order(self):
        parts = _fakes(FakeIndex([1, 3]), FakeIndex(), FakeIndex([0]), FakeIndex([2]))
        merged = parts.search(QUERY, 0.1)
        assert merged.positions.tolist() == [1, 3, 20, 32]
        # The empty part merges its counters and nothing else.
        assert merged.stats.matches == 4
        assert merged.degraded is None

    def test_search_options_reach_every_part(self):
        first, second = FakeIndex([0]), FakeIndex([0])
        _fakes(first, second).search(QUERY, 0.1, verification="per_candidate")
        assert first.calls == second.calls == [("search", {"verification": "per_candidate"})]

    @pytest.mark.parametrize("mode", ["search", "count", "knn", "exists"])
    def test_raising_part_is_named_in_every_mode(self, mode):
        parts = _fakes(
            FakeIndex(), FakeIndex(error=ValueError("bad part")),
            kind="segment", labels=[0, 4096],
        )
        with pytest.raises(ValueError, match="bad part") as info:
            if mode == "knn":
                parts.knn(QUERY, 3)
            else:
                getattr(parts, mode)(QUERY, 0.1)
        if mode != "exists":  # exists probes in the caller, outside fan_out
            assert "segment 4096" in _notes(info.value)

    def test_first_failure_cancels_pending(self):
        release = threading.Event()

        class Blocking(FakeIndex):
            def search(self, *args, **kwargs):
                self.calls.append("search")
                release.wait(5.0)
                return self.answer

        first = FakeIndex(error=RuntimeError("first fails"))
        second, third = Blocking(), Blocking()
        # One pool thread: it may pick up the second part before the
        # failure is seen, and then sits in it — so the third is still
        # queued when the failure propagates, and must be cancelled
        # (never run), not leaked.
        with concurrent.futures.ThreadPoolExecutor(1) as narrow:
            with pytest.raises(RuntimeError, match="first fails") as info:
                _fakes(first, second, third).search(QUERY, 0.1, executor=narrow)
            release.set()
        assert third.calls == []
        assert "shard 0" in _notes(info.value)

    def test_deadline_fails_fast_naming_parts(self, pool):
        parts = _fakes(
            FakeIndex([1]), FakeIndex([2], delay=3.0), FakeIndex([3]),
            labels=["a", "slow", "c"],
        )
        with pytest.raises(ShardTimeoutError) as info:
            parts.search(QUERY, 0.1, executor=pool, timeout=0.3)
        assert list(info.value.answered) == ["a", "c"]
        assert list(info.value.missing) == ["slow"]

    def test_degraded_serves_answered_parts(self, pool):
        parts = _fakes(
            FakeIndex([1]), FakeIndex([2], delay=3.0), FakeIndex([3]), FakeIndex([5]),
            kind="segment", labels=[0, 10, 20, 30],
        )
        merged = parts.search(QUERY, 0.1, executor=pool, timeout=0.3, degraded=True)
        assert merged.positions.tolist() == [1, 23, 35]
        # A plain dict (the fault suites index it), typed as DegradedReport.
        assert merged.degraded == {
            "answered": [0, 20, 30], "missing": [10], "timeout": 0.3,
        }

    def test_complete_answer_under_a_deadline_is_not_degraded(self, pool):
        parts = _fakes(FakeIndex([1]), FakeIndex([2]))
        merged = parts.search(QUERY, 0.1, executor=pool, timeout=30.0, degraded=True)
        assert merged.degraded is None

    @pytest.mark.parametrize("kind", ["shard", "segment"])
    def test_every_mode_fires_the_part_failpoint_and_spans(self, kind):
        parts = _fakes(FakeIndex([1]), FakeIndex(), kind=kind, labels=["x", "y"])
        site = f"{kind}.search"
        failpoints.arm(site, error=RuntimeError("never"), on_hit=10**6)
        trace = QueryTrace("test")
        token = activate_trace(trace)
        try:
            parts.search(QUERY, 0.1)
            parts.count(QUERY, 0.1)
            parts.knn(QUERY, 1)
            parts.exists(QUERY, 0.1)  # stops at the first part: it has a twin
        finally:
            deactivate_trace(token)
        assert failpoints.site_stats()[site]["hits"] == 7
        executes = [span.meta for span in trace.spans if span.name == "execute"]
        assert executes == [{kind: "x"}, {kind: "y"}] * 3 + [{kind: "x"}]
        assert sum(span.name == "merge" for span in trace.spans) == 2

    def test_knn_translates_k_and_the_exclusion_zone_per_part(self):
        small, large = FakeIndex(size=3), FakeIndex(size=10)
        parts = PartSet([Part(0, small, 0, None), Part(3, large, 1, None)], "shard")
        parts.knn(QUERY, 5, exclude=(2, 6))
        assert small.calls == [("knn", {"k": 3, "exclude": (2, 3)})]
        assert large.calls == [("knn", {"k": 5, "exclude": (0, 3)})]
        assert local_exclude((2, 6), 6, 10) is None

    def test_process_pool_without_archives(self):
        # Parts without an archive answer in the calling thread, so a
        # set of them is the serial loop: no worker is ever spawned.
        # (An unarchived *engine* refuses a process pool up front.)
        with concurrent.futures.ProcessPoolExecutor(1) as procpool:
            for kind in ("shard", "segment"):
                parts = _fakes(FakeIndex([1]), FakeIndex([2]), kind=kind)
                merged = parts.search(QUERY, 0.1, executor=procpool)
                assert merged.positions.tolist() == [1, 12]
                assert parts.count(QUERY, 0.1, executor=procpool) == 2
            assert not procpool._processes

    def test_batch_keeps_input_order_on_a_pool(self, pool):
        class Plane:
            """Hands the planner one part per query, slower the earlier
            the query."""

            length = 2

            def search(self, query, epsilon):
                raise AssertionError("the planner answers on the parts")

            def _take(self, query, executor=None):
                i = int(query[0])
                return query, _fakes(FakeIndex([i], delay=0.05 * (3 - i)))

        spec = QuerySpec(query=[np.full(2, i) for i in range(3)], mode="batch", epsilon=0.5)
        batch = plan(Plane(), spec).execute(executor=pool)
        assert [r.positions.tolist() for r in batch.results] == [[0], [1], [2]]
        assert batch.epsilon == 0.5 and batch.stats.matches == 3


# ----------------------------------------------------------------------
# Exactness over real trees, against one brute-force Chebyshev scan.
# ----------------------------------------------------------------------
LENGTH = 32
SPANS = [(0, 40), (40, 170), (170, 290), (290, 369)]  # part 0 < k
PARAMS = TSIndexParams(min_children=3, max_children=8)


@pytest.fixture(scope="module", params=["none", "global"])
def source(request) -> WindowSource:
    series = np.cumsum(np.random.default_rng(15).normal(size=400))
    return WindowSource(series, LENGTH, request.param)


@pytest.fixture(scope="module")
def trees(source):
    """Pointer and frozen parts, alternating."""
    built = [TSIndex.from_source(source.shard(a, b), params=PARAMS) for a, b in SPANS]
    return [tree.freeze() if i % 2 else tree for i, tree in enumerate(built)]


def brute(values, query, epsilon=np.inf, windows=None):
    """Every ``len(query)``-window of ``values`` (the first ``windows``
    of them) within ``epsilon``: positions and exact distances."""
    view = np.lib.stride_tricks.sliding_window_view(values, query.size)[:windows]
    distances = np.max(np.abs(view - query), axis=1)
    keep = np.flatnonzero(distances <= epsilon)
    return keep, distances[keep]


def brute_knn(values, query, k, exclude, windows=None):
    positions, distances = brute(values, query, windows=windows)
    if exclude is not None:
        keep = (positions < exclude[0]) | (positions >= exclude[1])
        positions, distances = positions[keep], distances[keep]
    order = np.lexsort((positions, distances))[:k]
    return positions[order], distances[order]


def _same(result, expected):
    positions, distances = expected
    assert np.array_equal(result.positions, positions)
    assert np.array_equal(result.distances, distances)


@pytest.mark.parametrize("m", [LENGTH, 11], ids=["m=l", "m<l"])
class TestExactness:
    """``PartSet`` direct — the last span a sweepline scan part, as the
    live delta is, and a prefix query's tail another — and through
    ``ShardedTSIndex`` over the same mixed trees, which adds validation
    and the prefix dispatch."""

    def _query(self, source, m, at=200):
        return np.array(source.values[at : at + m]) + 0.01

    def _epsilon(self, source, m):
        # About the 12-NN distance: a handful of twins in several parts.
        return float(np.sort(brute(source.values, self._query(source, m))[1])[12])

    def test_search_with_an_extra_part(self, source, trees, m):
        query, epsilon = self._query(source, m), self._epsilon(source, m)
        parts = [Part(a, tree, a, None) for (a, _), tree in zip(SPANS[:-1], trees)]
        last = SPANS[-1][0]
        parts.append(Part(last, SweeplineSearch.from_source(source.shard(*SPANS[-1])), last, None))
        if m == LENGTH:
            merged = PartSet(parts, "segment").search(query, epsilon)
            expected = brute(source.values, query, epsilon, windows=source.count)
        else:
            tail = assemble_source(source.values[source.count :], m, "none")
            parts.append(Part(source.count, SweeplineSearch.from_source(tail), "tail", None))
            merged = PartSet(parts, "segment").prefix_search(query, epsilon)
            expected = brute(source.values, query, epsilon)
        assert len(expected[0]) >= 12
        _same(merged, expected)

    def test_six_modes_through_the_sharded_plane(self, source, trees, m, pool):
        plane = ShardedTSIndex(source, [a for a, _ in SPANS], trees, PARAMS)
        query, epsilon = self._query(source, m), self._epsilon(source, m)
        windows = source.count if m == LENGTH else None
        expected = brute(source.values, query, epsilon, windows=windows)
        for executor in (None, pool):
            _same(plane.search(query, epsilon, executor=executor), expected)
            assert plane.count(query, epsilon, executor=executor) == len(expected[0])
            batch = plane.search_batch([query, query], epsilon, executor=executor)
            for member in batch.results:
                _same(member, expected)
        assert plane.exists(query, epsilon)
        assert not plane.exists(query + 1e6, epsilon)
        # k larger than part 0 (40 windows); an exclusion zone that
        # straddles the part boundary at 170 and hides the query itself.
        for k, exclude in ((60, None), (5, (150, 230)), (400, (0, 45))):
            _same(
                plane.knn(query, k, exclude=exclude),
                brute_knn(source.values, query, k, exclude, windows=windows),
            )
