"""The live delta is a scanned span of the ingest buffer, not a tree.

Five things hold that up: an append never inserts into a ``TSIndex``
(nor does a seal, a compaction or a recovery); a seal makes the segment
compaction would have made over the same windows; the scan alone — a
plane that never seals — answers all six modes like a from-scratch
``TSIndex``, k-NN ties and exclusion zones included; a source taken
from the ingest buffer never changes afterwards; and so a search scans
the delta outside the plane lock, where an append need not wait for it.
"""

import concurrent.futures
import threading

import numpy as np
import pytest

from repro.core import verification
from repro.core.bulkload import bulk_load_source
from repro.core.normalization import Normalization, std_block_size
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.live import LiveTwinIndex, merge_segments
from repro.live.ingest import IngestBuffer

LENGTH = 12
PARAMS = TSIndexParams(min_children=2, max_children=4)
REGIMES = ("none", "per_window")


def _walk(size: int, seed: int) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=size))


def _steps(size: int, seed: int) -> np.ndarray:
    """Few distinct readings: identical windows, hence exact ties."""
    return np.random.default_rng(seed).integers(0, 3, size=size).astype(float)


def _same(got, want) -> None:
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.distances, want.distances)


def _assert_six_modes(live, oracle, positions, epsilon, *, k=5, excludes=(None,)) -> None:
    queries = [np.array(oracle.source.window_block(p, p + 1)[0]) for p in positions]
    for query in queries:
        _same(live.search(query, epsilon), oracle.search(query, epsilon))
        assert live.count(query, epsilon) == oracle.count(query, epsilon)
        assert live.exists(query, epsilon) is True
        far = -4.0 * query + 1.0
        assert live.exists(far, 0.01) == oracle.exists(far, 0.01)
        for exclude in excludes:
            _same(live.knn(query, k, exclude=exclude), oracle.knn(query, k, exclude=exclude))
        if oracle.source.normalization.value == "none":
            prefix = query[: LENGTH // 2]
            _same(live.search(prefix, epsilon), oracle.search(prefix, epsilon))
    batch = live.search_batch(queries, epsilon)
    for got, want in zip(batch.results, oracle.search_batch(queries, epsilon).results):
        _same(got, want)


@pytest.mark.parametrize("normalization", REGIMES)
def test_appends_seals_and_recovery_never_insert(tmp_path, monkeypatch, normalization):
    stream = _walk(400, seed=5)
    oracle = TSIndex.build(stream, LENGTH, normalization=normalization, params=PARAMS)

    def insert(self, position):
        raise AssertionError(f"window {position} was inserted into a tree")

    monkeypatch.setattr(TSIndex, "_insert_position", insert)
    options = dict(length=LENGTH, normalization=normalization, params=PARAMS, seal_threshold=64)
    live = LiveTwinIndex.create(tmp_path / "live", stream[:50], max_segments=2, **options)
    for lo in range(50, 400, 35):
        live.append(stream[lo : lo + 35])
    live.compact()
    assert live.seal_count >= 2 and live.compaction_count >= 1
    assert live.delta_windows > 0
    positions = (3, 150, live.window_count - 1)
    _assert_six_modes(live, oracle, positions, epsilon=1.5)
    live.close()
    with LiveTwinIndex.recover(tmp_path / "live") as recovered:
        assert recovered.delta_windows == live.delta_windows
        _assert_six_modes(recovered, oracle, positions, epsilon=1.5)
    # In memory and preloaded, too: the constructor seals in steps.
    with LiveTwinIndex(stream, **options) as preloaded:
        assert preloaded.seal_count == preloaded.window_count // 64
        _assert_six_modes(preloaded, oracle, positions, epsilon=1.5)


def _assert_same_tree(segment, expected) -> None:
    got, want = segment.index.raw_arrays(), expected.raw_arrays()
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("normalization", REGIMES)
def test_a_sealed_segment_is_the_bulk_load_of_its_span(normalization):
    stream = _walk(140, seed=8)
    options = dict(length=LENGTH, normalization=normalization, params=PARAMS, max_segments=8)
    live = LiveTwinIndex(stream, seal_threshold=40, **options)
    assert [(s.start, s.stop) for s in live.segments] == [(0, 40), (40, 80), (80, 120)]
    for segment in live.segments:
        span = live.source.detach(segment.start, segment.stop)
        _assert_same_tree(segment, bulk_load_source(span, params=PARAMS))
    # ... which is what compaction builds: two seals of 20, merged,
    # are one seal of 40.
    halves = LiveTwinIndex(stream, seal_threshold=20, **options)
    merged = merge_segments(halves.segments[0], halves.segments[1], PARAMS)
    assert (merged.start, merged.stop) == (0, 40)
    _assert_same_tree(merged, live.segments[0].index)


@pytest.mark.parametrize("normalization", REGIMES)
def test_a_never_sealing_plane_is_an_exact_scan(normalization):
    stream = _steps(260, seed=13)
    live = LiveTwinIndex(
        stream[:30], LENGTH, normalization=normalization, params=PARAMS, seal_threshold=None
    )
    for lo in range(30, 260, 23):
        live.append(stream[lo : lo + 23])
    assert (live.segment_count, live.delta_windows) == (0, live.window_count)
    oracle = TSIndex.build(stream, LENGTH, normalization=normalization, params=PARAMS)
    positions = (0, 77, 160, live.window_count - 1)
    for k in (1, 4, 9, 300):
        # Ties at the k-th distance must break by position.
        query = np.array(oracle.source.window_block(77, 78)[0])
        want = oracle.knn(query, k)
        _same(live.knn(query, k), want)
    assert np.unique(oracle.knn(query, 9).distances).size < 9
    _assert_six_modes(
        live, oracle, positions, epsilon=1.0, k=7, excludes=(None, (70, 90), (0, 249), (248, 400))
    )
    stats = live.search(stream[:LENGTH], 1.0).stats
    assert stats.candidates == stats.verified == live.window_count
    assert stats.nodes_visited == stats.leaves_accessed == 0


@pytest.mark.parametrize("normalization", REGIMES)
def test_exclusion_zones_straddling_the_sealed_frontier(normalization):
    stream = _steps(220, seed=17)
    live = LiveTwinIndex(
        stream[:120], LENGTH, normalization=normalization, params=PARAMS, seal_threshold=None
    )
    assert live.seal() is True
    frontier = live.segments[-1].stop
    live.append(stream[120:])
    assert frontier == 109 and live.delta_windows == live.window_count - frontier
    oracle = TSIndex.build(stream, LENGTH, normalization=normalization, params=PARAMS)
    excludes = (
        (frontier - 5, frontier + 5),
        (frontier, frontier + 1),
        (frontier - 1, frontier),
        (0, frontier + 30),
        (frontier - 30, live.window_count),
    )
    _assert_six_modes(
        live, oracle, (frontier - 1, frontier, frontier + 40), epsilon=1.0, k=6, excludes=excludes
    )


@pytest.mark.parametrize("normalization", REGIMES)
def test_a_taken_source_never_changes(normalization):
    """What a query takes under the plane lock stays valid without it:
    ``extend`` writes only past the readings held, and a regrowth
    copies into a new array, so values, means and stds of an earlier
    source are byte-equal after any later append."""
    buffer = IngestBuffer(_walk(100, seed=21), LENGTH, Normalization.coerce(normalization))
    block = std_block_size(LENGTH)
    taken = []

    def take():
        source = buffer.source()
        arrays = (source.values, source._means, source._stds)
        taken.append((arrays, [None if a is None else a.tobytes() for a in arrays]))

    take()
    buffer.extend(_walk(50, seed=22))  # (a) fits the buffer, same std block
    take()
    assert buffer.window_count < block
    buffer.extend(_walk(2 * block, seed=23))  # (c) crosses std blocks in place
    assert buffer.window_count > block and buffer.size <= 1024
    take()
    buffer.extend(_walk(1024, seed=24))  # (b) regrows the buffer
    take()
    for arrays, snapshot in taken:
        assert [None if a is None else a.tobytes() for a in arrays] == snapshot


def test_an_append_does_not_wait_for_a_search_in_the_delta_scan(monkeypatch):
    stream = _walk(300, seed=31)
    live = LiveTwinIndex(stream, LENGTH, params=PARAMS, seal_threshold=None)
    assert (live.segment_count, live.delta_windows) == (0, live.window_count)
    entered, release = threading.Event(), threading.Event()
    kernel = verification.verify_positions

    def gated(*args, **kwargs):
        entered.set()
        release.wait(10.0)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(verification, "verify_positions", gated)
    query = stream[40 : 40 + LENGTH]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        searching = pool.submit(live.search, query, 1.0)
        assert entered.wait(10.0)
        appending = pool.submit(live.append, _walk(30, seed=32))
        try:
            added = appending.result(timeout=5.0)
        finally:
            release.set()
        found = searching.result(timeout=10.0)
    assert added == 30 and live.window_count == 330 - LENGTH + 1
    # The search answers the windows it took, before the append.
    _same(found, TSIndex.build(stream, LENGTH, normalization="none", params=PARAMS).search(query, 1.0))
    live.close()
