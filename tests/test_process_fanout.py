"""Process-pool fan-out: byte-identity with the thread/serial paths,
the archive-task worker protocol, and fail-fast semantics.

Process workers never receive index objects — they receive
:class:`~repro.engine.procpool.ArchiveTask` records and open the
archive by path (mmap for raw archives), so these tests gate the whole
chain: results (positions, distances, knn tie-breaks) must be
byte-identical to the serial in-memory answer. A live plane's parts are
the same on every executor, so its structural
:class:`~repro.core.stats.QueryStats` counters are too. A sharded
plane's are not: on the calling thread it walks its shards' joined
forest, on a pool every shard, so each side's counters are held to a
direct walk of its own parts.
"""

import concurrent.futures
import dataclasses
import os
import time

import numpy as np
import pytest

from repro._util import call_task, fan_out
from repro.engine import QueryEngine, ShardedTSIndex
from repro.engine.procpool import ALLOWED_CALLS, ArchiveTask, open_archive
from repro.exceptions import InvalidParameterError
from repro.faults import failpoints
from repro.core.normalization import Normalization
from repro.core.stats import QueryStats
from repro.core.windows import assemble_source
from repro.indices.sweepline import SweeplineSearch
from repro.live import LiveTwinIndex
from repro.persistence import load_index, save_index
from repro.query.parts import local_exclude
from repro.query.varlength import prefix_search_part

from conftest import shard_forest, summed_stats

LENGTH = 50


@pytest.fixture(scope="module")
def procpool():
    with concurrent.futures.ProcessPoolExecutor(2) as executor:
        yield executor


@pytest.fixture(scope="module")
def sharded_raw(tmp_path_factory, series_values):
    """A 3-shard engine restored from its raw archive (so process
    workers can reopen it by path)."""
    path = tmp_path_factory.mktemp("fanout") / "engine.raw"
    engine = ShardedTSIndex.build(
        series_values, LENGTH, normalization="per_window", shards=3
    )
    save_index(engine, path)
    return load_index(path)


def _assert_same_answer(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.distances, b.distances)


def _assert_same_result(a, b):
    _assert_same_answer(a, b)
    assert a.stats == b.stats


def _assert_sharded_paths(engine, serial, pooled, run, extra=QueryStats(), knn=False):
    """``serial`` (the calling thread) and ``pooled`` (a pool) give the
    same answer, each with its own walk's counters: ``run(index, start)``
    on the shards' forest, and summed over the shards — plus ``extra``,
    the parts both share (a prefix query's tail). A k-NN merge counts
    the matches it keeps, not the shards'."""
    _assert_same_answer(serial, pooled)
    assert serial.stats == run(shard_forest(engine), 0).stats.merge(extra)
    shards = zip(engine.spans, engine.shards)
    expected = summed_stats(run(shard, a) for (a, _), shard in shards).merge(extra)
    if knn:
        expected.matches = len(pooled)
    assert pooled.stats == expected


def _searching(query, epsilon):
    return lambda index, start: index.search(query, epsilon)


def _knn(query, k, exclude=None):
    def run(index, start):
        return index.knn(
            query, k=min(k, index.size), exclude=local_exclude(exclude, start, index.size)
        )

    return run


def _prefix(engine, query, epsilon):
    """The ``run`` and ``extra`` of a prefix query: every tree verifies
    its own prefix candidates, and the series tail is one scan part."""
    tail = assemble_source(engine.source.values[engine.size :], query.size, Normalization.NONE)
    extra = prefix_search_part(SweeplineSearch.from_source(tail), query, epsilon).stats
    return (lambda index, start: prefix_search_part(index, query, epsilon)), extra


class TestShardedProcessEquivalence:
    def test_search_matches_serial(self, sharded_raw, procpool, query_of):
        query = query_of(123)
        serial = sharded_raw.search(query, 0.5)
        pooled = sharded_raw.search(query, 0.5, executor=procpool)
        _assert_sharded_paths(sharded_raw, serial, pooled, _searching(query, 0.5))

    def test_knn_tie_breaks_match(self, sharded_raw, procpool, query_of):
        query = query_of(321)
        serial = sharded_raw.knn(query, 7, exclude=(300, 340))
        pooled = sharded_raw.knn(
            query, 7, exclude=(300, 340), executor=procpool
        )
        _assert_sharded_paths(sharded_raw, serial, pooled, _knn(query, 7, (300, 340)), knn=True)

    def test_count_matches_serial(self, sharded_raw, procpool, query_of):
        query = query_of(55)
        assert sharded_raw.count(query, 0.5) == sharded_raw.count(
            query, 0.5, executor=procpool
        )

    def test_batch_matches_serial(self, sharded_raw, procpool, query_of):
        queries = [query_of(10), query_of(900)]
        serial = sharded_raw.search_batch(queries, 0.5)
        pooled = sharded_raw.search_batch(queries, 0.5, executor=procpool)
        for query, a, b in zip(queries, serial.results, pooled.results):
            _assert_sharded_paths(sharded_raw, a, b, _searching(query, 0.5))

    def test_varlength_matches_serial(
        self, tmp_path, series_values, procpool
    ):
        # Variable-length queries are undefined under per-window
        # normalization; gate the prefix kernel under "none".
        path = tmp_path / "engine.raw"
        engine = ShardedTSIndex.build(
            series_values, LENGTH, normalization="none", shards=3
        )
        save_index(engine, path)
        loaded = load_index(path)
        query = np.array(series_values[100 : 100 + LENGTH // 2])
        serial = loaded.search_varlength(query, 0.3)
        pooled = loaded.search_varlength(query, 0.3, executor=procpool)
        _assert_sharded_paths(loaded, serial, pooled, *_prefix(loaded, query, 0.3))

    def test_unarchived_engine_rejects_process_pool(
        self, series_values, procpool, query_of
    ):
        engine = ShardedTSIndex.build(series_values, LENGTH, shards=2)
        with pytest.raises(InvalidParameterError, match="process fan-out"):
            engine.search(query_of(5), 0.5, executor=procpool)

    def test_attach_archive_enables_process_pool(
        self, tmp_path, series_values, procpool, query_of
    ):
        engine = ShardedTSIndex.build(series_values, LENGTH, shards=2)
        path = tmp_path / "engine.raw"
        save_index(engine, path)
        engine.attach_archive(path)
        query = query_of(42)
        _assert_sharded_paths(
            engine,
            engine.search(query, 0.5),
            engine.search(query, 0.5, executor=procpool),
            _searching(query, 0.5),
        )


@pytest.fixture(scope="module")
def sharded_none(tmp_path_factory, series_values):
    """A 3-shard engine over raw values (prefix queries need them),
    restored from its archive."""
    path = tmp_path_factory.mktemp("modes") / "engine.raw"
    save_index(ShardedTSIndex.build(series_values, LENGTH, normalization="none", shards=3), path)
    return load_index(path)


def _brute(values, query, epsilon=np.inf):
    """Every ``len(query)``-window of ``values`` within ``epsilon``."""
    view = np.lib.stride_tricks.sliding_window_view(values, query.size)
    distances = np.max(np.abs(view - query), axis=1)
    keep = np.flatnonzero(distances <= epsilon)
    return keep, distances[keep]


class TestSixModesOnEveryExecutor:
    """search, prefix search, count, exists, k-NN and batch on the
    calling thread (the shards' forest), a thread pool and a process
    pool (one part per shard), against a brute-force Chebyshev scan."""

    @pytest.mark.parametrize("kind", ["calling", "thread", "process"])
    def test_matches_brute_force(self, sharded_none, procpool, kind):
        from repro.query import QuerySpec, execute

        values = sharded_none.source.values
        query = np.array(values[700 : 700 + LENGTH]) + 0.01
        epsilon = float(np.sort(_brute(values, query)[1])[12])
        with concurrent.futures.ThreadPoolExecutor(2) as threads:
            executor = {"calling": None, "thread": threads, "process": procpool}[kind]

            def run(mode, probe, **fields):
                spec = QuerySpec(query=probe, mode=mode, **fields)
                return execute(sharded_none, spec, executor=executor)

            for probe in (query, query[:20]):
                expected = _brute(values, probe, epsilon)
                assert len(expected[0]) >= 12
                for found in (
                    run("search", probe, epsilon=epsilon),
                    *run("batch", [probe, probe], epsilon=epsilon).results,
                ):
                    assert np.array_equal(found.positions, expected[0])
                    assert np.array_equal(found.distances, expected[1])
                assert run("count", probe, epsilon=epsilon) == len(expected[0])
                assert run("exists", probe, epsilon=epsilon)
                assert not run("exists", probe + 1e6, epsilon=epsilon)
                positions, distances = _brute(values, probe)
                for k, (lo, hi) in ((7, (0, 0)), (5, (690, 720))):
                    keep = (positions < lo) | (positions >= hi)
                    order = np.lexsort((positions[keep], distances[keep]))[:k]
                    nearest = run("knn", probe, k=k, exclude=(lo, hi) if hi else None)
                    assert np.array_equal(nearest.positions, positions[keep][order])
                    assert np.array_equal(nearest.distances, distances[keep][order])


@pytest.fixture(scope="module", params=["npz", "raw"])
def live_durable(tmp_path_factory, series_values, request, legacy_live_copy):
    """A durable plane with sealed segments and a delta: written here
    (segment archive directories), or — ``npz`` — recovered from the
    committed directory of an older version, whose segments are single
    compressed files. Either way its parts (the sealed forest, the
    delta) name no archive, so a process pool answers them here."""
    root = tmp_path_factory.mktemp("live")
    if request.param == "npz":
        plane = LiveTwinIndex.recover(legacy_live_copy(root / "plane-npz"))
        assert all(segment.file.endswith(".npz") for segment in plane.segments)
    else:
        plane = LiveTwinIndex.create(
            root / "plane-raw",
            series_values[:2000],
            length=LENGTH,
            normalization="none",
            seal_threshold=400,
        )
        plane.append(series_values[2000:])
    assert plane.segment_count >= 4 and plane.delta_windows > 0
    yield plane
    plane.close()


def _window(plane, fraction: float) -> np.ndarray:
    """The indexed window that far through ``plane``, as a query."""
    position = int(fraction * (plane.window_count - 1))
    return np.array(plane.source.window_block(position, position + 1)[0])


class TestLiveProcessEquivalence:
    def test_search_matches_serial(self, live_durable, procpool):
        query = _window(live_durable, 0.25)
        serial = live_durable.search(query, 3.0)
        assert len(serial) > 1
        _assert_same_result(
            serial, live_durable.search(query, 3.0, executor=procpool)
        )

    def test_knn_matches_serial(self, live_durable, procpool):
        query = _window(live_durable, 0.5)
        position = int(0.5 * (live_durable.window_count - 1))
        exclude = (position - 10, position + 10)
        _assert_same_result(
            live_durable.knn(query, 5, exclude=exclude),
            live_durable.knn(query, 5, exclude=exclude, executor=procpool),
        )

    def test_count_matches_serial(self, live_durable, procpool):
        query = _window(live_durable, 0.01)
        assert live_durable.count(query, 3.0) == live_durable.count(
            query, 3.0, executor=procpool
        )

    def test_varlength_matches_serial(self, live_durable, procpool):
        query = _window(live_durable, 0.03)[: live_durable.length // 2]
        _assert_same_result(
            live_durable.search_varlength(query, 2.0),
            live_durable.search_varlength(query, 2.0, executor=procpool),
        )

    def test_batch_matches_serial(self, live_durable, procpool):
        queries = [_window(live_durable, 0.004), _window(live_durable, 0.9)]
        serial = live_durable.search_batch(queries, 3.0)
        pooled = live_durable.search_batch(queries, 3.0, executor=procpool)
        for a, b in zip(serial.results, pooled.results):
            _assert_same_result(a, b)

    def test_in_memory_plane_falls_back_to_serial(
        self, series_values, procpool, query_of
    ):
        """A plane without archives cannot ship tasks by path; the
        process pool silently degrades to the serial loop instead of
        failing."""
        plane = LiveTwinIndex(
            series_values[:1500], length=LENGTH, seal_threshold=400
        )
        try:
            query = query_of(77)
            _assert_same_result(
                plane.search(query, 0.5),
                plane.search(query, 0.5, executor=procpool),
            )
        finally:
            plane.close()


class CountingPool(concurrent.futures.ProcessPoolExecutor):
    """A process pool that counts the tasks it is handed."""

    submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture()
def counting_pool():
    with CountingPool(2) as executor:
        yield executor


class TestScanPartsBesideThePool:
    """A part without an archive (the live plane's sealed forest and
    delta, a prefix query's tail) answers in the calling thread; every
    archived part (a saved engine's shards) still goes to the workers —
    a silent fall-back to the serial loop would submit nothing."""

    def test_live_forest_and_delta_answer_beside_the_pool(
        self, live_durable, counting_pool
    ):
        query = _window(live_durable, 0.25)
        for call, probe, epsilon in (
            (live_durable.search, query, 3.0),
            (live_durable.search_varlength, query[: live_durable.length // 2], 2.0),
        ):
            counting_pool.submitted = 0
            _assert_same_result(call(probe, epsilon), call(probe, epsilon, executor=counting_pool))
            assert counting_pool.submitted == 0

    def test_sharded_prefix_query_ships_shards_and_scans_the_tail_here(
        self, tmp_path, series_values, counting_pool
    ):
        path = tmp_path / "engine.raw"
        save_index(
            ShardedTSIndex.build(series_values, LENGTH, normalization="none", shards=3), path
        )
        engine = load_index(path)
        query = np.array(series_values[-LENGTH // 2 :])  # its twin is in the tail
        serial = engine.search_varlength(query, 0.3)
        assert serial.positions[-1] >= engine.size
        pooled = engine.search_varlength(query, 0.3, executor=counting_pool)
        _assert_sharded_paths(engine, serial, pooled, *_prefix(engine, query, 0.3))
        assert counting_pool.submitted == engine.shard_count


class TestEngineProcessExecutor:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="executor"):
            QueryEngine(executor="greenlet")

    def test_process_engine_matches_thread_engine(self, series_values):
        """The thread engine serves these calls on the calling thread
        (the shards' forest), the process engine on its workers (one
        part per shard)."""
        query = np.array(series_values[300 : 300 + LENGTH])
        batch = [query, query + 0.01]
        answers = {}
        for kind in ("thread", "process"):
            with QueryEngine(executor=kind, max_workers=2) as engine:
                plane = engine.build(
                    "demo",
                    series_values,
                    LENGTH,
                    shards=3,
                    normalization="per_window",
                )
                answers[kind] = (
                    engine.query("demo", query, epsilon=0.5),
                    engine.knn("demo", query, 5),
                    engine.exists("demo", query, 0.5),
                    engine.count("demo", query, 0.5),
                    engine.batch("demo", batch, 0.5),
                )
        (rt, kt, et, ct, bt) = answers["thread"]
        (rp, kp, ep, cp, bp) = answers["process"]
        _assert_sharded_paths(plane, rt, rp, _searching(query, 0.5))
        _assert_sharded_paths(plane, kt, kp, _knn(query, 5), knn=True)
        assert et == ep and ct == cp
        for member, a, b in zip(batch, bt.results, bp.results):
            _assert_sharded_paths(plane, a, b, _searching(member, 0.5))

    def test_spool_lifecycle(self, series_values):
        engine = QueryEngine(executor="process", max_workers=2)
        try:
            index = engine.build(
                "demo", series_values, LENGTH, shards=2
            )
            assert index.archive_path is None
            query = np.array(series_values[100 : 100 + LENGTH])
            engine.query("demo", query, epsilon=0.5)
            # The in-memory plane was spooled to a raw archive so the
            # worker processes can open it by path.
            assert index.archive_path is not None
            spool = engine._spool
            assert spool is not None and os.path.isdir(spool)
        finally:
            engine.close()
        assert not os.path.exists(spool)

    def test_reports_fanout_processes_metric(self, series_values):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with QueryEngine(
            executor="process", max_workers=3, metrics=registry
        ) as engine:
            assert engine.executor_kind == "process"
            assert registry.get("repro_fanout_processes").value == 3
        registry = MetricsRegistry()
        with QueryEngine(metrics=registry) as engine:
            assert engine.executor_kind == "thread"
            assert registry.get("repro_fanout_processes").value == 0


class TestTaskProtocol:
    def test_disallowed_call_rejected(self, tmp_path):
        task = ArchiveTask(os.fspath(tmp_path), "attach_archive")
        with pytest.raises(InvalidParameterError, match="entry point"):
            task()

    def test_allowlist_covers_query_surface_only(self):
        assert "search" in ALLOWED_CALLS
        assert "append" not in ALLOWED_CALLS
        assert "attach_archive" not in ALLOWED_CALLS

    def test_open_archive_caches_by_path(self, tmp_path, series_values):
        from repro.core.tsindex import TSIndex

        path = tmp_path / "plane.raw"
        save_index(TSIndex.build(series_values[:1000], LENGTH).freeze(), path)
        first = open_archive(os.fspath(path))
        second = open_archive(os.fspath(path))
        assert first is second

    def test_task_is_picklable(self, tmp_path):
        import pickle

        task = ArchiveTask(os.fspath(tmp_path), "search", shard=1,
                           args=(None, 0.5), kwargs={"verification": "bulk"})
        clone = pickle.loads(pickle.dumps(task))
        assert clone.path == task.path and clone.shard == 1


@dataclasses.dataclass(frozen=True)
class SleepyTask:
    """A picklable stand-in for ArchiveTask that just sleeps."""

    delay: float
    value: int

    def __call__(self):
        time.sleep(self.delay)
        return self.value


class TestProcessFanOutSemantics:
    def test_closure_falls_back_to_serial(self, procpool):
        assert fan_out(procpool, lambda x: x * 2, [3, 1]) == [6, 2]

    def test_every_task_runs_to_completion(self, procpool):
        tasks = [SleepyTask(0.3, 10), SleepyTask(0.0, 20)]
        assert fan_out(procpool, call_task, tasks, part="shard") == [10, 20]

    def test_worker_failpoint_fires_in_child(self):
        """Armed failpoints are inherited by freshly forked workers:
        the ``fanout.task`` site fires inside the child process."""
        failpoints.arm("fanout.task", error=RuntimeError("injected"))
        try:
            with concurrent.futures.ProcessPoolExecutor(1) as pool:
                with pytest.raises(RuntimeError, match="injected"):
                    fan_out(
                        pool,
                        call_task,
                        [SleepyTask(0.0, 1), SleepyTask(0.0, 2)],
                        part="shard",
                    )
        finally:
            failpoints.reset()
