"""Fan-out failure semantics: cancellation, attribution, per-part
deadlines, and the opt-in degraded mode across both fan-out planes."""

import concurrent.futures
import threading
import time

import numpy as np
import pytest

from repro._util import FanOutResult, fan_out, map_with_executor
from repro.core.tsindex import TSIndex
from repro.engine import QueryEngine, ShardedTSIndex
from repro.exceptions import ShardTimeoutError
from repro.faults import failpoints
from repro.live import LiveTwinIndex
from repro.query import QuerySpec, plan


@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture(scope="module")
def pool():
    with concurrent.futures.ThreadPoolExecutor(4) as executor:
        yield executor


class TestFanOut:
    def test_results_in_input_order(self, pool):
        out = fan_out(pool, lambda x: x * 2, [3, 1, 2])
        assert out.results == [6, 2, 4]
        assert out.answered == (0, 1, 2)
        assert not out.degraded

    def test_serial_path_annotates_failures(self):
        def boom(x):
            raise ValueError("bad item")

        with pytest.raises(ValueError) as info:
            fan_out(None, boom, [7], labels=["seg-7"], part="segment")
        assert any(
            "segment 'seg-7'" in note
            for note in getattr(info.value, "__notes__", [])
        )

    def test_first_failure_cancels_pending(self, pool):
        release = threading.Event()
        started = []

        def worker(x):
            started.append(x)
            if x == 0:
                raise RuntimeError("first fails")
            release.wait(5.0)
            return x

        # A 1-thread pool: item 0 fails while 1 and 2 are still queued;
        # both must be cancelled, not leaked.
        with concurrent.futures.ThreadPoolExecutor(1) as narrow:
            with pytest.raises(RuntimeError) as info:
                fan_out(narrow, worker, [0, 1, 2], part="shard")
            release.set()
        assert started == [0]
        assert any(
            "shard 0" in note
            for note in getattr(info.value, "__notes__", [])
        )

    def test_timeout_fail_fast_names_parts(self, pool):
        def maybe_slow(x):
            if x == "slow":
                time.sleep(5.0)
            return x

        with pytest.raises(ShardTimeoutError) as info:
            fan_out(
                pool, maybe_slow, ["fast", "slow"],
                labels=["fast", "slow"], part="shard", timeout=0.2,
            )
        assert tuple(info.value.answered) == ("fast",)
        assert tuple(info.value.missing) == ("slow",)
        assert isinstance(info.value, TimeoutError)

    def test_degraded_returns_partial_with_holes(self, pool):
        def maybe_slow(x):
            if x == 1:
                time.sleep(5.0)
            return x * 10

        out = fan_out(
            pool, maybe_slow, [0, 1, 2], part="shard",
            timeout=0.3, degraded=True,
        )
        assert isinstance(out, FanOutResult)
        assert out.degraded
        assert out.results[0] == 0 and out.results[2] == 20
        assert out.results[1] is None
        assert 1 in out.missing

    def test_map_with_executor_unwraps_results(self, pool):
        assert map_with_executor(pool, lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_fanout_task_failpoint_fires_in_workers(self, pool):
        failpoints.arm("fanout.task", error=RuntimeError("injected"))
        with pytest.raises(RuntimeError, match="injected"):
            fan_out(pool, lambda x: x, [1, 2], part="shard")


@pytest.fixture(scope="module")
def sharded():
    series = np.cumsum(np.random.default_rng(5).normal(size=2000))
    return ShardedTSIndex.build(series, 50, shards=2, normalization="none")


class TestShardedPlane:
    def test_shard_search_failpoint_attributed(self, sharded, pool):
        failpoints.arm("shard.search", error="io", on_hit=2)
        query = np.array(sharded.source.window_block(100, 101)[0])
        with pytest.raises(OSError) as info:
            sharded.search(query, 0.3, executor=pool)
        assert any(
            "shard" in note
            for note in getattr(info.value, "__notes__", [])
        )

    def test_degraded_search_reports_missing_shards(self, sharded, pool):
        query = np.array(sharded.source.window_block(100, 101)[0])
        slow = sharded._shards[1]

        class SlowShard:
            def search(self, *args, **kwargs):
                time.sleep(5.0)
                return slow.search(*args, **kwargs)

        original = sharded._shards
        sharded._shards = [original[0], SlowShard()]
        try:
            with pytest.raises(ShardTimeoutError):
                sharded.search(query, 0.3, executor=pool, timeout=0.3)
            result = sharded.search(
                query, 0.3, executor=pool, timeout=0.3, degraded=True
            )
        finally:
            sharded._shards = original
        assert result.degraded is not None
        assert result.degraded["missing"] == [1]
        assert result.degraded["answered"] == [0]
        # The degraded answer is exact over the answering shard.
        full = sharded.search(query, 0.3)
        span = sharded._starts[1]
        want = full.positions[full.positions < span]
        assert np.array_equal(result.positions, want)

    @pytest.mark.parametrize("mode", ["count", "knn", "prefix"])
    def test_every_mode_fires_shard_search_and_names_the_shard(
        self, sharded, mode
    ):
        """count / knn / prefix search used to skip the failpoint and
        report failures as "part 1"."""
        failpoints.arm("shard.search", error="io", on_hit=2)
        query = np.array(sharded.source.window_block(100, 101)[0])
        with pytest.raises(OSError) as info:
            if mode == "count":
                sharded.count(query, 0.3)
            elif mode == "knn":
                sharded.knn(query, 3)
            else:
                sharded.search(query[:20], 0.3)
        assert any(
            "shard 1" in note
            for note in getattr(info.value, "__notes__", [])
        )

    def test_exists_fires_shard_search(self, sharded):
        failpoints.arm("shard.search", error="io")
        query = np.array(sharded.source.window_block(100, 101)[0])
        with pytest.raises(OSError):
            sharded.exists(query, 0.3)

    def test_complete_search_has_no_degraded_record(self, sharded, pool):
        query = np.array(sharded.source.window_block(100, 101)[0])
        result = sharded.search(query, 0.3, executor=pool, timeout=30.0)
        assert result.degraded is None


class TestLivePlane:
    def test_live_declares_capability_and_serves_timeout(self, tmp_path, pool):
        series = np.cumsum(np.random.default_rng(6).normal(size=600))
        live = LiveTwinIndex(series, length=32, seal_threshold=128)
        query = np.array(series[50:82])
        spec = QuerySpec(query=query, mode="search", epsilon=0.3, options={"timeout": 30.0})
        assert plan(live, spec).options["timeout"] == 30.0
        result = live.search(query, 0.3, executor=pool, timeout=30.0)
        assert result.degraded is None
        want = live.search(query, 0.3)
        assert np.array_equal(result.positions, want.positions)
        live.close()

    def test_segment_search_failpoint_attributed(self, tmp_path, pool):
        series = np.cumsum(np.random.default_rng(7).normal(size=600))
        live = LiveTwinIndex(series, length=32, seal_threshold=128)
        assert len(live.segments) >= 2
        failpoints.arm("segment.search", error="io")
        with pytest.raises(OSError) as info:
            live.search(series[50:82], 0.3, executor=pool)
        assert any(
            "segment" in note
            for note in getattr(info.value, "__notes__", [])
        )
        live.close()


    @pytest.mark.parametrize("mode", ["count", "knn", "prefix", "exists"])
    def test_every_mode_fires_segment_search_and_names_the_segment(self, mode):
        """Only full-length ``search`` used to reach the failpoint; the
        other modes fired nothing and attributed nothing. The sealed
        segments are one part, their forest, on every executor, so the
        second hit is the delta's scan, named by its start (one worker
        keeps the hits in part order)."""
        series = np.cumsum(np.random.default_rng(7).normal(size=600))
        live = LiveTwinIndex(series, length=32, seal_threshold=128)
        assert len(live.segments) >= 2 and live.delta_windows > 0
        query = series[50:82] + 1e3  # no twin: exists must probe on
        delta = live.segments[-1].stop
        with concurrent.futures.ThreadPoolExecutor(1) as serial:
            # exists takes no executor
            for executor in (None,) if mode == "exists" else (None, serial):
                failpoints.arm("segment.search", error="io", on_hit=2)
                with pytest.raises(OSError) as info:
                    if mode == "count":
                        live.count(query, 0.3, executor=executor)
                    elif mode == "knn":
                        live.knn(query, 3, executor=executor)
                    elif mode == "exists":
                        live.exists(query, 0.3)
                    else:
                        live.search(query[:20], 0.3, executor=executor)
                if mode != "exists":  # exists probes in the caller, outside fan_out
                    assert any(
                        f"segment {delta}" in note
                        for note in getattr(info.value, "__notes__", [])
                    )
        live.close()


class TestPlannerFiltering:
    def test_non_fanout_plane_drops_timeout_options(self):
        series = np.cumsum(np.random.default_rng(8).normal(size=500))
        index = TSIndex.build(series, 50, normalization="none")
        spec = QuerySpec(
            query=series[100:150], mode="search", epsilon=0.3,
            options={"timeout": 0.5, "degraded": True},
        )
        planned = plan(index, spec)
        assert "timeout" not in planned.options
        assert "degraded" not in planned.options
        planned.execute()  # must not crash on unexpected kwargs

    def test_fanout_plane_keeps_timeout_options(self, sharded):
        query = np.array(sharded.source.window_block(100, 101)[0])
        spec = QuerySpec(
            query=query, mode="search", epsilon=0.3,
            options={"timeout": 30.0, "degraded": True},
        )
        planned = plan(sharded, spec)
        assert planned.options["timeout"] == 30.0
        assert planned.options["degraded"] is True
        result = planned.execute()
        assert result.degraded is None  # nothing actually timed out

    def test_varlength_path_drops_timeout_options(self, sharded):
        short = np.array(sharded.source.window_block(100, 101)[0][:20])
        spec = QuerySpec(
            query=short, mode="search", epsilon=0.3,
            options={"timeout": 30.0, "degraded": True},
        )
        planned = plan(sharded, spec)
        assert planned.varlength
        assert "timeout" not in planned.options
        planned.execute()


class TestEngineWiring:
    def test_query_accepts_timeout(self, sharded):
        query = np.array(sharded.source.window_block(100, 101)[0])
        with QueryEngine() as engine:
            engine.add("plane", sharded)
            result = engine.query("plane", query, 0.3, timeout=30.0)
            assert result.degraded is None

    def test_degraded_queries_never_cached(self, sharded):
        query = np.array(sharded.source.window_block(100, 101)[0])
        with QueryEngine() as engine:
            engine.add("plane", sharded)
            first = engine.query("plane", query, 0.3, degraded=True,
                                 timeout=30.0)
            second = engine.query("plane", query, 0.3, degraded=True,
                                  timeout=30.0)
            assert engine.cache.stats().size == 0
            assert first is not second
            # The same query without degraded mode is cached as usual.
            third = engine.query("plane", query, 0.3)
            fourth = engine.query("plane", query, 0.3)
            assert fourth is third
