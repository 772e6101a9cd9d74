"""Fan-out failure semantics across both fan-out planes: every part
runs to completion, and the first failure cancels the rest and names
its part."""

import concurrent.futures
import threading

import numpy as np
import pytest

from repro._util import fan_out
from repro.engine import ShardedTSIndex
from repro.faults import failpoints
from repro.live import LiveTwinIndex


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
        assert fan_out(pool, lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_every_part_runs_to_completion(self, pool):
        def slow_first(x):
            if x == 0:
                threading.Event().wait(0.2)
            return x

        assert fan_out(pool, slow_first, [0, 1, 2]) == [0, 1, 2]

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

    @pytest.mark.parametrize("mode", ["count", "knn", "prefix"])
    def test_every_mode_fires_shard_search_and_names_the_shard(
        self, sharded, mode
    ):
        """count / knn / prefix search used to skip the failpoint and
        report failures as "part 1". On a pool every shard is a part, so
        the second hit is shard 1 (one worker keeps the hits in shard
        order); on the calling thread the one shard part is the forest."""
        query = np.array(sharded.source.window_block(100, 101)[0])

        def run(executor):
            if mode == "count":
                sharded.count(query, 0.3, executor=executor)
            elif mode == "knn":
                sharded.knn(query, 3, executor=executor)
            else:
                sharded.search(query[:20], 0.3, executor=executor)

        with concurrent.futures.ThreadPoolExecutor(1) as serial:
            for executor, hit, label in ((serial, 2, "1"), (None, 1, "'forest'")):
                failpoints.reset()
                failpoints.arm("shard.search", error="io", on_hit=hit)
                with pytest.raises(OSError) as info:
                    run(executor)
                assert any(
                    f"shard {label}" in note
                    for note in getattr(info.value, "__notes__", [])
                )

    def test_exists_fires_shard_search(self, sharded):
        failpoints.arm("shard.search", error="io")
        query = np.array(sharded.source.window_block(100, 101)[0])
        with pytest.raises(OSError):
            sharded.exists(query, 0.3)

    def test_a_pooled_search_waits_for_every_shard(self, sharded, pool):
        """No part is given up on: a slow shard is waited for, and the
        pooled answer is the calling thread's."""
        query = np.array(sharded.source.window_block(100, 101)[0])
        slow = sharded._shards[1]

        class SlowShard:
            def search(self, *args, **kwargs):
                threading.Event().wait(0.2)
                return slow.search(*args, **kwargs)

        original = sharded._shards
        sharded._shards = [original[0], SlowShard()]
        try:
            result = sharded.search(query, 0.3, executor=pool)
        finally:
            sharded._shards = original
        full = sharded.search(query, 0.3)
        assert np.array_equal(result.positions, full.positions)
        assert np.array_equal(result.distances, full.distances)


class TestLivePlane:
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
