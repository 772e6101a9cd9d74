"""Where :class:`QueryEngine` does its work.

Threads sharing the GIL never beat a loop on shard work, so the engine
runs every call in the calling thread and keeps its pool for the one
thing a loop cannot do — abandon a slow shard at a deadline. Checked
through the engine's front door, not only through ``fan_out``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import QueryEngine
from repro.exceptions import ShardTimeoutError
from repro.faults import failpoints

LENGTH = 50
SHARDS = 3


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture(scope="module")
def series() -> np.ndarray:
    return np.cumsum(np.random.default_rng(21).normal(size=2500))


@pytest.fixture
def engine(series):
    with QueryEngine(max_workers=SHARDS) as served:
        served.build("demo", series, LENGTH, shards=SHARDS, normalization="none")
        yield served


def _engine_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-engine")
    ]


def _shard_spans(trace) -> list:
    return [
        span for span in trace.spans
        if span.name == "execute" and span.meta and "shard" in span.meta
    ]


class TestCallingThread:
    def test_no_pool_thread_after_every_mode(self, engine, series):
        query = series[400:400 + LENGTH]
        engine.query("demo", query, 0.4, use_cache=False)
        engine.query("demo", query[:30], 0.4, use_cache=False)
        engine.knn("demo", query, 5)
        engine.count("demo", query, 0.4)
        engine.exists("demo", query, 0.4)
        engine.batch(
            "demo", [series[s:s + LENGTH] for s in (10, 500, 900)], 0.4,
            use_cache=False,
        )
        assert _engine_threads() == []

    def test_query_trace_holds_one_execute_span_per_shard(self, engine, series):
        engine.query("demo", series[400:400 + LENGTH], 0.4, use_cache=False)
        (trace,) = engine.traces()
        spans = _shard_spans(trace)
        assert sorted(span.meta["shard"] for span in spans) == list(range(SHARDS))

    @pytest.mark.parametrize("mode", ["prefix", "count", "knn"])
    def test_every_fanned_mode_traces_one_execute_span_per_shard(
        self, engine, series, mode
    ):
        """count and knn used to open no span below the engine's; a
        prefix query's tail is one more part, with a span of its own."""
        query = series[400:400 + LENGTH]
        if mode == "prefix":
            engine.query("demo", query[:30], 0.4, use_cache=False)
        elif mode == "count":
            engine.count("demo", query, 0.4)
        else:
            engine.knn("demo", query, 5)
        (trace,) = engine.traces()
        labels = [span.meta["shard"] for span in _shard_spans(trace)]
        assert labels == list(range(SHARDS)) + (["tail"] if mode == "prefix" else [])

    @pytest.mark.parametrize("mode", ["search", "prefix", "count", "knn"])
    def test_live_plane_traces_one_execute_span_per_segment(
        self, engine, series, mode
    ):
        """The live plane opened spans for full-length search only. The
        delta's scan (and a prefix query's tail) is a part like a
        segment, labelled by its span start too."""
        from repro.live import LiveTwinIndex

        live = LiveTwinIndex(series[:1200], length=LENGTH, seal_threshold=300)
        engine.add("live", live)
        query = series[400:400 + LENGTH]
        if mode == "search":
            engine.query("live", query, 0.4, use_cache=False)
        elif mode == "prefix":
            engine.query("live", query[:30], 0.4, use_cache=False)
        elif mode == "count":
            engine.count("live", query, 0.4)
        else:
            engine.knn("live", query, 5)
        (trace,) = engine.traces()
        segments = [
            span.meta["segment"] for span in trace.spans
            if span.name == "execute" and span.meta and "segment" in span.meta
        ]
        assert len(live.segments) >= 3 and live.delta_windows > 0
        expected = [segment.start for segment in live.segments] + [live.segments[-1].stop]
        if mode == "prefix":
            expected.append(live.window_count)
        assert sorted(segments) == expected
        assert _engine_threads() == []
        live.close()

    def test_batch_members_trace_their_shards(self, engine, series):
        queries = [series[s:s + LENGTH] for s in (10, 500)]
        engine.batch("demo", queries, 0.4, use_cache=False)
        (trace,) = engine.traces()
        assert trace.mode == "batch"
        assert len(_shard_spans(trace)) == len(queries) * SHARDS

    def test_fanout_task_failpoint_reaches_the_default_path(self, engine, series):
        failpoints.arm("fanout.task", error=RuntimeError("injected"), on_hit=2)
        with pytest.raises(RuntimeError, match="injected") as info:
            engine.query("demo", series[400:400 + LENGTH], 0.4, use_cache=False)
        assert any(
            "shard 1" in note for note in getattr(info.value, "__notes__", [])
        )
        assert _engine_threads() == []


class _SlowShard:
    """Answers like ``shard``, ``delay`` seconds late."""

    def __init__(self, shard, delay: float):
        self._shard, self._delay = shard, delay

    def search(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._shard.search(*args, **kwargs)


class TestDeadline:
    def test_timeout_runs_on_the_pool(self, engine, series):
        query = series[400:400 + LENGTH]
        plain = engine.query("demo", query, 0.4, use_cache=False)
        bounded = engine.query("demo", query, 0.4, use_cache=False, timeout=30.0)
        assert _engine_threads() != []
        assert np.array_equal(plain.positions, bounded.positions)
        assert np.array_equal(plain.distances, bounded.distances)
        assert bounded.degraded is None

    def test_slow_shard_is_named_or_served_around(self, engine, series):
        index = engine.get("demo")
        query = series[400:400 + LENGTH]
        full = engine.query("demo", query, 0.4, use_cache=False)
        original = index._shards
        index._shards = [original[0], _SlowShard(original[1], 3.0), original[2]]
        try:
            with pytest.raises(ShardTimeoutError) as info:
                engine.query("demo", query, 0.4, use_cache=False, timeout=0.3)
            assert list(info.value.missing) == [1]
            assert list(info.value.answered) == [0, 2]
            partial = engine.query(
                "demo", query, 0.4, timeout=0.3, degraded=True
            )
        finally:
            index._shards = original
        assert partial.degraded["missing"] == [1]
        assert partial.degraded["answered"] == [0, 2]
        # Exact over the shards that answered.
        (_, _), (lo, hi), (_, _) = index.spans
        keep = (full.positions < lo) | (full.positions >= hi)
        assert np.array_equal(partial.positions, full.positions[keep])
        assert np.array_equal(partial.distances, full.distances[keep])
