"""Where :class:`QueryEngine` does its work.

Threads sharing the GIL never beat a loop on shard work, so the engine
runs every call in the calling thread — where a sharded plane walks one
part, its shards' joined forest — and keeps no thread pool at all. A
caller that wants one part per shard passes its own pool to the plane.
Checked through the engine's front door, not only through ``fan_out``.
"""

from __future__ import annotations

import concurrent.futures
import threading

import numpy as np
import pytest

from repro.engine import QueryEngine
from repro.faults import failpoints
from repro.obs.trace import QueryTrace, activate_trace, deactivate_trace

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
    def test_no_pool_thread_after_every_mode(self, series, monkeypatch):
        """No ``repro-engine`` thread ever exists: constructing the
        engine, querying it in every mode and closing it start no
        thread at all."""
        started = []
        start = threading.Thread.start

        def record(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", record)
        query = series[400:400 + LENGTH]
        with QueryEngine(max_workers=SHARDS) as engine:
            engine.build("demo", series, LENGTH, shards=SHARDS, normalization="none")
            engine.query("demo", query, 0.4, use_cache=False)
            engine.query("demo", query[:30], 0.4, use_cache=False)
            engine.knn("demo", query, 5)
            engine.count("demo", query, 0.4)
            engine.exists("demo", query, 0.4)
            engine.batch(
                "demo", [series[s:s + LENGTH] for s in (10, 500, 900)], 0.4,
                use_cache=False,
            )
        assert started == []
        assert _engine_threads() == []

    def test_query_trace_holds_one_execute_span_per_shard(self, engine, series):
        """On the calling thread the plane's one part is its shards'
        forest: one ``execute`` span, labelled ``"forest"``. The plane
        called with a caller's pool runs one part, and one span, per
        shard."""
        query = series[400:400 + LENGTH]
        engine.query("demo", query, 0.4, use_cache=False)
        (calling,) = engine.traces()
        assert [span.meta["shard"] for span in _shard_spans(calling)] == ["forest"]
        pooled = QueryTrace("search")
        token = activate_trace(pooled)
        try:
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                engine.get("demo").search(query, 0.4, executor=pool)
        finally:
            deactivate_trace(token)
        spans = _shard_spans(pooled)
        assert sorted(span.meta["shard"] for span in spans) == list(range(SHARDS))

    @pytest.mark.parametrize("mode", ["prefix", "count", "knn"])
    def test_every_fanned_mode_traces_one_execute_span_per_shard(
        self, engine, series, mode
    ):
        """count and knn used to open no span below the engine's. On the
        calling thread every mode's shard part is the forest, with one
        span; a prefix query's tail is one more part, with its own."""
        query = series[400:400 + LENGTH]
        if mode == "prefix":
            engine.query("demo", query[:30], 0.4, use_cache=False)
        elif mode == "count":
            engine.count("demo", query, 0.4)
        else:
            engine.knn("demo", query, 5)
        (trace,) = engine.traces()
        labels = [span.meta["shard"] for span in _shard_spans(trace)]
        assert labels == ["forest"] + (["tail"] if mode == "prefix" else [])

    @pytest.mark.parametrize("mode", ["search", "prefix", "count", "knn"])
    def test_live_plane_traces_one_execute_span_per_segment(
        self, engine, series, mode
    ):
        """The live plane opened spans for full-length search only. One
        ``execute`` span per part: on the calling thread the sealed
        segments' forest, the delta's scan and a prefix query's tail,
        each labelled by its span start."""
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
        expected = [0, live.segments[-1].stop]
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
        assert [span.meta["shard"] for span in _shard_spans(trace)] == ["forest"] * len(queries)

    def test_fanout_task_failpoint_reaches_the_default_path(self, engine, series):
        """The calling thread's one shard part is the forest; a prefix
        query's second part is its tail."""
        query = series[400:400 + LENGTH]
        for probe, hit, label in ((query, 1, "'forest'"), (query[:30], 2, "'tail'")):
            failpoints.reset()
            failpoints.arm("fanout.task", error=RuntimeError("injected"), on_hit=hit)
            with pytest.raises(RuntimeError, match="injected") as info:
                engine.query("demo", probe, 0.4, use_cache=False)
            assert any(
                f"shard {label}" in note for note in getattr(info.value, "__notes__", [])
            )
        assert _engine_threads() == []
