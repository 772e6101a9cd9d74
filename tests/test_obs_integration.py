"""End-to-end observability tests: instrumentation wired through the
engine, the live plane, the planner and the CLI, and exact under
concurrency."""

import json
import threading

import numpy as np
import pytest

from repro import IndexNotBuiltError, LiveTwinIndex, QueryEngine, cli
from repro.obs import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
    to_prometheus,
)


@pytest.fixture
def series():
    rng = np.random.default_rng(7)
    return np.cumsum(rng.normal(size=4000))


#: One call per serving entry point, by the mode it records.
SERVE = {
    "search": lambda engine, name, query: engine.query(name, query, 0.4),
    "knn": lambda engine, name, query: engine.knn(name, query, 3),
    "exists": lambda engine, name, query: engine.exists(name, query, 0.4),
    "count": lambda engine, name, query: engine.count(name, query, 0.4),
    "batch": lambda engine, name, query: engine.batch(name, [query, query], 0.4),
}


@pytest.fixture
def fresh_default_registry():
    """Swap in an isolated process-default registry for the test."""
    original = default_registry()
    replacement = MetricsRegistry("repro")
    set_default_registry(replacement)
    try:
        yield replacement
    finally:
        set_default_registry(original)


class TestEngineInstrumentation:
    def test_query_counters_and_latency(self, series):
        with QueryEngine(metrics=MetricsRegistry("engine")) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            for _ in range(3):
                engine.query(
                    "demo", series[100:150], epsilon=0.4, use_cache=False
                )
            engine.knn("demo", series[100:150], k=3)
            registry = engine.metrics()
        queries = registry.get("repro_engine_queries_total")
        assert queries.labels(mode="search").value == 3
        assert queries.labels(mode="knn").value == 1
        latency = registry.get("repro_engine_query_seconds")
        _, total, count = latency.labels(mode="search").snapshot()
        assert count == 3 and total > 0.0
        per_index = registry.get("repro_engine_index_queries_total")
        assert per_index.labels(index="demo").value == 4

    def test_cache_gauges_reflect_cache_stats(self, series):
        with QueryEngine(metrics=MetricsRegistry("engine")) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4)
            engine.query("demo", series[100:150], epsilon=0.4)
            registry = engine.metrics()
            stats = engine.cache.stats()
            assert (
                registry.get("repro_engine_cache_hits").value == stats.hits
            )
            assert (
                registry.get("repro_engine_cache_hit_rate").value
                == pytest.approx(stats.hit_rate)
            )

    def test_stats_reports_per_mode_counts(self, series):
        with QueryEngine(metrics=False) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4)
            engine.knn("demo", series[100:150], k=2)
            engine.exists("demo", series[100:150], epsilon=0.4)
            engine.count("demo", series[100:150], epsilon=0.4)
            snapshot = engine.stats().as_dict()
        by_mode = snapshot["queries_by_mode"]
        assert by_mode["search"] == 1
        assert by_mode["knn"] == 1
        assert by_mode["exists"] == 1
        assert by_mode["count"] == 1

    @pytest.mark.parametrize("mode", list(SERVE))
    def test_counters_agree_and_unknown_names_count_nowhere(self, series, mode):
        with QueryEngine(metrics=MetricsRegistry("t")) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            query = series[100:150]
            for i in range(5):
                with pytest.raises(IndexNotBuiltError):
                    SERVE[mode](engine, f"nope{i}", query)
            registry = engine.metrics()
            queries = registry.get("repro_engine_queries_total")
            per_index = registry.get("repro_engine_index_queries_total")
            latency = registry.get("repro_engine_query_seconds")
            assert engine.stats().queries == 0
            assert all(leaf.value == 0 for _, leaf in queries.samples())
            assert all(leaf.count == 0 for _, leaf in latency.samples())
            assert per_index.samples() == []  # no label child per bad name

            for _ in range(3):
                SERVE[mode](engine, "demo", query)
            stats = engine.stats()
        # Batch members count as searches; everything else as its mode.
        counted = {"search": 6} if mode == "batch" else {mode: 3}
        assert {m: n for m, n in stats.queries_by_mode.items() if n} == counted
        for label, leaf in queries.samples():
            assert leaf.value == stats.queries_by_mode[label[0]], label
        assert [(label, leaf.value) for label, leaf in per_index.samples()] == [
            (("demo",), stats.queries)
        ]
        assert latency.labels(mode=mode).count == 3

    def test_traces_record_pipeline_stages(self, series):
        with QueryEngine(metrics=False) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4, use_cache=False)
            (trace,) = engine.traces()
        names = [span.name for span in trace.spans]
        assert "plan" in names
        assert names.count("execute") >= 2 + 1  # 2 shard spans + envelope
        assert "merge" in names
        shard_spans = [
            span for span in trace.spans
            if span.meta and "shard" in span.meta
        ]
        assert {span.meta["shard"] for span in shard_spans} == {0, 1}

    def test_trace_ring_is_bounded_and_sampling_applies(self, series):
        with QueryEngine(
            metrics=False, trace_capacity=4, trace_sample=1.0
        ) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            for _ in range(10):
                engine.query(
                    "demo", series[100:150], epsilon=0.4, use_cache=False
                )
            assert len(engine.traces()) == 4
        with QueryEngine(metrics=False, trace_sample=0.0) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4, use_cache=False)
            assert engine.traces() == []

    def test_metrics_false_leaves_registry_empty(
        self, series, fresh_default_registry
    ):
        with QueryEngine(metrics=False) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4)
        engine_metrics = [
            m for m in fresh_default_registry.collect()
            if m.name.startswith("repro_engine_")
        ]
        assert engine_metrics == []

    def test_planner_counters_in_default_registry(
        self, series, fresh_default_registry
    ):
        with QueryEngine(metrics=False) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4, use_cache=False)
            engine.query(
                "demo", series[100:130], epsilon=0.4, use_cache=False
            )  # varlength (m < l)
        plans = fresh_default_registry.get("repro_planner_plans_total")
        assert sum(leaf.value for _, leaf in plans.samples()) == 2
        varlength = fresh_default_registry.get(
            "repro_planner_varlength_plans_total"
        )
        assert varlength.value == 1


class TestConcurrentInstrumentation:
    def test_exact_counts_under_thread_hammer(self, series, tmp_path):
        """Queries and live appends from many threads: every counter
        exact, histograms monotone, trace ring bounded."""
        per_thread, threads_n = 25, 4
        with QueryEngine(
            metrics=MetricsRegistry("hammer"), trace_capacity=8
        ) as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            live = LiveTwinIndex.create(
                tmp_path / "live",
                series[:200],
                length=50,
                normalization="none",
                seal_threshold=64,
            )
            engine.add("stream", live)
            errors = []

            def query_worker(offset):
                try:
                    for i in range(per_thread):
                        start = 100 + (offset * per_thread + i) % 500
                        engine.query(
                            "demo",
                            series[start : start + 50],
                            epsilon=0.4,
                            use_cache=False,
                        )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def append_worker():
                try:
                    for i in range(per_thread):
                        engine.append(
                            "stream", series[200 + i * 5 : 205 + i * 5]
                        )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            workers = [
                threading.Thread(target=query_worker, args=(n,))
                for n in range(threads_n)
            ] + [threading.Thread(target=append_worker)]
            for t in workers:
                t.start()
            for t in workers:
                t.join()
            assert errors == []

            registry = engine.metrics()
            queries = registry.get("repro_engine_queries_total")
            expected = threads_n * per_thread
            assert queries.labels(mode="search").value == expected
            latency = registry.get("repro_engine_query_seconds")
            counts, total, count = latency.labels(
                mode="search"
            ).snapshot()
            assert count == expected
            assert sum(counts) == expected
            assert total >= 0.0
            assert engine.stats().queries == expected
            assert len(engine.traces()) <= 8
            live.close()

    def test_live_counters_in_default_registry(
        self, series, tmp_path, fresh_default_registry
    ):
        with LiveTwinIndex.create(
            tmp_path / "live",
            series[:300],
            length=50,
            normalization="none",
            seal_threshold=64,
        ) as live:
            live.append(series[300:400])
            readings = fresh_default_registry.get(
                "repro_live_readings_total"
            )
            assert readings.value == 100
            lag = fresh_default_registry.get(
                "repro_live_ingest_lag_readings"
            )
            assert lag.value == live.stats()["delta_windows"] + 49
        with LiveTwinIndex.recover(tmp_path / "live") as live:
            assert (
                fresh_default_registry.get(
                    "repro_live_recoveries_total"
                ).value
                == 1
            )

    def test_seal_and_wal_metrics(
        self, series, tmp_path, fresh_default_registry
    ):
        with LiveTwinIndex.create(
            tmp_path / "live",
            None,
            length=10,
            normalization="none",
            seal_threshold=32,
        ) as live:
            for start in range(0, 400, 50):
                live.append(series[start : start + 50])
        seals = fresh_default_registry.get("repro_live_seals_total")
        assert seals.value >= 1
        seal_seconds = fresh_default_registry.get(
            "repro_live_seal_seconds"
        )
        _, _, seal_count = seal_seconds.snapshot()
        assert seal_count == seals.value
        appends = fresh_default_registry.get(
            "repro_live_wal_append_seconds"
        )
        _, _, append_count = appends.snapshot()
        assert append_count == 8


class TestWarningOnTornWAL:
    def test_recovery_warns_and_drops_tail(self, series, tmp_path, caplog):
        path = tmp_path / "live"
        with LiveTwinIndex.create(
            path, series[:100], length=20, normalization="none"
        ) as live:
            live.append(series[100:140])
        wal_path = path / "wal.log"
        blob = wal_path.read_bytes()
        wal_path.write_bytes(blob[:-4])  # tear the final record
        with caplog.at_level("WARNING", logger="repro.live.wal"):
            with LiveTwinIndex.recover(path) as live:
                assert live is not None
        assert any(
            "torn or corrupted" in record.message
            for record in caplog.records
        )


class TestCLISurface:
    def test_obs_command_accepted_by_parser(self):
        assert "obs" in cli.COMMANDS
        args = cli.build_parser().parse_args(["obs"])
        assert args.command == "obs"

    def test_obs_export_prometheus(
        self, series, fresh_default_registry, capsys
    ):
        with QueryEngine() as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4)
        assert cli.main(["obs", "export", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_queries_total counter" in out
        assert 'repro_engine_queries_total{mode="search"} 1' in out

    def test_obs_export_json(self, fresh_default_registry, capsys):
        fresh_default_registry.counter("x_total", "X.").inc(3)
        assert cli.main(["obs", "export", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["metrics"][0]["name"] == "x_total"

    def test_live_stats_json(self, series, tmp_path, capsys):
        path = str(tmp_path / "live")
        cli.main(["live", "init", "--path", path, "--length", "50"])
        capsys.readouterr()
        assert cli.main(["live", "stats", "--path", path, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["length"] == 50
        assert "segment_stats" in snapshot


class TestExportersOnLiveWorkload:
    def test_prometheus_covers_required_signals(
        self, series, tmp_path, fresh_default_registry
    ):
        """The issue's minimum catalog: QPS, per-mode latency, cache
        hit rate, ingest lag, WAL fsync latency, seal counts all expose
        through one scrape."""
        with QueryEngine() as engine:
            engine.build(
                "demo", series, length=50, shards=2, normalization="none"
            )
            engine.query("demo", series[100:150], epsilon=0.4)
            with LiveTwinIndex.create(
                tmp_path / "live",
                series[:300],
                length=50,
                normalization="none",
                fsync=True,
                seal_threshold=64,
            ) as live:
                live.append(series[300:420])
            text = to_prometheus(fresh_default_registry)
        for required in (
            "repro_engine_qps",
            "repro_engine_query_seconds_bucket",
            "repro_engine_cache_hit_rate",
            "repro_live_ingest_lag_readings",
            "repro_live_wal_fsync_seconds_bucket",
            "repro_live_seals_total",
        ):
            assert required in text, required
