"""Engine integration for live planes: registration, cache staleness,
serving, CLI.

The load-bearing regression here is cache staleness: a result cached
before an append must never be served after it. The engine keys cache
entries on ``(name, generation)`` where a live plane's generation
incorporates its mutation counter, so invalidation is scoped to the
appended index — other indexes' entries stay warm.
"""

import numpy as np
import pytest

from repro.core.tsindex import TSIndexParams
from repro.data import synthetic
from repro.engine import QueryEngine
from repro.exceptions import InvalidParameterError
from repro.live import LiveTwinIndex

from conftest import index_row

PARAMS = TSIndexParams(min_children=4, max_children=10)


def make_live(seed=0, n=400, length=32):
    return LiveTwinIndex(
        synthetic.random_walk(n, seed=seed), length,
        params=PARAMS, seal_threshold=64, max_segments=2,
    )


@pytest.fixture()
def engine():
    with QueryEngine(metrics=False) as engine:
        yield engine


class TestRegistry:
    def test_add_live_and_get(self, engine):
        live = make_live()
        engine.add("stream", live)
        assert engine.get("stream") is live
        assert "stream" in engine.names()
        with pytest.raises(InvalidParameterError, match="already exists"):
            engine.add("stream", make_live(seed=1))

    def test_add_accepts_live(self, engine):
        # The engine takes any SubsequenceIndex; a live plane registered
        # through add() gets its mutation counter folded into the cache
        # generation.
        live = make_live()
        engine.add("stream", live)
        assert engine.get("stream") is live
        _, before = engine._resolve("stream")
        live.append(np.ones(4))
        _, after = engine._resolve("stream")
        assert before != after

    def test_generation_tracks_mutations(self, engine):
        live = make_live()
        engine.add("stream", live)
        _, first = engine._resolve("stream")
        _, again = engine._resolve("stream")
        assert first == again
        live.append([1.0, 2.0])
        _, moved = engine._resolve("stream")
        assert moved != first

    def test_stats_live_row(self, engine):
        engine.add("stream", make_live())
        row = index_row(engine, "stream")
        assert row["kind"] == "live"
        assert row["name"] == "stream"
        assert row["segments"] >= 1
        assert row["windows"] == engine.get("stream").window_count
        assert row["built_at"] > 0

    def test_stats_sharded_row_has_kind(self, engine):
        engine.build(
            "static",
            synthetic.random_walk(2000, seed=3),
            50,
            shards=2,
            normalization="none",
        )
        assert index_row(engine, "static")["kind"] == "sharded"

    def test_save_live_rejected(self, engine, tmp_path):
        engine.add("stream", make_live())
        with pytest.raises(InvalidParameterError, match="write-ahead"):
            engine.save("stream", tmp_path / "x.rts")

    def test_evict_live(self, engine):
        live = make_live()
        engine.add("stream", live)
        assert engine.evict("stream") is live
        assert "stream" not in engine.names()


class TestEngineServing:
    def test_append_never_serves_stale_cached_result(self):
        # The satellite regression: a cached pre-append result must be
        # unreachable after the append.
        live = make_live(seed=4)
        with QueryEngine(cache_capacity=32) as engine:
            engine.add("stream", live)
            query = np.array(live.values[10:42])
            first = engine.query("stream", query, epsilon=0.1)
            assert engine.query("stream", query, epsilon=0.1) is first
            engine.append("stream", query)  # plant an exact twin
            fresh = engine.query("stream", query, epsilon=0.1)
            assert fresh is not first
            assert len(fresh) == len(first) + 1
            # and the fresh result is itself cached under the new key
            assert engine.query("stream", query, epsilon=0.1) is fresh

    def test_append_does_not_invalidate_other_indexes(self):
        with QueryEngine(cache_capacity=32) as engine:
            series = synthetic.random_walk(2000, seed=5)
            engine.build(
                "static", series, 50, shards=2, normalization="none"
            )
            engine.add("stream", make_live(seed=6))
            static_query = np.array(series[100:150])
            cached = engine.query("static", static_query, epsilon=0.2)
            engine.append("stream", [1.0, 2.0, 3.0])
            assert engine.query("static", static_query, epsilon=0.2) is cached

    def test_append_on_non_appendable_rejected(self):
        with QueryEngine() as engine:
            engine.build(
                "static",
                synthetic.random_walk(2000, seed=7),
                50,
                shards=2,
                normalization="none",
            )
            with pytest.raises(InvalidParameterError, match="not appendable"):
                engine.append("static", [1.0])

    def test_knn_and_batch_through_engine(self):
        live = make_live(seed=8)
        with QueryEngine() as engine:
            engine.add("stream", live)
            query = np.array(live.values[60:92])
            ranked = engine.knn("stream", query, 4)
            assert ranked.distances[0] == 0.0
            batch = engine.batch("stream", [query, query], epsilon=0.3)
            assert len(batch) == 2
            assert np.array_equal(
                batch[0].positions, batch[1].positions
            )

    def test_live_rows_in_engine_stats(self):
        with QueryEngine() as engine:
            engine.add("stream", make_live(seed=9))
            engine.query(
                "stream", np.zeros(32), epsilon=0.5, use_cache=False
            )
            stats = engine.stats()
            rows = {row["name"]: row for row in stats.indexes}
            assert rows["stream"]["kind"] == "live"
            assert stats.queries == 1

    def test_add_live_overwrite_clears_cache(self):
        with QueryEngine() as engine:
            live = make_live(seed=10)
            engine.add("stream", live)
            query = np.array(live.values[10:42])
            engine.query("stream", query, epsilon=0.1)
            engine.add("stream", make_live(seed=11), overwrite=True)
            assert len(engine.cache) == 0

    def test_concurrent_ingest_and_queries(self):
        # Smoke the thread-safety contract: appends from one thread,
        # queries from others; nothing crashes and every answer is
        # internally consistent (positions sorted, distances <= eps).
        import threading

        live = make_live(seed=12)
        stop = threading.Event()
        errors = []

        def feeder():
            rng = np.random.default_rng(13)
            while not stop.is_set():
                live.append(rng.normal(size=5))

        def prober():
            rng = np.random.default_rng(14)
            try:
                for _ in range(60):
                    query = rng.normal(size=32)
                    result = live.search(query, 1.0)
                    assert np.all(np.diff(result.positions) > 0)
                    assert np.all(result.distances <= 1.0)
                    live.exists(query, 0.5)
                    live.knn(query, 3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        feed = threading.Thread(target=feeder)
        probes = [threading.Thread(target=prober) for _ in range(2)]
        feed.start()
        for thread in probes:
            thread.start()
        for thread in probes:
            thread.join()
        stop.set()
        feed.join()
        live.close()
        assert not errors


class TestCLI:
    def test_live_cli_lifecycle(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "plane")
        assert main(
            [
                "live", "init", "--path", path, "--length", "16",
                "--seal-threshold", "32",
            ]
        ) == 0
        assert main(
            ["live", "append", "--path", path, "--values",
             ",".join(str(float(v)) for v in range(40))]
        ) == 0
        assert main(
            ["live", "append", "--path", path, "--values",
             ",".join(str(float(v)) for v in range(40))]
        ) == 0
        assert main(
            ["live", "query", "--path", path, "--position", "3",
             "--epsilon", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "twins within epsilon" in out
        assert main(["live", "query", "--path", path, "--position", "3",
                     "--knn", "2"]) == 0
        assert main(
            ["live", "query", "--path", path, "--position", "3",
             "--epsilon", "0.0", "--query-length", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "twins within epsilon" in out
        assert main(["live", "stats", "--path", path]) == 0
        out = capsys.readouterr().out
        assert "LiveTwinIndex" in out

    def test_live_cli_must_be_first_argument(self, monkeypatch):
        import sys

        from repro.cli import main

        monkeypatch.setattr(sys, "argv", ["repro-twin", "live"])
        with pytest.raises(SystemExit, match="first argument"):
            # argv[1] is "live" but main() receives a list where it is
            # not first — the parser's guidance must fire.
            main(["--seed", "7", "live"])

    def test_live_cli_query_validation(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "plane")
        main(["live", "init", "--path", path, "--length", "8"])
        main(["live", "append", "--path", path, "--values",
              ",".join(["1.0"] * 20)])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["live", "query", "--path", path, "--position", "0"])
