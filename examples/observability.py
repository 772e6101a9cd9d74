"""Observability: metrics, per-stage traces and both export formats.

`repro.obs` instruments the whole serving stack with zero external
dependencies. This example runs a mixed workload — twin queries, k-NN,
cache hits, live ingestion with sealing — against a `QueryEngine` and
a durable `LiveTwinIndex`, then:

* prints the engine's per-mode query counts and cache hit rate from
  `engine.stats()`, asserting the counts match the calls it made;
* prints a per-stage trace of the last query (prepare → plan →
  execute per shard → merge);
* dumps the metrics registry in the Prometheus text exposition format
  (what a `/metrics` endpoint would serve) and as a JSON snapshot with
  derived p50/p90/p99 latencies.

Run:  python examples/observability.py
"""

import json
import tempfile

import numpy as np

from repro import LiveTwinIndex, QueryEngine, configure_logging
from repro.obs import to_json, to_prometheus

# The library is silent by default (NullHandler); one call turns on
# structured INFO logs — watch for the seal lines below.
configure_logging("INFO")


def main() -> None:
    rng = np.random.default_rng(11)
    series = np.cumsum(rng.normal(size=20_000))

    # One engine; its metrics land in the process-default registry so
    # library-level instrumentation (planner, WAL, live plane) shares
    # the same exported scrape.
    with QueryEngine() as engine:
        engine.build(
            "history", series, length=100, shards=4, normalization="none"
        )

        # --- mixed query workload ---------------------------------
        for start in range(200, 1200, 100):
            engine.query(
                "history", series[start : start + 100], epsilon=0.5
            )
        engine.query("history", series[200:300], epsilon=0.5)  # cache hit
        engine.knn("history", series[400:500], k=5)
        engine.exists("history", series[600:700], epsilon=0.5)

        # --- live ingestion (WAL + sealing, all instrumented) ------
        with tempfile.TemporaryDirectory() as tmp:
            with LiveTwinIndex.create(
                f"{tmp}/stream",
                series[:2_000],
                length=100,
                normalization="none",
                seal_threshold=512,
            ) as live:
                engine.add("stream", live)
                for start in range(2_000, 6_000, 400):
                    engine.append(
                        "stream", series[start : start + 400]
                    )
                engine.query(
                    "stream", series[500:600], epsilon=0.5
                )

                # --- engine-level snapshot -------------------------
                stats = engine.stats().as_dict()
                print("\nengine stats:")
                print(f"  queries by mode: {stats['queries_by_mode']}")
                # 10 history twin queries, one repeat (a cache hit) and
                # one on the stream are the 12 searches.
                calls = {"search": 12, "knn": 1, "exists": 1,
                         "count": 0, "batch": 0}
                assert stats["queries_by_mode"] == calls, stats
                print(
                    "  cache hit rate: "
                    f"{stats['cache']['hit_rate']:.0%}"
                )

                # --- the last query's per-stage trace --------------
                trace = engine.traces()[-1]
                print(f"\nlast trace ({trace.mode}):")
                for span in trace.spans:
                    meta = f" {span.meta}" if span.meta else ""
                    print(
                        f"  {span.name:<10s}"
                        f"{1e3 * span.duration:8.3f} ms{meta}"
                    )

                # --- both export formats ---------------------------
                registry = engine.metrics()
                exposition = to_prometheus(registry)
                print("\nPrometheus exposition (excerpt):")
                for line in exposition.splitlines():
                    if line.startswith(
                        ("repro_engine_qps", "repro_engine_cache_hit",
                         "repro_live_ingest_lag", "repro_live_seals")
                    ):
                        print(f"  {line}")

                snapshot = json.loads(to_json(registry))
                latency = next(
                    metric
                    for metric in snapshot["metrics"]
                    if metric["name"] == "repro_engine_query_seconds"
                )
                search = next(
                    sample
                    for sample in latency["samples"]
                    if sample["labels"] == {"mode": "search"}
                )
                print(
                    f"\nJSON snapshot: search latency over "
                    f"{search['count']} queries: "
                    f"p50={1e3 * search['p50']:.3f}ms "
                    f"p99={1e3 * search['p99']:.3f}ms"
                )


if __name__ == "__main__":
    main()
