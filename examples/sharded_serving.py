"""Serving twin queries: sharded build, concurrent callers, cache hits.

Demonstrates the :mod:`repro.engine` subsystem end to end — build a
sharded index through a :class:`~repro.engine.QueryEngine`, verify the
sharded answers match a monolithic TS-Index exactly, serve a repeated
workload from many threads, and inspect the cache hit rate. Every call
routes through the unified query pipeline (:mod:`repro.query`), so the
same front door also serves the paper's baselines — the final section
registers a sweepline plane and k-NN-queries it, an exact scan
(sweepline has no tree to walk). The script
asserts both equalities (positions and distances), so it doubles as an
end-to-end check.

Run:  python examples/sharded_serving.py
"""

import concurrent.futures
import time

import numpy as np

from repro import QueryEngine, TSIndex
from repro.data import synthetic


def main() -> None:
    series = synthetic.insect_like(20_000, seed=5)
    length, epsilon = 100, 0.6

    with QueryEngine(cache_capacity=256) as serving:
        # --- sharded build (parallel across shards) ---------------------
        started = time.perf_counter()
        engine = serving.build(
            "archive", series, length, normalization="global", shards=4
        )
        elapsed = time.perf_counter() - started
        print(f"built {engine} in {elapsed:.2f}s wall")
        for row in engine.shard_stats():
            print(f"  shard {row['span']:>16}  {row['windows']:5d} windows  "
                  f"{row['nodes']:4d} nodes  {row['build_seconds']:.2f}s")

        # --- sharded answers are exactly the monolithic answers ---------
        mono = TSIndex.build(series, length, normalization="global")
        query = engine.source.window(2500)
        sharded = serving.query("archive", query, epsilon)
        straight = mono.search(query, epsilon)
        assert np.array_equal(sharded.positions, straight.positions)
        assert np.array_equal(sharded.distances, straight.distances)
        print(f"\nsharded == monolithic: True ({len(sharded)} twins)")

        # --- a repeated workload from concurrent callers ----------------
        rng = np.random.default_rng(11)
        workload = [engine.source.window(int(p))
                    for p in rng.integers(0, engine.size, size=40)]
        workload *= 3  # repeats -> cache hits

        def call(values):
            return len(serving.query("archive", values, epsilon))

        started = time.perf_counter()
        with concurrent.futures.ThreadPoolExecutor(8) as callers:
            totals = list(callers.map(call, workload))
        elapsed = time.perf_counter() - started

        stats = serving.stats()
        print(f"\nserved {len(workload)} queries from 8 threads "
              f"in {elapsed*1000:.0f}ms "
              f"({len(workload)/elapsed:.0f} q/s), "
              f"{sum(totals)} total twins")
        print(f"cache: {stats.cache.hits} hits / {stats.cache.lookups} "
              f"lookups (hit rate {stats.cache.hit_rate:.0%})")

        # --- the unified pipeline serves every plane ---------------------
        # A paper baseline registers through the same front door; its
        # k-NN is the exact scan, and it agrees exactly with the tree's.
        serving.build(
            "baseline", series, length, method="sweepline",
            normalization="global",
        )
        nearest_tree = serving.knn("archive", query, 5)
        nearest_scan = serving.knn("baseline", query, 5)
        assert np.array_equal(nearest_tree.positions, nearest_scan.positions)
        assert np.array_equal(nearest_tree.distances, nearest_scan.distances)
        print("\nsweepline served through the engine: "
              "knn(scan) == knn(tree): True")
        print(f"count: "
              f"{serving.count('baseline', query, epsilon)} twins, "
              f"exists: {serving.exists('baseline', query, epsilon)}")


if __name__ == "__main__":
    main()
