"""Engine throughput: queries/sec vs shard count, cache hit-rate, and
the unified query pipeline's overhead.

The serving-layer benches (not paper experiments):

* batch throughput of :class:`repro.engine.ShardedTSIndex` across shard
  counts, with query-level fan-out on an explicit thread pool;
* shard-parallel single-query latency across shard counts;
* :class:`repro.engine.QueryEngine` end-to-end with a repeated workload,
  reporting the cache hit rate alongside throughput;
* **pipeline overhead** — the same workload answered by a direct plane
  call vs through ``QueryEngine`` (QuerySpec → plan → execute, cache
  off), measuring what the unified query plane costs per query.

Each bench records queries/sec (and hit rate where applicable) in
``benchmark.extra_info`` so the recorded JSON carries the serving
metrics, matching how the other suites record matches/recall.

Run standalone for the recorded pipeline-overhead artifact::

    python benchmarks/bench_engine_throughput.py                  # full scale
    python benchmarks/bench_engine_throughput.py --smoke          # CI-sized
    python benchmarks/bench_engine_throughput.py --output BENCH_engine.json

writes JSON (``BENCH_engine.json``) with engine-vs-direct latencies and
overhead percentages per serving configuration; CI runs ``--smoke`` and
uploads the artifact.
"""

import argparse
import concurrent.futures
import sys
import time

import numpy as np
import pytest

from repro.bench.experiments import DEFAULT_LENGTH
from repro.engine import QueryEngine, ShardedTSIndex

from conftest import default_epsilon, get_context, get_workload

DATASET = "insect"
NORMALIZATION = "global"

#: Shard counts swept by the throughput benches (1 == monolithic).
SHARD_COUNTS = (1, 2, 4, 8)

#: Workload repetitions for the cache bench (first pass misses, the
#: rest hit).
CACHE_ROUNDS = 4


@pytest.fixture(scope="module")
def pool():
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as executor:
        yield executor


def _sharded(shards: int) -> ShardedTSIndex:
    context = get_context(DATASET)
    return ShardedTSIndex.build(
        np.asarray(context.series),
        DEFAULT_LENGTH,
        normalization=NORMALIZATION,
        shards=shards,
    )


@pytest.mark.benchmark(max_time=1.0, min_rounds=2, warmup=False)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_engine_batch_throughput(benchmark, pool, shards):
    """Batch queries/sec with query-level fan-out, per shard count."""
    engine = _sharded(shards)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    queries = list(workload)
    benchmark.group = "engine-batch-throughput"

    def run():
        return engine.search_batch(queries, epsilon, executor=pool)

    batch = benchmark(run)
    benchmark.extra_info["shards"] = shards
    if benchmark.stats is not None:
        # Absent when run with --benchmark-disable (the CI smoke mode).
        seconds = benchmark.stats.stats.mean
        benchmark.extra_info["queries_per_sec"] = round(
            len(queries) / seconds, 1
        )
    benchmark.extra_info["matches"] = batch.total_matches
    assert len(batch) == len(queries)


@pytest.mark.benchmark(max_time=1.0, min_rounds=2, warmup=False)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_engine_single_query_shard_fanout(benchmark, pool, shards):
    """Single-query latency with shard-level fan-out, per shard count."""
    engine = _sharded(shards)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    query = workload.queries[0]
    benchmark.group = "engine-single-query"

    result = benchmark(lambda: engine.search(query, epsilon, executor=pool))
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["matches"] = len(result)


@pytest.mark.benchmark(max_time=2.0, min_rounds=1, warmup=False)
@pytest.mark.parametrize("use_cache", [True, False], ids=["cached", "uncached"])
def test_engine_cache_hit_rate(benchmark, use_cache):
    """Repeated workload through QueryEngine; records the hit rate."""
    context = get_context(DATASET)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    queries = list(workload)
    benchmark.group = "engine-cache"

    def run():
        with QueryEngine(cache_capacity=4 * len(queries)) as engine:
            engine.build(
                DATASET,
                np.asarray(context.series),
                DEFAULT_LENGTH,
                normalization=NORMALIZATION,
                shards=4,
            )
            total = 0
            for _ in range(CACHE_ROUNDS):
                total += engine.batch(
                    DATASET, queries, epsilon, use_cache=use_cache
                ).total_matches
            return engine.stats()

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    served = CACHE_ROUNDS * len(queries)
    benchmark.extra_info["queries_served"] = served
    benchmark.extra_info["cache_hit_rate"] = round(stats.cache.hit_rate, 3)
    if use_cache:
        # Every repeat after the first pass must hit.
        assert stats.cache.hits >= (CACHE_ROUNDS - 1) * len(queries)
    else:
        assert stats.cache.lookups == 0


@pytest.mark.benchmark(max_time=1.0, min_rounds=2, warmup=False)
@pytest.mark.parametrize("path", ["direct", "engine"])
def test_pipeline_overhead(benchmark, pool, path):
    """The unified pipeline's cost: direct plane calls vs QueryEngine
    (QuerySpec → plan → execute, cache off) on the same workload.

    Both paths hand the plane an 8-worker executor, so the measured
    difference is the pipeline itself, not the fan-out configuration.
    """
    context = get_context(DATASET)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    queries = list(workload)
    benchmark.group = "engine-pipeline-overhead"

    engine = QueryEngine(max_workers=8)
    plane = engine.build(
        DATASET, np.asarray(context.series), DEFAULT_LENGTH,
        normalization=NORMALIZATION, shards=4,
    )
    try:
        if path == "direct":
            def run():
                return sum(
                    len(plane.search(query, epsilon, executor=pool))
                    for query in queries
                )
        else:
            def run():
                return sum(
                    len(engine.query(DATASET, query, epsilon,
                                     use_cache=False))
                    for query in queries
                )

        total = benchmark(run)
        benchmark.extra_info["path"] = path
        benchmark.extra_info["matches"] = total
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Standalone pipeline-overhead artifact (BENCH_engine.json)
# ----------------------------------------------------------------------
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Measure QueryEngine pipeline overhead vs direct "
        "plane calls and record BENCH_engine.json."
    )
    parser.add_argument(
        "--windows", type=int, default=100_000,
        help="indexed window count (default: 100000)",
    )
    parser.add_argument(
        "--length", type=int, default=100, help="window length (default: 100)"
    )
    parser.add_argument(
        "--queries", type=int, default=64, help="workload size (default: 64)"
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="shard count for the sharded plane (default: 4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions; best is kept (default: 5)",
    )
    parser.add_argument(
        "--neighbors", type=int, default=10,
        help="epsilon = median k-th nearest-neighbour distance of the "
        "queries (default: 10)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", default="BENCH_engine.json",
        help="JSON results path (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI smoke runs (overrides --windows/--queries)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.windows = 4_000
        args.queries = 12
        args.shards = 2
        args.repeats = 2
    return args


def _best_of(repeats: int, run) -> float:
    """Best wall-clock seconds of ``repeats`` runs of ``run()``."""
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def _no_setup() -> None:
    """No per-round state swap: both sides run as-is."""


def main(argv=None) -> int:
    from repro._util import available_cpu_count
    from repro.bench.record import write_artifact
    from repro.bench.timing import paired_best
    from repro.core.windows import WindowSource
    from repro.data import synthetic
    from repro.indices import create_method
    from repro.query.capabilities import CAP_EXECUTOR, capabilities_of

    args = parse_args(argv)
    workers = min(32, available_cpu_count() + 4)
    rng = np.random.default_rng(args.seed)
    series = synthetic.insect_like(
        args.windows + args.length - 1, seed=args.seed
    )
    source = WindowSource(series, args.length, "global")

    print(f"building planes over {source.count} windows ...")
    sharded = ShardedTSIndex.from_source(source, shards=args.shards)
    frozen = create_method(
        "frozen", series, args.length, normalization="global"
    )
    sweepline = create_method(
        "sweepline", series, args.length, normalization="global"
    )

    positions = rng.integers(0, source.count, size=args.queries)
    queries = [
        np.array(source.window_block(int(p), int(p) + 1)[0])
        for p in positions
    ]
    kth = []
    for query, position in zip(queries[:8], positions[:8]):
        zone = (max(0, int(position) - args.length),
                int(position) + args.length)
        ranked = frozen.knn(query, args.neighbors, exclude=zone)
        if len(ranked):
            kth.append(float(ranked.distances[-1]))
    epsilon = float(np.median(kth)) if kth else 0.5
    print(f"workload: {len(queries)} queries, epsilon={epsilon:.4f}")

    # The engine and the direct baseline get identically sized pools,
    # so the measured difference is the pipeline, not the fan-out.
    engine = QueryEngine(
        cache_capacity=4 * len(queries), max_workers=workers
    )
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    engine.add("sharded", sharded)
    engine.add("frozen", frozen)
    engine.add("sweepline", sweepline)

    results = {
        "config": {
            "windows": source.count,
            "length": args.length,
            "queries": len(queries),
            "shards": args.shards,
            "epsilon": epsilon,
            "repeats": args.repeats,
            "seed": args.seed,
            "smoke": bool(args.smoke),
            "cpu_count": available_cpu_count(),
        },
    }

    def record(name, direct_seconds, engine_seconds, count):
        overhead = 100.0 * (engine_seconds - direct_seconds) / direct_seconds
        row = {
            "direct_ms_per_query": round(1e3 * direct_seconds / count, 4),
            "engine_ms_per_query": round(1e3 * engine_seconds / count, 4),
            "overhead_pct": round(overhead, 2),
        }
        results[name] = row
        print(
            f"{name}: direct {row['direct_ms_per_query']}ms/q, engine "
            f"{row['engine_ms_per_query']}ms/q "
            f"(overhead {row['overhead_pct']:+.2f}%)"
        )

    def loop_pair(name, plane, subset):
        """Direct plane loop vs engine loop (cache off) on ``subset``.

        Planes that accept ``executor=`` fan-out get the same-sized
        pool on the direct path that the engine hands them internally.
        """
        options = (
            {"executor": pool}
            if CAP_EXECUTOR in capabilities_of(plane)
            else {}
        )
        served = [
            engine.query(name, query, epsilon, use_cache=False)
            for query in subset
        ]
        direct = [plane.search(query, epsilon, **options) for query in subset]
        for one, other in zip(served, direct):
            if not (
                np.array_equal(one.positions, other.positions)
                and np.array_equal(one.distances, other.distances)
            ):
                raise AssertionError(f"{name}: engine != direct")
        direct_seconds, engine_seconds = paired_best(
            args.repeats,
            _no_setup,
            lambda: [
                plane.search(query, epsilon, **options) for query in subset
            ],
            _no_setup,
            lambda: [
                engine.query(name, query, epsilon, use_cache=False)
                for query in subset
            ],
        )
        record(f"single_{name}", direct_seconds, engine_seconds, len(subset))

    # --- single-query overhead per serving plane ----------------------
    loop_pair("sharded", sharded, queries)
    loop_pair("frozen", frozen, queries)
    # The newly-servable paper baseline: a few queries suffice (each is
    # a full scan, so pipeline cost is negligible by construction).
    loop_pair("sweepline", sweepline, queries[: max(4, len(queries) // 4)])

    # --- whole-workload overhead (engine.batch vs plane batch) --------
    # ``batched=False`` pins the direct call to the per-query fan-out
    # shape engine.batch serves (its per-query results are what the
    # cache keys), so the row measures the pipeline, not the frozen
    # shared-traversal kernel (a different serving mode).
    direct_seconds, engine_seconds = paired_best(
        args.repeats,
        _no_setup,
        lambda: sharded.search_batch(
            queries, epsilon, executor=pool, batched=False
        ),
        _no_setup,
        lambda: engine.batch("sharded", queries, epsilon, use_cache=False),
    )
    record("batch_sharded", direct_seconds, engine_seconds, len(queries))

    # --- cached serving, for context ----------------------------------
    engine.batch("sharded", queries, epsilon)  # warm
    cached_seconds = _best_of(args.repeats, lambda: engine.batch(
        "sharded", queries, epsilon
    ))
    results["cached"] = {
        "engine_ms_per_query": round(
            1e3 * cached_seconds / len(queries), 4
        ),
        "hit_rate": round(engine.stats().cache.hit_rate, 3),
    }
    print(
        f"cached: {results['cached']['engine_ms_per_query']}ms/q "
        f"(hit rate {results['cached']['hit_rate']:.0%})"
    )

    worst = max(
        row["overhead_pct"]
        for key, row in results.items()
        if isinstance(row, dict) and "overhead_pct" in row
    )
    results["max_overhead_pct"] = worst
    print(f"max pipeline overhead: {worst:+.2f}%")

    pool.shutdown()
    engine.close()
    write_artifact(args.output, results, kind="engine", seed=args.seed)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
