"""Multi-core scaling of shard fan-out: thread pool vs process pool.

Measures one fixed twin-search workload against a raw-archived sharded
engine while sweeping the fan-out worker count over both executor
kinds:

* **thread** — the in-process pool (shares the GIL; concurrency comes
  from NumPy kernels releasing it);
* **process** — :class:`concurrent.futures.ProcessPoolExecutor`
  workers that reopen the archive by path and mmap its arrays (no GIL,
  no per-query data transfer; the only per-call traffic is the
  prepared query and the result).

The baseline is the **calling thread**: no pool, the engine's default,
which walks the shards joined into one tree (their forest). Every
(executor, workers) point is gated before it is timed: positions and
distances byte-identical to the calling thread's, and structural query
stats equal to a direct per-shard walk, summed — a pool walks the
shards, not the forest. Every pool is open before timing starts, and
each repetition times every arm (the calling thread included) once, in
an order rotated by one arm per repetition, keeping each arm's best:
drift of the machine, and the state a pool leaves the process in, land
on all arms alike instead of on whichever arm ran last. Results are written as JSON
(``BENCH_scaling.json`` by default; git-ignored, never committed) in
the ``repro.bench/1`` envelope. This is the one runner kept outside
twinbench: no twinbench workload yet sits on the ``executor="process"``
side of the thread-vs-process choice. CI runs ``--smoke`` on both
executors as an equality gate and keeps no artifact.

Run::

    python benchmarks/bench_scaling.py             # full: 100k windows
    python benchmarks/bench_scaling.py --smoke     # CI-sized
    python benchmarks/bench_scaling.py --workers 1 2 4 8
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro._util import available_cpu_count
from repro.bench.record import write_artifact
from repro.core.stats import QueryStats
from repro.data import synthetic
from repro.engine import ShardedTSIndex
from repro.persistence import load_index, save_index


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark thread vs process shard fan-out scaling."
    )
    parser.add_argument(
        "--windows", type=int, default=100_000,
        help="indexed window count (default: 100000)",
    )
    parser.add_argument(
        "--length", type=int, default=100, help="window length (default: 100)"
    )
    parser.add_argument(
        "--queries", type=int, default=48,
        help="workload size (default: 48)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: max of 4 and the largest worker "
        "count, so every worker has a shard to chew on)",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=None,
        help="worker counts to sweep (default: 1 2 4 ... up to the "
        "CPUs this process may run on)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions, each running every arm once in a "
        "rotated order; each arm's best is kept (default: 3)",
    )
    parser.add_argument(
        "--neighbors", type=int, default=10,
        help="epsilon = median k-th nearest-neighbour distance of the "
        "queries (default: 10)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output", default="BENCH_scaling.json",
        help="JSON results path (default: BENCH_scaling.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for CI smoke runs (overrides --windows/--queries)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.windows = 4_000
        args.queries = 8
        args.repeats = 1
        if args.workers is None:
            args.workers = [1, 2]
    if args.workers is None:
        cpus = available_cpu_count()
        args.workers = sorted(
            {1, 2, 4, 8, 16, cpus} & set(range(1, cpus + 1))
        ) or [1]
    if args.shards is None:
        args.shards = max(4, max(args.workers))
    return args


def _pick_epsilon(engine, queries, positions, length, neighbors: int) -> float:
    kth = []
    for query, position in zip(queries[:8], positions[:8]):
        zone = (max(0, int(position) - length), int(position) + length)
        ranked = engine.knn(query, neighbors, exclude=zone)
        if len(ranked):
            kth.append(float(ranked.distances[-1]))
    return float(np.median(kth)) if kth else 0.5


def _run_workload(engine, queries, epsilon, executor=None) -> list:
    return [
        engine.search(query, epsilon, executor=executor)
        for query in queries
    ]


def _shard_stats(engine, queries, epsilon) -> list:
    """Each query's counters walked on every shard directly, summed."""
    totals = []
    for query in queries:
        total = QueryStats()
        for shard in engine.shards:
            total = total.merge(shard.search(query, epsilon).stats)
        totals.append(total)
    return totals


def _assert_identical(baseline, stats, results, label: str) -> None:
    for want, counters, got in zip(baseline, stats, results):
        if not (
            np.array_equal(want.positions, got.positions)
            and np.array_equal(want.distances, got.distances)
            and counters == got.stats
        ):
            raise AssertionError(
                f"{label}: results diverge from the calling thread's, "
                "or counters from the per-shard walk"
            )


def main(argv=None) -> int:
    args = parse_args(argv)
    rng = np.random.default_rng(args.seed)
    series = synthetic.insect_like(
        args.windows + args.length - 1, seed=args.seed
    )

    print(
        f"building {args.shards}-shard engine over ~{args.windows} windows..."
    )
    built = ShardedTSIndex.build(
        series, args.length, normalization="global", shards=args.shards
    )
    scratch = tempfile.mkdtemp(prefix="bench-scaling-")
    try:
        archive = os.path.join(scratch, "engine.raw")
        save_index(built, archive)
        engine = load_index(archive)  # archive attached: process-servable

        source = engine.source
        positions = rng.integers(0, source.count, size=args.queries)
        queries = [
            np.array(source.window_block(int(p), int(p) + 1)[0])
            for p in positions
        ]
        epsilon = _pick_epsilon(
            engine, queries, positions, args.length, args.neighbors
        )
        print(f"workload: {len(queries)} queries, epsilon={epsilon:.4f}")

        calling_results = _run_workload(engine, queries, epsilon)
        shard_stats = _shard_stats(engine, queries, epsilon)
        pools = {
            "thread": concurrent.futures.ThreadPoolExecutor,
            "process": concurrent.futures.ProcessPoolExecutor,
        }
        arms = [("calling", 0, None)]
        with contextlib.ExitStack() as stack:
            for executor_kind, make_pool in pools.items():
                for workers in args.workers:
                    pool = stack.enter_context(make_pool(max_workers=workers))
                    # Warm-up run: fork + archive open for process
                    # workers, thread spin-up for the thread pool —
                    # and the equality gate in the same pass.
                    _assert_identical(
                        calling_results,
                        shard_stats,
                        _run_workload(engine, queries, epsilon, pool),
                        f"{executor_kind}x{workers}",
                    )
                    arms.append((executor_kind, workers, pool))
            best = {(kind, workers): np.inf for kind, workers, _ in arms}
            for repeat in range(args.repeats):
                shift = repeat % len(arms)
                for kind, workers, pool in arms[shift:] + arms[:shift]:
                    started = time.perf_counter()
                    _run_workload(engine, queries, epsilon, pool)
                    seconds = time.perf_counter() - started
                    best[kind, workers] = min(best[kind, workers], seconds)

        calling_seconds = best.pop(("calling", 0))
        print(
            f"calling thread (forest): "
            f"{1e3 * calling_seconds / len(queries):.2f}ms/q "
            f"({len(queries) / calling_seconds:.1f} qps)"
        )
        curve = []
        for (executor_kind, workers), seconds in best.items():
            row = {
                "executor": executor_kind,
                "workers": workers,
                "seconds": round(seconds, 4),
                "ms_per_query": round(1e3 * seconds / len(queries), 4),
                "qps": round(len(queries) / seconds, 1),
                "speedup_vs_calling_thread": round(calling_seconds / seconds, 2),
            }
            curve.append(row)
            print(
                f"{executor_kind} x{workers}: {row['ms_per_query']}ms/q "
                f"({row['speedup_vs_calling_thread']}x vs calling thread)"
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

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
        "calling_thread": {
            "seconds": round(calling_seconds, 4),
            "ms_per_query": round(1e3 * calling_seconds / len(queries), 4),
            "qps": round(len(queries) / calling_seconds, 1),
        },
        "curve": curve,
    }
    write_artifact(args.output, results, kind="scaling", seed=args.seed)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
