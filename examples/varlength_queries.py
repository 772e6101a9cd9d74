"""Variable-length twin queries: one engine, every query length.

Demonstrates query length ``m <= l`` as a first-class capability of
the unified query plane — a mixed-length workload served by a sharded
engine through :class:`~repro.engine.QueryEngine`, answers checked
against the brute-force prefix scan (tail positions at the end of the
series included), k-NN/exists/count on prefixes, and a live ingestion
plane finding a short pattern that spans a freshly appended tail no
full-length window covers yet.

Self-checking: every answer is asserted against the prefix-scan
oracle, so a wrong answer exits non-zero.

Run:  python examples/varlength_queries.py
"""

import numpy as np

from repro import QueryEngine
from repro.data import synthetic
from repro.live import LiveTwinIndex


def distances_to(values, query):
    """Chebyshev distance from ``query`` to every m-window of the series."""
    windows = np.lib.stride_tricks.sliding_window_view(values, query.size)
    return np.max(np.abs(windows - query), axis=1)


def prefix_scan(values, query, epsilon):
    """The oracle: every m-window of the series, checked exactly."""
    return np.flatnonzero(distances_to(values, query) <= epsilon)


def prefix_knn(values, query, k):
    """The k-NN oracle, ranked by ``(distance, position)``."""
    distances = distances_to(values, query)
    positions = np.lexsort((np.arange(distances.size), distances))[:k]
    return positions, distances[positions]


def main() -> None:
    series = synthetic.insect_like(20_000, seed=9)
    length, epsilon = 100, 0.5

    with QueryEngine(cache_capacity=128) as serving:
        engine = serving.build(
            "archive", series, length, normalization="global", shards=4
        )
        values = engine.source.values

        # --- a mixed-length workload through one front door -------------
        pattern = np.array(values[4200 : 4200 + length])
        workload = [pattern, pattern[:50], pattern[:25], pattern[:12]]
        print("mixed-length workload against the sharded engine:")
        batch = serving.batch("archive", workload, epsilon, use_cache=False)
        for query, result in zip(workload, batch.results):
            expected = prefix_scan(values, query, epsilon)
            exact = np.array_equal(result.positions, expected)
            print(f"  m={query.size:3d}  {len(result):6d} twins  "
                  f"(== prefix scan: {exact})")
            assert exact, f"m={query.size}: batch member differs from the prefix scan"

        # --- tail positions: matches past the last indexed window -------
        m = 40
        tail_start = values.size - m  # no l-window starts here
        tail_query = np.array(values[tail_start:])
        found = serving.query("archive", tail_query, 0.0, use_cache=False)
        print(f"\ntail query (m={m}): start {tail_start} is past the last "
              f"indexed window ({engine.size - 1}); "
              f"found at {tail_start in found.positions}")
        assert tail_start >= engine.size and tail_start in found.positions

        # --- knn / exists / count on prefixes ---------------------------
        short = pattern[:30]
        nearest = serving.knn("archive", short, k=3)
        print(f"\nknn on m=30 prefix: positions {nearest.positions.tolist()}"
              f" distances {[round(float(d), 4) for d in nearest.distances]}")
        positions, distances = prefix_knn(values, short, 3)
        assert np.array_equal(nearest.positions, positions)
        assert np.array_equal(nearest.distances, distances)
        exists = serving.exists("archive", short, 0.2)
        count = serving.count("archive", short, 0.2)
        print(f"exists(m=30, eps=0.2): {exists}  count: {count}")
        assert exists == (count > 0)
        assert count == prefix_scan(values, short, 0.2).size

    # --- live plane: a short pattern across the appended tail -----------
    live = LiveTwinIndex(series[:5000], length, seal_threshold=1024)
    try:
        motif = np.array(series[100:130])      # m=30 pattern
        live.append(motif)                     # lands in the tail
        result = live.search_varlength(motif, 0.0)
        newest = int(result.positions[-1])
        print(f"\nlive plane: m={motif.size} motif re-appears at "
              f"{newest} (series length {live.series_length}, "
              f"windows {live.window_count}) — a position only the "
              f"tail scan can serve: {newest >= live.window_count}")
        assert newest >= live.window_count
    finally:
        live.close()


if __name__ == "__main__":
    main()
