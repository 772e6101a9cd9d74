"""Live monitoring: stream a traffic series, query while it grows.

Demonstrates the :mod:`repro.live` ingestion plane end to end — create
a durable :class:`~repro.live.LiveTwinIndex`, stream a synthetic
traffic series (daily periodicity + noise) in small batches while
alternating twin queries, watch the delta (the scanned, unindexed tail
of the append buffer) seal into bulk-loaded frozen segments — never
merged; every query walks them as one forest — then simulate a crash
and recover from the write-ahead log.

Run:  python examples/live_monitoring.py
"""

import shutil
import tempfile

import numpy as np

from repro.data import synthetic
from repro.live import LiveTwinIndex


def traffic_series(n: int, seed: int = 0) -> np.ndarray:
    """A traffic-count surrogate: strong daily cycle, weekly swell,
    non-negative noisy counts."""
    base = synthetic.noisy_sines(
        n,
        seed=seed,
        frequencies=(1 / 288, 1 / 2016),  # 5-min samples: day + week
        amplitudes=(40.0, 12.0),
        noise_std=4.0,
    )
    return np.maximum(base + 60.0, 0.0)


def main() -> None:
    directory = tempfile.mkdtemp(prefix="repro-live-")
    series = traffic_series(40_000, seed=11)
    length = 288  # one day of 5-minute readings
    warmup, batch = 4_000, 250

    live = LiveTwinIndex.create(
        directory,
        series[:warmup],
        length=length,
        seal_threshold=4_096,
    )
    print(f"initialized {live!r}\n  durable under {directory}")

    # --- stream the rest, alternating appends with twin queries --------
    yesterday = np.array(series[warmup - length : warmup])
    for start in range(warmup, len(series), batch):
        live.append(series[start : start + batch])
        if (start - warmup) % (batch * 40) == 0:
            now = live.series_length
            query = np.array(live.values[now - length : now])
            twins = live.search(query, epsilon=12.0)
            seen_before = live.exists(yesterday, epsilon=8.0)
            print(
                f"  t={now:6d}  segments={live.segment_count} "
                f"delta={live.delta_windows:4d}  "
                f"current-day twins={len(twins):3d}  "
                f"yesterday pattern seen={seen_before}"
            )
    print(
        f"streamed {live.series_length} readings: "
        f"{live.seal_count} seals, {live.segment_count} segments resident"
    )
    assert live.segment_count == live.seal_count  # one segment per seal

    # --- most similar historical days to the latest one -----------------
    latest = np.array(live.values[-length:])
    nearest = live.knn(
        latest, 3, exclude=(live.window_count - length, live.window_count)
    )
    print("nearest historical days to the latest window:")
    for position, distance in nearest:
        print(f"  position {position:6d}  distance {distance:6.2f}")

    # --- the same plane behind the unified serving front door ------------
    # A live plane registers in a QueryEngine like any other plane; the
    # unified pipeline keys the cache by the plane's mutation generation,
    # so appends can never serve stale results.
    from repro import QueryEngine

    with QueryEngine() as serving:
        serving.add("traffic", live)
        served = serving.query("traffic", latest, epsilon=12.0)
        direct = live.search(latest, epsilon=12.0)
        assert np.array_equal(served.positions, direct.positions)
        print(
            f"served through QueryEngine: {len(served)} twins "
            f"(== direct call), "
            f"count={serving.count('traffic', latest, 12.0)}, "
            f"exists={serving.exists('traffic', latest, 12.0)}"
        )
        serving.append("traffic", series[:batch])  # ingest via the engine

    # --- crash and recover ----------------------------------------------
    # Drop the plane as a crash would: everything journaled or sealed
    # must come back, every sealed segment from its own archive.
    readings_before = live.series_length
    answer_before = live.search(latest, epsilon=12.0)
    live.abandon()

    recovered = LiveTwinIndex.recover(directory)
    answer_after = recovered.search(latest, epsilon=12.0)
    assert recovered.series_length == readings_before
    assert recovered.segment_count == live.segment_count
    assert np.array_equal(answer_before.positions, answer_after.positions)
    print(
        f"recovered {recovered!r} from the WAL — "
        f"{len(answer_after)} twins reproduced exactly"
    )
    recovered.append(series[:batch])  # the plane keeps ingesting
    recovered.close()
    shutil.rmtree(directory)


if __name__ == "__main__":
    main()
