"""Anomaly detection: Chebyshev discords in an ECG-like stream.

The paper's introduction motivates twin search for "detecting irregular
patterns in medical applications like EEG or ECG sequences". The
matrix-profile view makes that concrete: a window whose nearest
neighbour (outside its own neighbourhood) is *far* has no twin anywhere
— it is a **discord**, the signature of an arrhythmic beat.

This example builds an ECG-like series of repeating heartbeats, injects
two arrhythmic beats, computes the exact Chebyshev matrix profile as
one TS-Index 1-NN query per window (`knn(window, 1, exclude=zone)`,
where the zone is the window's own ±l/2 neighbourhood), and reads off
motifs (normal beats) and discords (the arrhythmias). It also shows
the live variant: appending new readings and asking "has this beat
shape occurred before?" with `exists`.

Self-checking: the profile's distances and neighbours are asserted
equal to a brute-force profile built from the exact scan k-NN
(`repro.query.planner.scan_knn`), and every `exists` answer to
`count > 0`.

Run:  python examples/anomaly_discords.py
"""

import numpy as np

import repro
from repro.live import LiveTwinIndex
from repro.query.planner import scan_knn


def ecg_like(beats: int = 40, beat_length: int = 80, seed: int = 4):
    """Repeating PQRST-ish beats with small jitter + 2 arrhythmias."""
    rng = np.random.default_rng(seed)
    tt = np.arange(beat_length)
    normal_beat = (
        6.0 * np.exp(-((tt - 30) ** 2) / 6.0)        # R spike
        - 1.5 * np.exp(-((tt - 38) ** 2) / 10.0)     # S dip
        + 0.8 * np.exp(-((tt - 58) ** 2) / 40.0)     # T wave
        + 0.4 * np.exp(-((tt - 15) ** 2) / 30.0)     # P wave
    )
    arrhythmic_beat = (
        2.0 * np.exp(-((tt - 25) ** 2) / 80.0)       # widened, low R
        + 3.0 * np.exp(-((tt - 50) ** 2) / 15.0)     # ectopic bump
    )
    arrhythmia_at = {12, 29}
    segments = []
    for beat in range(beats):
        template = arrhythmic_beat if beat in arrhythmia_at else normal_beat
        jitter = 1.0 + rng.normal(0.0, 0.02)
        noise = rng.normal(0.0, 0.08, size=beat_length)
        segments.append(template * jitter + noise)
    series = np.concatenate(segments)
    anomaly_positions = sorted(b * beat_length for b in arrhythmia_at)
    return series, anomaly_positions, normal_beat


def main() -> None:
    beat_length = 80
    series, anomalies, normal_beat = ecg_like()
    print(f"ECG-like series: {series.size} samples, "
          f"arrhythmias injected at {anomalies}")

    # The matrix profile: for every window, the nearest neighbour outside
    # its own neighbourhood (the Matrix Profile exclusion zone, ±l/2).
    index = repro.bulk_load(series, beat_length, normalization="none")
    source = index.source
    exclusion = beat_length // 2
    distances = np.empty(source.count)
    neighbors = np.empty(source.count, dtype=np.int64)
    for position in range(source.count):
        window = source.window(position)
        zone = (max(0, position - exclusion), position + exclusion + 1)
        nearest = index.knn(window, 1, exclude=zone)
        distances[position] = nearest.distances[0]
        neighbors[position] = nearest.positions[0]
        truth = scan_knn(source, window, 1, exclude=zone)
        assert distances[position] == truth.distances[0], position
        assert neighbors[position] == truth.positions[0], position
    print(f"computed Chebyshev matrix profile over {source.count} windows "
          f"(exclusion zone ±{exclusion})")
    print("profile == the brute-force scan profile, distances and neighbours")

    motif = int(np.argmin(distances))
    print(f"\nmotif (most repeated beat): windows {motif} and "
          f"{neighbors[motif]} at distance {distances[motif]:.3f}")

    # Discords: the profile's maxima, each at least a window away from
    # every discord already chosen.
    discords: list[int] = []
    for position in np.argsort(-distances):
        if all(abs(position - chosen) >= beat_length for chosen in discords):
            discords.append(int(position))
            if len(discords) == 3:
                break

    print("\ntop discords (least repeatable windows):")
    recovered = set()
    for rank, discord in enumerate(discords, start=1):
        nearest_truth = min(anomalies, key=lambda a: abs(a - discord))
        is_hit = abs(discord - nearest_truth) < beat_length
        if is_hit:
            recovered.add(nearest_truth)
        print(f"  #{rank}: window {discord:5d}  profile distance {distances[discord]:.2f}"
              f"  -> {'ARRHYTHMIA at ' + str(nearest_truth) if is_hit else 'normal variation'}")
    print(f"recovered {len(recovered)}/{len(anomalies)} injected arrhythmias "
          f"in the top discords")

    # Live ingestion: monitor new beats as they arrive.
    stream = LiveTwinIndex(series, beat_length)
    rng = np.random.default_rng(99)
    normal_again = normal_beat * 1.01 + rng.normal(0.0, 0.08, beat_length)
    novel_shape = normal_beat[::-1] * 1.5
    print("\nlive monitor (epsilon = 1.0):")
    for label, beat in (("familiar beat", normal_again), ("novel shape", novel_shape)):
        seen = stream.exists(beat, epsilon=1.0)
        assert seen == (stream.count(beat, epsilon=1.0) > 0)
        print(f"  {label:14s}: {'seen before' if seen else 'NEVER SEEN -> alert'}")
        stream.append(beat)
    print("after appending, both shapes are indexed:")
    for label, beat in (("familiar beat", normal_again), ("novel shape", novel_shape)):
        seen = stream.exists(beat, epsilon=1e-9)
        assert seen == (stream.count(beat, epsilon=1e-9) > 0)
        print(f"  {label:14s}: exists now = {seen}")
    stream.close()


if __name__ == "__main__":
    main()
