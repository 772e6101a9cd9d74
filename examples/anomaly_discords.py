"""Anomaly detection: Chebyshev discords in an ECG-like stream.

The paper's introduction motivates twin search for "detecting irregular
patterns in medical applications like EEG or ECG sequences". The
matrix-profile view makes that concrete: a window whose nearest
neighbour (outside its own neighbourhood) is *far* has no twin anywhere
— it is a **discord**, the signature of an arrhythmic beat.

This example builds an ECG-like series of repeating heartbeats, injects
two arrhythmic beats, computes the exact Chebyshev matrix profile with
TS-Index 1-NN self joins, and reads off motifs (normal beats) and
discords (the arrhythmias). It also shows the live variant:
appending new readings and asking "has this beat shape occurred
before?" with `exists`.

Self-checking: the profile's distances and neighbours are asserted
equal to a brute-force profile built from the exact scan k-NN
(`repro.query.planner.scan_knn`), and every `exists` answer to
`count > 0`.

Run:  python examples/anomaly_discords.py
"""

import numpy as np

from repro.core.windows import WindowSource
from repro.extensions.profile import chebyshev_matrix_profile
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

    profile = chebyshev_matrix_profile(
        series, beat_length, normalization="none"
    )
    print(f"computed Chebyshev matrix profile over {len(profile)} windows "
          f"(exclusion zone ±{profile.exclusion})")
    source = WindowSource(series, beat_length, "none")
    for position in range(source.count):
        zone = (max(0, position - profile.exclusion), position + profile.exclusion + 1)
        nearest = scan_knn(source, source.window(position), 1, exclude=zone)
        assert profile.distances[position] == nearest.distances[0], position
        assert profile.neighbors[position] == nearest.positions[0], position
    print("profile == the brute-force scan profile, distances and neighbours")

    position, neighbor, distance = profile.motif()
    print(f"\nmotif (most repeated beat): windows {position} and "
          f"{neighbor} at distance {distance:.3f}")

    print("\ntop discords (least repeatable windows):")
    recovered = set()
    for rank, (discord, score) in enumerate(profile.discords(3), start=1):
        nearest_truth = min(anomalies, key=lambda a: abs(a - discord))
        is_hit = abs(discord - nearest_truth) < beat_length
        if is_hit:
            recovered.add(nearest_truth)
        print(f"  #{rank}: window {discord:5d}  profile distance {score:.2f}"
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
