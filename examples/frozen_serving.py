"""The dynamic → frozen index lifecycle: build, freeze, serve, persist.

Demonstrates :class:`repro.core.frozen.FrozenTSIndex` end to end —
build a dynamic TS-Index (the structure that accepts inserts), freeze
it into the flat array-backed query plane, check the answers are
byte-identical, run a batched workload through one shared level walk
(each member checked against a lone ``search`` of its query), and
round-trip the flat arrays through an mmap-able archive directory.
Every answer is checked: the script fails on any mismatch.

Run:  python examples/frozen_serving.py
"""

import os
import tempfile
import time

import numpy as np

from repro import TSIndex
from repro.data import synthetic
from repro.persistence import load_index, save_index


def main() -> None:
    series = synthetic.noisy_sines(30_000, seed=9, noise_std=0.2)
    length, epsilon = 100, 0.35

    # --- build (dynamic: optimized for insertion) ---------------------
    started = time.perf_counter()
    dynamic = TSIndex.build(series, length, normalization="global")
    print(f"built {dynamic!r} in {time.perf_counter() - started:.2f}s")

    # --- freeze (read-optimized: flat arrays, vectorized frontiers) ---
    frozen = dynamic.freeze()
    print(f"frozen to {frozen!r} in {frozen.freeze_seconds * 1e3:.1f}ms")

    # --- identical answers --------------------------------------------
    query = frozen.source.window(4242)
    a = dynamic.search(query, epsilon)
    b = frozen.search(query, epsilon)
    identical = np.array_equal(a.positions, b.positions) and np.array_equal(
        a.distances, b.distances
    )
    print(f"frozen == dynamic: {identical} ({len(b)} twins)")
    assert identical
    print(f"nearest 5: {frozen.knn(query, 5).positions.tolist()}")
    print(f"any twin within 0.05? {frozen.exists(query, 0.05)}")

    # --- a batched workload shares one level walk ---------------------
    rng = np.random.default_rng(3)
    workload = [
        frozen.source.window(int(p))
        for p in rng.integers(0, frozen.size, size=50)
    ]
    started = time.perf_counter()
    batch = frozen.search_batch(workload, epsilon)
    elapsed = time.perf_counter() - started
    print(
        f"batched {len(workload)} queries in {elapsed * 1e3:.1f}ms "
        f"({batch.total_matches} twins, "
        f"{len(workload) / elapsed:.0f} q/s)"
    )
    for member, alone in zip(
        batch.results, (frozen.search(q, epsilon) for q in workload)
    ):
        assert np.array_equal(member.positions, alone.positions)
        assert np.array_equal(member.distances, alone.distances)
        assert member.stats.as_dict() == alone.stats.as_dict()
    print("batch == per-query search: True (positions, distances, counters)")

    # --- persistence: the flat arrays round-trip natively -------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frozen.rts")
        save_index(frozen, path)
        restored = load_index(path)
        again = restored.search(query, epsilon)
        match = np.array_equal(again.positions, b.positions) and np.array_equal(
            again.distances, b.distances
        )
        print(f"reloaded {restored!r}: answers match = {match}")
        assert match


    # --- thaw when the index must grow again --------------------------
    thawed = frozen.thaw()
    c = thawed.search(query, epsilon)
    assert np.array_equal(c.positions, b.positions)
    assert np.array_equal(c.distances, b.distances)
    print(f"thawed back to {thawed!r} (accepts inserts again)")


if __name__ == "__main__":
    main()
