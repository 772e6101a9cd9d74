"""Operational scenario: build once, save, reload, query.

Index construction dominates cost; real deployments build offline and
serve queries from a reloaded index. Every method in the library
round-trips through one archive directory (mmapped on load).

Run:  python examples/index_persistence.py
"""

import os
import tempfile

import numpy as np

from repro import ISAXIndex, KVIndex, TSIndex
from repro.bench.timing import Timer
from repro.data import synthetic
from repro.persistence import load_index, save_index


def main() -> None:
    series = synthetic.insect_like(20_000, seed=5)
    length = 100
    query = series[2_500 : 2_500 + length]

    with tempfile.TemporaryDirectory() as workdir:
        for cls, label in (
            (TSIndex, "tsindex"),
            (KVIndex, "kvindex"),
            (ISAXIndex, "isax"),
        ):
            with Timer() as build_timer:
                index = cls.build(series, length, normalization="none")
            expected = index.search(query, epsilon=0.2)

            path = os.path.join(workdir, f"{label}.rts")
            with Timer() as save_timer:
                save_index(index, path)
            with Timer() as load_timer:
                restored = load_index(path)
            actual = restored.search(query, epsilon=0.2)

            assert np.array_equal(actual.positions, expected.positions)
            assert np.array_equal(actual.distances, expected.distances)
            size_mb = sum(
                entry.stat().st_size for entry in os.scandir(path)
            ) / (1024 * 1024)
            print(f"{label:8s} build {build_timer.seconds:6.2f}s | "
                  f"save {save_timer.milliseconds:7.1f}ms | "
                  f"load {load_timer.milliseconds:7.1f}ms | "
                  f"archive {size_mb:6.2f} MB | "
                  f"{len(actual)} twins verified identical")

    print("\nall indices round-tripped with identical query answers.")


if __name__ == "__main__":
    main()
