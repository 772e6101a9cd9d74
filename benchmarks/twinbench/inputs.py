"""Seeded inputs for twinbench: the series and the engine op schedule.

Numpy only, and ``--seed`` is the only source of randomness: the same
seed gives byte-identical inputs on every commit, which
:func:`inputs_sha256` makes checkable (input drift between two commits
would otherwise read as a performance change).

The series is a regime-switching AR(1) process with recurring motifs:

* the AR(1) regimes (persistence, noise scale and level change every
  few thousand readings) give the index windows that are *not* all
  alike, so MBTS pruning has something to work with but cannot prune
  everything — the paper's sensor-like data;
* the motifs (a few fixed shapes re-inserted with small noise) give
  some queries genuine twins, so dense-ε queries return hundreds of
  matches while most sparse-ε queries return only themselves.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Readings per AR(1) regime.
REGIME_LENGTH = 2000

#: Ranges the per-regime AR(1) persistence, noise scale and level are
#: spread over. Every seed gets the *same* evenly spaced values in a
#: different order (stratified, not drawn): two seeds then differ in
#: arrangement and noise but not in how hard the series is, which is
#: what lets runs on different seeds agree within a few percent.
PHI_RANGE = (0.90, 0.99)
SIGMA_RANGE = (0.7, 1.3)
LEVEL_RANGE = (-3.0, 3.0)

#: Distinct motif shapes; one motif is placed per block of this many
#: readings, shapes taking turns, so every seed has the same count of
#: each.
MOTIF_SHAPES = 6
MOTIF_BLOCK = 1000

#: Op codes of the engine_mix schedule.
OP_QUERY, OP_PREFIX, OP_COUNT, OP_EXISTS, OP_BATCH, OP_KNN = range(6)
OP_NAMES = ("query", "prefix", "count", "exists", "batch", "knn")
#: Ops per block of 100: 60 query, 15 prefix, 10 count, 5 exists,
#: 8 batch, 2 knn — exactly, in every block, in shuffled order. A knn
#: costs twenty queries, so drawing kinds independently would let two
#: seeds differ by a fifth in how much work the same op count is.
_OP_BLOCK = np.repeat(np.arange(6), (60, 15, 10, 5, 8, 2))
#: 18 of each block's 60 queries (30 %) come from the hot set.
_HOT_BLOCK = np.arange(_OP_BLOCK.size) < 18

HOT_SET_SIZE = 32
BATCH_WIDTH = 8
PREFIX_LENGTHS = (25, 50, 75)


def _stratified(
    rng: np.random.Generator, low: float, high: float, count: int
) -> np.ndarray:
    """``count`` evenly spaced values over ``[low, high]``, shuffled."""
    return rng.permutation(np.linspace(low, high, count))


def make_series(rng: np.random.Generator, size: int, length: int) -> np.ndarray:
    """``size`` readings of regime-switching AR(1) plus motifs."""
    regime_count = -(-size // REGIME_LENGTH)
    regime_of = np.arange(size) // REGIME_LENGTH
    phi = _stratified(rng, *PHI_RANGE, regime_count)[regime_of]
    sigma = _stratified(rng, *SIGMA_RANGE, regime_count)[regime_of]
    level = _stratified(rng, *LEVEL_RANGE, regime_count)[regime_of]
    noise = rng.normal(size=size) * sigma

    # The recursion is inherently sequential; plain floats over lists
    # run it in tens of milliseconds, which setup can afford.
    values = [0.0] * size
    previous = 0.0
    for i, (p, e) in enumerate(zip(phi.tolist(), noise.tolist())):
        previous = p * previous + e
        values[i] = previous
    series = np.asarray(values) + level

    # Recurring motifs: fixed shapes, re-inserted with small noise.
    t = np.linspace(0.0, 1.0, length)
    shapes = [
        amplitude * np.sin(2 * np.pi * (cycles * t + phase)) * np.hanning(length)
        for amplitude, cycles, phase in zip(
            _stratified(rng, 4.0, 9.0, MOTIF_SHAPES),
            _stratified(rng, 1.0, 4.0, MOTIF_SHAPES),
            rng.uniform(0.0, 1.0, size=MOTIF_SHAPES),
        )
    ]
    blocks = size // MOTIF_BLOCK
    offsets = rng.integers(0, MOTIF_BLOCK - length, size=blocks)
    turns = rng.permutation(np.arange(blocks) % MOTIF_SHAPES)
    for block in range(blocks):
        position = block * MOTIF_BLOCK + int(offsets[block])
        # Replace (not add): occurrences of one shape are twins of each
        # other whatever regime they land in.
        series[position:position + length] = (
            series[position]
            + shapes[int(turns[block])]
            + rng.normal(0.0, 0.05, size=length)
        )
    return series


def make_engine_schedule(
    rng: np.random.Generator, window_count: int, ops: int
) -> dict[str, np.ndarray]:
    """The engine_mix op schedule: op kind, query positions (column 0
    for single-query ops, all :data:`BATCH_WIDTH` columns for a batch)
    and the prefix length of prefix ops.

    30 % of plain queries come from a 32-query hot set (cache hits);
    everything else draws fresh positions, so the median query stays a
    cache miss.
    """
    blocks = -(-ops // _OP_BLOCK.size)
    order = rng.permuted(np.tile(np.arange(_OP_BLOCK.size), (blocks, 1)), axis=1).ravel()[:ops]
    kinds = _OP_BLOCK[order].astype(np.int8)
    hot = _HOT_BLOCK[order]
    positions = rng.integers(0, window_count, size=(ops, BATCH_WIDTH))
    hot_set = rng.choice(window_count, size=HOT_SET_SIZE, replace=False)
    positions[hot, 0] = hot_set[rng.integers(0, HOT_SET_SIZE, size=int(hot.sum()))]
    prefix = np.asarray(PREFIX_LENGTHS)[rng.integers(0, len(PREFIX_LENGTHS), size=ops)]
    return {
        "kinds": kinds,
        "positions": positions.astype(np.int64),
        "prefix": prefix.astype(np.int64),
        "hot_set": hot_set.astype(np.int64),
    }


def inputs_sha256(*arrays: np.ndarray) -> str:
    """One digest over every generated input array (dtype, shape and
    bytes), printed per run so input drift between commits shows."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()
