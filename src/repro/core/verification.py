"""The verification step of the filter-verification framework (§3.2).

Every index produces *candidate* window positions; verification computes
the exact Chebyshev distance of each candidate to the query and keeps the
twins. Two interchangeable strategies are provided:

* :func:`verify_positions` — *streaming reordering early abandoning*,
  the vectorized form of the UCR-suite check the paper adopts.
  Timestamps are visited by decreasing query magnitude; for each one the
  kernel reads the 1-D column ``values[alive + t]`` straight from the
  source's value buffer, folds ``|x - q_t|`` into a running maximum and
  compacts the still-alive candidates, so the window matrix of the
  candidates it rejects is never built. At :data:`GATHER_BELOW`
  survivors the outstanding timestamps are finished in one small gather.
  Every candidate set goes through it: a tree's leaves, KV-Index's
  interval runs (expanded to positions) and the sweepline's every
  position alike.
* :func:`verify_positions_per_candidate` — one check per candidate, the
  paper's cost model.

Both take the window length from the query: a query of ``m < l`` points
is compared with the ``m``-window at each position, and positions may
then run into the series tail, up to ``|T| - m``.

Both strategies return identical results; tests enforce this.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .._util import (
    POSITION_DTYPE,
    as_position_array,
    check_non_negative,
    iter_chunks,
)
from ..exceptions import InvalidParameterError
from .distance import reorder_by_magnitude
from .stats import QueryStats, SearchResult
from .windows import WindowSource

#: Candidates per pass of :func:`verify_positions`, whose temporaries
#: are 1-D (``chunk * 8`` bytes each).
STREAM_CHUNK = 1 << 16

#: Survivor count at which the streaming kernel stops walking single
#: timestamps and gathers the outstanding ones (below it, a NumPy
#: dispatch per timestamp costs more than the elements it saves).
GATHER_BELOW = 256

#: Verification strategies accepted by every method's ``search``:
#: ``bulk`` — the streaming early-abandoning kernel (the default);
#: ``per_candidate`` — one check per candidate, the paper's cost model
#: (their data lived on disk and each candidate was fetched by random
#: access, so verification cost scaled with the candidate count; the
#: benchmark harness uses this mode to reproduce the paper's figures).
VERIFICATION_MODES = ("bulk", "per_candidate")


def check_mode(mode: str) -> str:
    """Validate a ``verification=`` / ``mode=`` name and return it."""
    if mode not in VERIFICATION_MODES:
        raise InvalidParameterError(
            f"unknown verification mode {mode!r}; expected one of "
            f"{VERIFICATION_MODES}"
        )
    return mode


def _admit(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    stats: QueryStats | None,
) -> tuple[np.ndarray, float, QueryStats]:
    """Shared preamble of the position verifiers: validate ``ε`` and the
    query length, sort the candidates, range-check them against the
    ``m``-windows of the value buffer, and count them."""
    epsilon = check_non_negative(epsilon, name="epsilon")
    positions = np.sort(as_position_array(positions))
    if query.size != source.length and (
        query.size > source.length or source._means is not None
    ):
        raise InvalidParameterError(
            f"query length {query.size} cannot be verified against "
            f"{source!r}"
        )
    count = source.values.size - query.size + 1
    if positions.size and (positions[0] < 0 or positions[-1] >= count):
        raise InvalidParameterError(
            f"positions must lie in [0, {count}); got range "
            f"[{positions[0]}, {positions[-1]}]"
        )
    stats = stats if stats is not None else QueryStats()
    stats.candidates += int(positions.size)
    stats.verified += int(positions.size)
    return positions, epsilon, stats


def verify_positions(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    stats: QueryStats | None = None,
    chunk_size: int = STREAM_CHUNK,
) -> SearchResult:
    """Exactly verify ``positions`` against ``query`` at threshold ``ε``.

    ``query`` must already be expressed in the source's value domain
    (callers use :meth:`WindowSource.prepare_query`). Returns a
    :class:`SearchResult` with positions sorted ascending.
    """
    positions, epsilon, stats = _admit(source, query, positions, epsilon, stats)
    order = reorder_by_magnitude(query)
    matched_positions: list[np.ndarray] = []
    matched_distances: list[np.ndarray] = []
    for start, stop in iter_chunks(positions.size, chunk_size):
        alive, distances = _stream(
            source, query, order, positions[start:stop], epsilon
        )
        if alive.size:
            matched_positions.append(alive)
            matched_distances.append(distances)
    return _collect(matched_positions, matched_distances, stats)


def _stream(
    source: WindowSource,
    query: np.ndarray,
    order: np.ndarray,
    alive: np.ndarray,
    epsilon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The twins among the (range-checked) positions ``alive`` and their
    distances, by streaming early abandoning over ``order``."""
    values = source.values
    running = np.zeros(alive.size)
    scaled = source._means is not None
    if scaled:
        means = source._means[alive]
        stds = source._stds[alive]
    for step, timestamp in enumerate(order.tolist()):
        if alive.size <= GATHER_BELOW:
            rest = order[step:]
            block = values[alive[:, None] + rest]
            if scaled:
                block -= means[:, None]
                block /= stds[:, None]
            block -= query[rest]
            np.abs(block, out=block)
            np.maximum(running, block.max(axis=1), out=running)
            keep = running <= epsilon
            return alive[keep], running[keep]
        # values[timestamp:][alive] is values[alive + timestamp] without
        # the index temporary.
        column = values[timestamp:][alive]
        if scaled:
            column -= means
            column /= stds
        column -= query[timestamp]
        np.abs(column, out=column)
        np.maximum(running, column, out=running)
        keep = running <= epsilon
        if not keep.all():
            alive = alive[keep]
            running = running[keep]
            if scaled:
                means = means[keep]
                stds = stds[keep]
    return alive, running


def verify_positions_per_candidate(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    stats: QueryStats | None = None,
) -> SearchResult:
    """Candidate-at-a-time verification (the paper's cost model).

    Every candidate window is fetched and checked individually, so the
    wall-clock cost is proportional to the number of candidates the
    filter step produced — mirroring the paper's setup where candidates
    were read from disk by random access one subsequence at a time.
    Results are identical to :func:`verify_positions`.
    """
    positions, epsilon, stats = _admit(source, query, positions, epsilon, stats)
    values = source.values
    scaled = source._means is not None
    matched: list[int] = []
    distances: list[float] = []
    for position in positions.tolist():
        window = values[position:position + query.size]
        if scaled:
            window = (window - source._means[position]) / source._stds[position]
        distance = float(np.max(np.abs(window - query)))
        if distance <= epsilon:
            matched.append(position)
            distances.append(distance)
    stats.matches += len(matched)
    return SearchResult(
        positions=np.asarray(matched, dtype=POSITION_DTYPE),
        distances=np.asarray(distances, dtype=float),
        stats=stats,
    )


def verify(
    source: WindowSource,
    query: np.ndarray,
    positions: npt.ArrayLike,
    epsilon: float,
    *,
    mode: str = "bulk",
    stats: QueryStats | None = None,
) -> SearchResult:
    """Dispatch to the verification strategy named by ``mode``."""
    if check_mode(mode) == "per_candidate":
        return verify_positions_per_candidate(
            source, query, positions, epsilon, stats=stats
        )
    return verify_positions(source, query, positions, epsilon, stats=stats)


def _collect(
    matched_positions: list[np.ndarray],
    matched_distances: list[np.ndarray],
    stats: QueryStats,
) -> SearchResult:
    if not matched_positions:
        return SearchResult.empty(stats)
    positions = np.concatenate(matched_positions)
    distances = np.concatenate(matched_distances)
    order = np.argsort(positions, kind="stable")
    stats.matches += int(positions.size)
    return SearchResult(
        positions=positions[order], distances=distances[order], stats=stats
    )
