"""The verification step of the filter-verification framework (§3.2).

Every index produces *candidate* window positions; verification computes
the exact Chebyshev distance of each candidate to the query and keeps the
twins. Two interchangeable strategies are provided:

* :func:`verify_positions` — *streaming reordering early abandoning*,
  the vectorized form of the UCR-suite check the paper adopts, in two
  steps. First a walk that only compares: timestamps are visited by
  decreasing query magnitude, and for each one the kernel reads the 1-D
  column ``values[alive + t]`` straight from the source's value buffer
  and keeps the candidates inside ``[lo_t, hi_t]``, the query's
  :func:`guarded_bounds` (``q_t ∓ ε`` widened by a few float64 spacings,
  so the walk can keep extra candidates but never drops a twin). The
  window matrix of the candidates it rejects is never built. Once the
  survivors times the outstanding timestamps fit in
  :data:`GATHER_BUDGET` elements, the walk stops and
  :func:`exact_distances` computes the survivors' distances over every
  timestamp in one bounded gather; ``distance <= ε`` decides. Every
  candidate set goes through it: a tree's leaves, KV-Index's interval
  runs (expanded to positions) and the sweepline's every position alike.
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

#: Elements (survivors × outstanding timestamps) at or below which the
#: streaming kernel stops walking single timestamps and finishes with
#: :func:`exact_distances`, which also gathers in pieces of at most this
#: many elements (below it, a NumPy dispatch per timestamp costs more
#: than the elements it saves). Twinbench seed 1, 200,000 windows,
#: 200 queries, verification only, budgets interleaved per query, best
#: of 5 on a 2-core box, median ms twin_dense / twin_sparse: 4k →
#: 0.81 / 0.164, 8k → 0.70 / 0.135, 16k → 0.66 / 0.129, 32k →
#: 0.64 / 0.145, 64k → 0.66 / 0.187. It is a budget of elements, not
#: of survivors: a query with hundreds of twins never gets below a
#: fixed survivor count, and would walk every timestamp.
GATHER_BUDGET = 1 << 14

#: Widening of the query thresholds, in float64 spacings of
#: ``|q| + ε``. The verifier admits a window when ``fl(|q - w|) <= ε``,
#: which real arithmetic reads as ``w >= q - ε - ulp(ε)/2``; the
#: threshold ``fl(q - ε)`` may itself sit half a spacing *above*
#: ``q - ε``, and subtracting the guard rounds once more. Both halves
#: and that rounding fit inside two spacings of ``|q| + ε``; four is the
#: margin. Without it an exact twin can be dropped: ``q = ε = 1`` and a
#: reading ``w = -1e-17`` verify (``fl(1 + 1e-17) = 1``) against a bare
#: threshold ``fl(q - ε) = 0 > w``.
_GUARD_SPACINGS = 4.0

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
    query length, range-check the candidates (in any order) against the
    ``m``-windows of the value buffer, and count them."""
    epsilon = check_non_negative(epsilon, name="epsilon")
    positions = as_position_array(positions)
    if query.size != source.length and (
        query.size > source.length or source._means is not None
    ):
        raise InvalidParameterError(
            f"query length {query.size} cannot be verified against "
            f"{source!r}"
        )
    count = source.values.size - query.size + 1
    if positions.size:
        first, last = int(positions.min()), int(positions.max())
        if first < 0 or last >= count:
            raise InvalidParameterError(
                f"positions must lie in [0, {count}); got range "
                f"[{first}, {last}]"
            )
    stats = stats if stats is not None else QueryStats()
    stats.candidates += int(positions.size)
    stats.verified += int(positions.size)
    return positions, epsilon, stats


def guarded_bounds(
    query: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 thresholds ``(lo, hi)``: every value ``w`` the verifier
    admits at a timestamp (``fl(|w - q_t|) <= ε``) lies in
    ``[lo_t, hi_t]`` — ``q ∓ ε`` widened by :data:`_GUARD_SPACINGS`.
    Works elementwise, so a ``(q, l)`` query matrix gives matrices."""
    guard = _GUARD_SPACINGS * np.spacing(np.abs(query) + epsilon)
    return query - epsilon - guard, query + epsilon + guard


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
    lo, hi = guarded_bounds(query[order], epsilon)
    walk = list(zip(order.tolist(), lo.tolist(), hi.tolist()))
    matched_positions: list[np.ndarray] = []
    matched_distances: list[np.ndarray] = []
    for start, stop in iter_chunks(positions.size, chunk_size):
        alive = _stream(source, walk, positions[start:stop])
        distances = exact_distances(source, query, alive)
        keep = distances <= epsilon
        if keep.any():
            matched_positions.append(alive[keep])
            matched_distances.append(distances[keep])
    return _collect(matched_positions, matched_distances, stats)


def _stream(
    source: WindowSource,
    walk: list[tuple[int, float, float]],
    alive: np.ndarray,
) -> np.ndarray:
    """The (range-checked) positions ``alive`` whose values stay inside
    ``[lo, hi]`` at each ``(timestamp, lo, hi)`` of ``walk``, visited in
    order until the survivors times the outstanding timestamps fit in
    :data:`GATHER_BUDGET`. A superset of the twins among ``alive``."""
    values = source.values
    scaled = source._means is not None
    if scaled:
        means = source._means[alive]
        stds = source._stds[alive]
    outstanding = len(walk)
    for timestamp, lo, hi in walk:
        if alive.size * outstanding <= GATHER_BUDGET:
            break
        outstanding -= 1
        # values[timestamp:][alive] is values[alive + timestamp] without
        # the index temporary.
        column = values[timestamp:][alive]
        if scaled:
            column -= means
            column /= stds
        keep = column >= lo
        keep &= column <= hi
        # compress: cheaper than boolean indexing on a 1-D array
        alive = alive.compress(keep)
        if scaled:
            means = means.compress(keep)
            stds = stds.compress(keep)
    return alive


def exact_distances(
    source: WindowSource, query: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """The exact Chebyshev distance of the ``m``-window at each of
    ``positions`` (in range, any order) to ``query`` — ``|x - q|``, or
    ``|(x - μ) / σ - q|`` under per-window normalisation — gathered in
    pieces of at most :data:`GATHER_BUDGET` elements. ``max`` is exact,
    so no order of the timestamps could give another distance."""
    m = query.size
    view = (
        source._view
        if m == source.length
        else np.lib.stride_tricks.sliding_window_view(source.values, m)
    )
    distances = np.empty(positions.size)
    for start, stop in iter_chunks(positions.size, max(1, GATHER_BUDGET // m)):
        piece = positions[start:stop]
        block = view[piece]
        if source._means is not None:
            block -= source._means[piece, None]
            block /= source._stds[piece, None]
        block -= query
        np.abs(block, out=block)
        block.max(axis=1, out=distances[start:stop])
    return distances


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
    positions = np.sort(positions)
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
