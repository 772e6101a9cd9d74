"""Variable-length (prefix) query kernels shared by every plane.

The paper's related work cites ULISSE (Linardi & Palpanas, VLDBJ'20)
for "queries of varying length"; this module is the library's serving
machinery for query lengths ``m <= l`` (the indexed window length),
built on a property that is immediate for Chebyshev distance: any
time-aligned *prefix* of two twins is itself a pair of twins
(Section 3.1's second observation). Hence:

* a node's MBTS restricted to its first ``m`` timestamps is a valid
  envelope for the ``m``-prefixes of every window under the node, so
  the Eq. 2 bound over the prefix prunes losslessly — the frozen
  plane's kernel (every tree-backed plane's) exploits exactly this;
* verification compares the query against the ``m``-window at each
  candidate position — read straight from the prepared value buffer by
  the verification kernels, which take the window length from the
  query — **including the tail positions** (the last ``l - m`` window
  starts that have no full ``l``-window and are absent from the index).

Everything here answers from the plane's prepared value buffer, so the
results of a native prefix traversal, the synthesized
:func:`scan_prefix_search`, and a composite plane's per-part fan-out
agree bitwise (positions and distances) — the conformance suite in
``tests/test_varlength_planes.py`` enforces it across all seven planes.

Per-window z-normalization is rejected for ``m < l`` (windows
normalized over ``l`` points are not comparable with a query over
``m`` points — see :func:`repro.query.spec.prepare_values`); the raw
and globally-normalized regimes are exact.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._util import POSITION_DTYPE, check_non_negative
from ..core.normalization import Normalization
from ..core.stats import QueryStats, SearchResult
from ..core.verification import check_mode, verify
from ..core.windows import WindowSource, assemble_source
from .spec import prepare_values

#: Kernel name reported by :func:`scan_prefix_search` plans/benchmarks.
PREFIX_SCAN = "prefix_scan"


def is_prefix_query(query: Any, length: Any) -> bool:
    """Whether ``query`` is a well-formed 1-D query *shorter* than the
    indexed window length — the planes' dispatch predicate: their
    fixed-length kernels hand such queries to the pipeline's prefix
    path. Malformed queries return ``False`` and fall through to the
    caller's own validation, so error behaviour is unchanged."""
    try:
        array = np.asarray(query)
    except Exception:
        return False
    return (
        array.ndim == 1
        and array.dtype != object
        and 0 < array.size < int(length)
    )


def prefix_source(source: WindowSource, m: int) -> WindowSource:
    """A window source over every ``m``-window of ``source``'s prepared
    value buffer — zero-copy, and covering ``|T| - m + 1`` positions
    (``>= source.count``), i.e. the series tail included.

    The result carries the ``NONE`` regime because the buffer is
    already expressed in the index's value domain (raw, or globally
    z-normalized by the source's own preparation); the per-window
    regime never reaches here (rejected at query preparation).
    """
    return assemble_source(
        source.values, int(m), Normalization.NONE, name=source.series.name
    )


def tail_positions(source: WindowSource, m: int) -> np.ndarray:
    """Start positions in the series tail: the ``l - m`` window starts
    past the last indexed ``l``-window (empty when ``m == l``)."""
    return np.arange(
        source.count, source.values.size - int(m) + 1, dtype=POSITION_DTYPE
    )


def prefix_search_with_tail(
    plane: Any, query: Any, epsilon: float, *, verification: str = "bulk"
) -> SearchResult:
    """The prefix search driver of ``FrozenTSIndex.search_varlength``.

    Validates and prepares the query (``m == l`` delegates to the
    plane's fixed-length ``search`` — identical positions, distances
    and counters), collects unverified candidates through the plane's
    ``collect_varlength_candidates`` hook, appends the ``l - m`` tail
    positions the index does not store, and verifies everything
    block-bounded.
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    check_mode(verification)
    source = plane.source
    query = prepare_values(source, query, varlength=True)
    if query.size == source.length:
        return plane.search(query, epsilon, verification=verification)
    stats = QueryStats()
    candidates = plane.collect_varlength_candidates(query, epsilon, stats)
    positions = np.concatenate(
        (candidates, tail_positions(source, query.size))
    )
    return verify(
        source, query, positions, epsilon, mode=verification, stats=stats
    )


def prefix_search_part(
    tree: Any, query: np.ndarray, epsilon: float, *, verification: str = "bulk"
) -> SearchResult:
    """One composite-plane part (a shard, a live segment, a scan part):
    prefix candidates over the part's windows, verified against its own
    value chunk — no tail, the composite plane adds that as a part of
    its own. ``query`` must already be prepared."""
    stats = QueryStats()
    candidates = tree.collect_varlength_candidates(query, epsilon, stats)
    return verify(
        tree.source, query, candidates, epsilon,
        mode=verification, stats=stats,
    )


def merge_exists_stats(stats: QueryStats | None, result: SearchResult) -> None:
    """Accumulate a search's counters into a caller-provided ``stats``,
    if any: the ``exists(..., stats=)`` affordance of a plane whose
    ``exists`` is whether ``search`` finds a twin."""
    if stats is None:
        return
    merged = stats.merge(result.stats)
    for name, value in vars(merged).items():
        setattr(stats, name, value)


def scan_prefix_search(
    source: WindowSource,
    query: Any,
    epsilon: float,
    *,
    verification: str = "bulk",
    stats: QueryStats | None = None,
) -> SearchResult:
    """Brute-force prefix scan: every ``m``-window (tail included)
    exactly verified against the query.

    This is the planner's synthesized variable-length ``search`` for
    planes without a native prefix kernel (sweepline, KV-Index, iSAX),
    and the oracle the cross-plane conformance suite compares every
    plane against. ``query`` arrives in the index value domain; the
    preparation applies the same validation (``m <= l``, typed
    per-window rejection) as the native kernels.
    """
    epsilon = check_non_negative(epsilon, name="epsilon")
    query = prepare_values(source, query, varlength=True)
    positions = np.arange(
        source.values.size - query.size + 1, dtype=POSITION_DTYPE
    )
    return verify(
        source, query, positions, epsilon, mode=verification, stats=stats
    )


def scan_prefix_knn(
    source: WindowSource, query: Any, k: int, exclude: Any = None
) -> SearchResult:
    """Exact k-NN over every ``m``-window (tail included), ranked by the
    library-wide ``(distance, position)`` tie-break — the one
    variable-length k-NN kernel (every plane serves it; prefix pruning
    buys nothing without a bound over the unindexed tails)."""
    from .planner import scan_knn  # lazy: planner imports this module

    query = prepare_values(source, query, varlength=True)
    return scan_knn(
        prefix_source(source, query.size), query, k, exclude=exclude
    )
