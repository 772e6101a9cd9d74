"""Batch query execution over any search method.

The paper's evaluation protocol runs 100-query workloads; applications
do the same (e.g. scoring every recent event against an archive).
``search_batch`` runs a sequence of queries through one built method,
returning per-query results plus workload-level aggregates, so callers
stop re-implementing the aggregation loop the harness uses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Iterator, Protocol

import numpy.typing as npt

from .._util import check_non_negative
from .stats import QueryStats, SearchResult


class SupportsSearch(Protocol):
    """The shared threshold-search surface of every paper method."""

    def search(
        self, query: npt.ArrayLike, epsilon: float, **search_options: Any
    ) -> SearchResult: ...


@dataclasses.dataclass
class BatchResult:
    """Results and aggregates for one batch of twin queries."""

    #: per-query results, aligned with the input order.
    results: list[SearchResult]
    #: element-wise sum of every query's structural counters.
    stats: QueryStats
    epsilon: float

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, item: int) -> SearchResult:
        return self.results[item]

    @property
    def total_matches(self) -> int:
        """Twins found across the whole batch."""
        return sum(len(result) for result in self.results)

    def match_counts(self) -> list[int]:
        """Per-query twin counts, aligned with the input order."""
        return [len(result) for result in self.results]

    def selectivity(self, window_count: int) -> float:
        """Average fraction of windows matched per query."""
        if window_count <= 0 or not self.results:
            return 0.0
        return self.total_matches / (window_count * len(self.results))


def search_batch(
    method: SupportsSearch,
    queries: Iterable[npt.ArrayLike],
    epsilon: float,
    **search_options: Any,
) -> BatchResult:
    """Run every query of ``queries`` through ``method`` at ``epsilon``.

    ``method`` is any object with the shared ``search`` surface (all
    four paper methods and the streaming index qualify);
    ``search_options`` are forwarded to each call (e.g.
    ``verification="per_candidate"``).
    """
    # Local import: repro.query.merge imports BatchResult from here.
    from ..query.merge import batch_result

    epsilon = check_non_negative(epsilon, name="epsilon")
    results = [
        method.search(query, epsilon, **search_options)
        for query in queries
    ]
    return batch_result(results, epsilon)
