"""The result of a batch of twin queries.

The paper's evaluation protocol runs 100-query workloads; applications
do the same (e.g. scoring every recent event against an archive).
Every plane's ``search_batch(queries, epsilon)`` returns a
:class:`BatchResult`: per-query results plus workload-level aggregates.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from .stats import QueryStats, SearchResult


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

