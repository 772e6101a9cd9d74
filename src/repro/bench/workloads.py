"""Query workload generation (Section 6.1).

The paper: "For each dataset, we randomly picked 100 subsequences, each
of length l = 100 points, and used them as the query workload in all
tests against that dataset." Queries are drawn from the indexed series
itself, so every query has at least one twin (itself) at ε ≥ 0.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .._util import check_positive_int
from ..core.windows import WindowSource

#: The paper's workload size.
PAPER_QUERY_COUNT = 100


@dataclasses.dataclass(frozen=True)
class QueryWorkload:
    """A reproducible batch of query subsequences.

    ``positions`` are the extraction offsets in the source series (kept
    for provenance); ``queries`` holds the raw (un-normalized) query
    values — each search method normalizes queries its own way through
    :meth:`WindowSource.prepare_query`.
    """

    positions: tuple[int, ...]
    queries: tuple
    length: int
    seed: int

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def subset(self, count: int) -> "QueryWorkload":
        """The first ``count`` queries (smaller benchmark workloads)."""
        count = check_positive_int(count, name="count")
        count = min(count, len(self.queries))
        return QueryWorkload(
            positions=self.positions[:count],
            queries=self.queries[:count],
            length=self.length,
            seed=self.seed,
        )


def workload_for_source(
    source: WindowSource,
    *,
    count: int = PAPER_QUERY_COUNT,
    seed: int = 1234,
) -> QueryWorkload:
    """Randomly extract ``count`` windows of ``source`` as queries, in
    the source's value domain.

    Each method receives queries expressed the same way its index
    stores windows (the GLOBAL regime normalizes the series before
    windows are cut; queries must match). Positions are drawn without
    replacement where possible, with a fixed seed so every experiment
    (and every method within one) sees the identical workload.
    """
    count = check_positive_int(count, name="count")
    limit = source.count
    rng = np.random.default_rng(seed)
    replace = limit < count
    positions = rng.choice(limit, size=count, replace=replace)
    positions = tuple(int(p) for p in positions)
    queries = tuple(
        np.array(source.window_block(p, p + 1)[0], dtype=float)
        for p in positions
    )
    return QueryWorkload(
        positions=positions, queries=queries, length=source.length, seed=seed
    )
