"""Result and statistics records shared by every search method.

The paper reports wall-clock query time; to make the reproduction
hardware-independent we additionally track *structural* counters —
candidates generated by the filter step, exact distance verifications
performed, index nodes visited/pruned — which are deterministic given
the data and parameters.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

from .._util import POSITION_DTYPE


@dataclasses.dataclass
class QueryStats:
    """Counters accumulated while answering one twin query."""

    #: windows handed to the verification step by the filter step.
    candidates: int = 0
    #: exact Chebyshev verifications performed (== candidates unless a
    #: method short-circuits whole blocks).
    verified: int = 0
    #: final twins reported.
    matches: int = 0
    #: index nodes visited during traversal (0 for sweepline).
    nodes_visited: int = 0
    #: subtrees pruned by a bound check (0 for sweepline).
    nodes_pruned: int = 0
    #: leaf nodes whose contents were fetched.
    leaves_accessed: int = 0

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Element-wise sum; used to aggregate over a query workload."""
        return QueryStats(
            candidates=self.candidates + other.candidates,
            verified=self.verified + other.verified,
            matches=self.matches + other.matches,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            nodes_pruned=self.nodes_pruned + other.nodes_pruned,
            leaves_accessed=self.leaves_accessed + other.leaves_accessed,
        )

    def filter_ratio(self, window_count: int) -> float:
        """Fraction of all windows surviving the filter step.

        1.0 means no pruning at all (the sweepline case).
        """
        if window_count <= 0:
            return 0.0
        return self.candidates / window_count

    def as_dict(self, window_count: int | None = None) -> dict:
        """Plain-dict form for report tables.

        When ``window_count`` is given, the snapshot also carries the
        derived ``filter_ratio`` — the paper's headline selectivity
        metric — so exported stats need no recomputation downstream.
        """
        data = dataclasses.asdict(self)
        if window_count is not None:
            data["filter_ratio"] = self.filter_ratio(window_count)
        return data


@dataclasses.dataclass
class SearchResult:
    """The answer to one twin subsequence query.

    ``positions`` holds the 0-based start offsets of every twin, sorted
    ascending; ``distances`` holds the corresponding exact Chebyshev
    distances (aligned with ``positions``).
    """

    positions: np.ndarray
    distances: np.ndarray
    stats: QueryStats = dataclasses.field(default_factory=QueryStats)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=POSITION_DTYPE)
        self.distances = np.asarray(self.distances, dtype=float)
        if self.positions.shape != self.distances.shape:
            raise ValueError(
                "positions and distances must align, got "
                f"{self.positions.shape} vs {self.distances.shape}"
            )

    def __len__(self) -> int:
        return int(self.positions.size)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(zip(self.positions.tolist(), self.distances.tolist()))

    def __repr__(self) -> str:
        return f"SearchResult(matches={len(self)})"

    @classmethod
    def empty(cls, stats: QueryStats | None = None) -> "SearchResult":
        """A result with no matches."""
        return cls(
            positions=np.empty(0, dtype=POSITION_DTYPE),
            distances=np.empty(0, dtype=float),
            stats=stats or QueryStats(),
        )

    def sorted(self) -> "SearchResult":
        """Copy with positions ascending (all methods return sorted
        results, this is a defensive helper for tests and merging)."""
        order = np.argsort(self.positions, kind="stable")
        return SearchResult(
            positions=self.positions[order],
            distances=self.distances[order],
            stats=self.stats,
        )


@dataclasses.dataclass
class BuildStats:
    """Counters describing one index construction (Figure 8 context)."""

    #: wall-clock seconds spent building.
    seconds: float = 0.0
    #: windows inserted.
    windows: int = 0
    #: node splits performed (tree indices only).
    splits: int = 0
    #: final tree height in levels, leaves = 1 (tree indices only).
    height: int = 0
    #: final node count (tree indices) or bin count (KV-Index).
    nodes: int = 0

    def as_dict(self) -> dict:
        """Plain-dict form for report tables."""
        return dataclasses.asdict(self)
