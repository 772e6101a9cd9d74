"""Twin search over a *collection* of time series.

The paper indexes a single series; the broader iSAX literature it
builds on (Section 2) indexes collections. ``CollectionIndex`` is the
fan-out facade: one index per member series (any registered method) and
query routing that merges per-series answers into globally-ranked
results tagged with their series of origin.

Fan-out is exact: a window exists in exactly one member series, so the
union of per-series answers is the collection answer, and k-NN merges
per-series top-k lists.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

import numpy.typing as npt

from .._util import check_non_negative, check_positive_int
from ..exceptions import InvalidParameterError
from .normalization import Normalization
from .series import TimeSeries
from .stats import QueryStats


@dataclasses.dataclass(frozen=True)
class CollectionMatch:
    """One twin found in a collection: which series, where, how far."""

    series_id: int
    position: int
    distance: float


class CollectionIndex:
    """Per-series indices + exact fan-out search over a collection.

    Parameters
    ----------
    collection:
        A sequence of 1-D series (lengths may differ; each must be at
        least ``length`` long).
    length:
        Window length ``l`` shared by all member indices.
    normalization:
        Regime applied *per series* (GLOBAL normalizes each member by
        its own statistics, the convention of multi-series archives).
    method:
        Any name accepted by :func:`repro.indices.base.create_method`
        (default: the paper's TS-Index).
    """

    def __init__(
        self,
        collection: Iterable[TimeSeries | npt.ArrayLike],
        length: int,
        *,
        normalization: Normalization | str = Normalization.GLOBAL,
        method: str = "tsindex",
        **method_options: Any,
    ):
        from ..indices.base import create_method

        length = check_positive_int(length, name="length")
        members = [
            series if isinstance(series, TimeSeries) else TimeSeries(series)
            for series in collection
        ]
        if not members:
            raise InvalidParameterError("collection must not be empty")
        for series_id, series in enumerate(members):
            if len(series) < length:
                raise InvalidParameterError(
                    f"series {series_id} has {len(series)} points, "
                    f"shorter than the window length {length}"
                )
        self._length = length
        self._indices = [
            create_method(
                method, series, length,
                normalization=normalization, **method_options,
            )
            for series in members
        ]

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """The shared window length."""
        return self._length

    @property
    def series_count(self) -> int:
        """Number of member series."""
        return len(self._indices)

    @property
    def window_count(self) -> int:
        """Total windows across the collection."""
        return sum(index.source.count for index in self._indices)

    def member(self, series_id: int) -> Any:
        """The underlying index of one member series."""
        return self._indices[series_id]

    def __repr__(self) -> str:
        return (
            f"CollectionIndex(series={self.series_count}, "
            f"windows={self.window_count}, length={self._length})"
        )

    # ------------------------------------------------------------------
    def search(self, query: npt.ArrayLike, epsilon: float) -> list[CollectionMatch]:
        """All twins of ``query`` anywhere in the collection.

        Results are sorted by ``(series_id, position)``.
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        matches: list[CollectionMatch] = []
        for series_id, index in enumerate(self._indices):
            result = index.search(query, epsilon)
            for position, distance in result:
                matches.append(
                    CollectionMatch(
                        series_id=series_id,
                        position=int(position),
                        distance=float(distance),
                    )
                )
        return matches

    def knn(self, query: npt.ArrayLike, k: int) -> list[CollectionMatch]:
        """The ``k`` nearest windows across the whole collection.

        Every member answers — natively (TS-Index, the sweepline's
        scan) or through the query planner's exact-scan synthesis
        (KV-Index, iSAX); per-series top-k lists are merged and
        re-ranked globally.
        """
        k = check_positive_int(k, name="k")
        candidates: list[CollectionMatch] = []
        for series_id, index in enumerate(self._indices):
            local_k = min(k, index.source.count)
            result = index.knn(query, local_k)
            for position, distance in result:
                candidates.append(
                    CollectionMatch(
                        series_id=series_id,
                        position=int(position),
                        distance=float(distance),
                    )
                )
        candidates.sort(key=lambda m: (m.distance, m.series_id, m.position))
        return candidates[:k]

    def count(self, query: npt.ArrayLike, epsilon: float) -> int:
        """Total twins across the collection."""
        return len(self.search(query, epsilon))

    def count_per_series(self, query: npt.ArrayLike, epsilon: float) -> list[int]:
        """Twin count per member series (ranking which series contain
        the pattern — the cross-archive use case)."""
        epsilon = check_non_negative(epsilon, name="epsilon")
        return [
            len(index.search(query, epsilon)) for index in self._indices
        ]

    def aggregate_stats(self, query: npt.ArrayLike, epsilon: float) -> QueryStats:
        """Merged structural counters across members for one query."""
        epsilon = check_non_negative(epsilon, name="epsilon")
        total = QueryStats()
        for index in self._indices:
            total = total.merge(index.search(query, epsilon).stats)
        return total
