"""Common interface and factory for every twin-search method.

Each method (sweepline, KV-Index, iSAX, TS-Index) exposes the same
surface — build over a :class:`~repro.core.windows.WindowSource`, answer
``search(query, epsilon)`` with a :class:`~repro.core.stats.SearchResult`
— so the benchmark harness, the equivalence tests and the CLI can treat
them uniformly by name.

Beyond the paper surface, :class:`SubsequenceIndex` carries **default
implementations of every other query mode**: ``knn`` is the exact scan
(:func:`~repro.query.planner.scan_knn`), ``search_varlength`` the prefix
scan, ``search_batch`` a loop over the queries, and ``exists`` /
``count`` the length of a search — so even a search-only method is
fully servable by :class:`~repro.engine.executor.QueryEngine`. A plane
with a faster kernel overrides the method; the planner
(:mod:`repro.query.planner`) calls whatever the plane has.

Planes self-register with the :func:`repro.query.register_plane`
decorator; :func:`create_method` resolves names through that registry
instead of a hard-coded ``if/elif`` chain.
"""

from __future__ import annotations

import abc
from typing import Any, Iterable

import numpy.typing as npt

from .._util import check_non_negative, check_positive_int
from ..core.batch import BatchResult
from ..core.normalization import Normalization
from ..core.stats import BuildStats, SearchResult
from ..core.windows import WindowSource
from ..query.merge import batch_result
from ..query.planner import scan_knn
from ..query.spec import normalize_exclude
from ..query.varlength import is_prefix_query, scan_prefix_knn, scan_prefix_search

#: Canonical paper-method names, in the order the paper's figures list
#: them. Extended planes (frozen, sharded, live) are listed by
#: :func:`extended_methods`.
METHOD_NAMES = ("sweepline", "kvindex", "isax", "tsindex")


class SubsequenceIndex(abc.ABC):
    """Abstract twin-search method over the windows of one series.

    Subclasses must bring ``search``; every other query mode has a
    default here. A subclass with a faster kernel overrides the method,
    and the planner (and the engine) call it.
    """

    #: Registry name; subclasses override.
    method_name: str = ""

    @classmethod
    @abc.abstractmethod
    def from_source(cls, source: WindowSource, **kwargs: Any) -> "SubsequenceIndex":
        """Build (or wrap) the method over a prepared window source."""

    @abc.abstractmethod
    def search(self, query: npt.ArrayLike, epsilon: float) -> SearchResult:
        """All twins of ``query`` within Chebyshev ``epsilon``."""

    @property
    @abc.abstractmethod
    def source(self) -> WindowSource:
        """The window source this method answers queries over."""

    @property
    @abc.abstractmethod
    def build_stats(self) -> BuildStats:
        """Counters recorded while building."""

    # ------------------------------------------------------------------
    # Defaults (planes with a faster kernel override them)
    # ------------------------------------------------------------------
    def knn(
        self, query: npt.ArrayLike, k: int, *, exclude: tuple[int, int] | None = None
    ) -> SearchResult:
        """The ``k`` nearest windows by Chebyshev distance, ranked by
        the library-wide ``(distance, position)`` tie-break (default:
        the exact blockwise scan; a query shorter than ``l`` scans
        every ``m``-window, tail included)."""
        k = check_positive_int(k, name="k")
        exclude = normalize_exclude(exclude)
        if is_prefix_query(query, self.source.length):
            return scan_prefix_knn(self.source, query, k, exclude=exclude)
        return scan_knn(self.source, query, k, exclude=exclude)

    def exists(self, query: npt.ArrayLike, epsilon: float) -> bool:
        """Whether any twin exists (default: whether :meth:`count` is
        non-zero)."""
        return self.count(query, epsilon) > 0

    def search_batch(
        self, queries: Iterable[npt.ArrayLike], epsilon: float, **search_options: Any
    ) -> BatchResult:
        """Run a whole workload; per-query results plus aggregates
        (default: one :meth:`search_varlength` per query, in order)."""
        epsilon = check_non_negative(epsilon, name="epsilon")
        results = [
            self.search_varlength(query, epsilon, **search_options)
            for query in queries
        ]
        return batch_result(results, epsilon)

    def count(self, query: npt.ArrayLike, epsilon: float) -> int:
        """Number of twins (default: the length of the plane's own
        search, :meth:`search_varlength` for a shorter query)."""
        return len(self.search_varlength(query, epsilon))

    def search_varlength(
        self, query: npt.ArrayLike, epsilon: float, **search_options: Any
    ) -> SearchResult:
        """All twins of a query of length ``m <= l``, tail positions
        included (default: the prefix scan,
        :func:`~repro.query.varlength.scan_prefix_search`). ``m == l``
        is :meth:`search`."""
        if not is_prefix_query(query, self.source.length):
            return self.search(query, epsilon, **search_options)
        return scan_prefix_search(self.source, query, epsilon, **search_options)


def available_methods(*, extended: bool = False) -> tuple[str, ...]:
    """Names accepted by :func:`create_method`.

    By default the paper's four methods (the tuple the figures sweep);
    with ``extended=True`` the extended serving planes (frozen, sharded,
    live) are appended. Both listings are driven by the registration
    decorator, so they always name exactly what works.
    """
    from ..query.registration import plane_names

    paper = plane_names(paper=True)
    if not extended:
        return paper
    return paper + plane_names(paper=False)


def extended_methods() -> tuple[str, ...]:
    """The extended (beyond-paper) plane names: read-optimized frozen
    snapshots, the sharded serving engine, the live ingestion plane."""
    from ..query.registration import plane_names

    return plane_names(paper=False)


def create_method(
    name: str,
    series: npt.ArrayLike,
    length: int,
    *,
    normalization: Normalization | str = Normalization.GLOBAL,
    **kwargs: Any,
) -> SubsequenceIndex:
    """Build the named method over all ``length``-windows of ``series``.

    ``kwargs`` are forwarded to the method's ``from_source``. This is the
    single entry point the harness and CLI use, so experiments stay
    declarative ("run fig4 with methods=[...]").
    """
    source = WindowSource(series, length, normalization)
    return create_method_from_source(name, source, **kwargs)


def create_method_from_source(
    name: str, source: WindowSource, **kwargs: Any
) -> SubsequenceIndex:
    """Like :func:`create_method` but reusing a prepared source.

    Resolution goes through the plane registry
    (:mod:`repro.query.registration`): planes self-register with the
    ``@register_plane`` decorator, and unknown names raise an error
    listing every registered name.
    """
    from ..query.registration import resolve_plane

    return resolve_plane(name).build(source, **kwargs)
