"""QuerySpec — the single description and preparation of a twin query.

The paper defines one query semantics (all Chebyshev-``ε`` twins of a
window); this module owns the one implementation of everything that
happens *before* an index kernel runs:

* parameter validation (``ε >= 0``, ``k >= 1``, well-formed exclusion
  zones) — previously re-implemented by every plane entry point;
* **domain mapping**: queries arrive either already expressed in the
  index's value domain (``domain="index"``, the default — e.g. a window
  extracted from the indexed source) or in the **raw** value domain
  (``domain="raw"`` — e.g. values read from a file). Under global
  z-normalization a raw query must be mapped with the *series'* moments
  before it is comparable to the indexed windows; that mapping used to
  be open-coded in the CLI and now lives here;
* the final per-query normalization handshake with the window source
  (:func:`prepare_values` is the library's one call site of
  :meth:`~repro.core.windows.WindowSource.prepare_query`).

Planes never call ``source.prepare_query`` directly any more — they go
through :func:`prepare_values`, so validation and mapping behave
identically on every plane.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from .._util import (
    as_float_array,
    check_non_negative,
    check_positive_int,
)
from ..core.normalization import STD_FLOOR, Normalization
from ..exceptions import (
    IncompatibleQueryError,
    InvalidParameterError,
    UnsupportedNormalizationError,
)

#: Query modes the pipeline understands.
MODES = ("search", "knn", "exists", "count", "batch")

#: Value domains a query can arrive in.
DOMAINS = ("index", "raw")


def normalize_exclude(exclude: Any) -> tuple[int, int] | None:
    """Validate and normalize a k-NN exclusion zone to ``(int, int)``.

    The one implementation of the ``start <= stop`` check previously
    duplicated by the sharded and live planes.
    """
    if exclude is None:
        return None
    try:
        start, stop = int(exclude[0]), int(exclude[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidParameterError(
            f"exclude must be a (start, stop) pair, got {exclude!r}"
        ) from exc
    if start > stop:
        raise InvalidParameterError(
            f"exclude range must satisfy start <= stop, got {exclude}"
        )
    return (start, stop)


def map_raw_to_index_domain(source: Any, values: Any) -> np.ndarray:
    """Map raw-value-domain query values into ``source``'s domain.

    Under ``GLOBAL`` the index holds windows of the z-normalized series
    and expects normalized-domain queries; the mapping uses the
    *series'* moments — elementwise, so a raw slice of the original
    series matches its indexed window exactly. Under ``NONE`` and
    ``PER_WINDOW`` raw values are already comparable (per-window scaling
    is applied by the source's own preparation).
    """
    values = as_float_array(values, name="query")
    if source.normalization is not Normalization.GLOBAL:
        return values
    raw = np.asarray(source.series.values)
    std = float(raw.std())
    if std < STD_FLOOR:
        return np.zeros_like(values)
    return (values - float(raw.mean())) / std


def check_varlength_query(query: Any, length: int, normalization: Any) -> np.ndarray:
    """Validate a variable-length query from the plane's shape alone.

    The one implementation of the ``m <= l`` acceptance rule —
    coercion, the typed ``m > l`` rejection (``received`` populated),
    and the typed per-window rejection for ``m < l`` — shared by
    :func:`prepare_values` and by planes whose window source may not
    exist yet (a live plane before its first full window). Returns the
    coerced query values.
    """
    values = as_float_array(query, name="query")
    length = int(length)
    if values.size > length:
        raise IncompatibleQueryError(
            f"query length {values.size} exceeds the indexed window "
            f"length {length}",
            expected=length,
            received=values.size,
        )
    if (
        values.size < length
        and Normalization.coerce(normalization) is Normalization.PER_WINDOW
    ):
        raise UnsupportedNormalizationError(
            "variable-length queries are undefined under per-window "
            "z-normalization: indexed windows are normalized over l "
            "points, a shorter query over m points"
        )
    return values


def query_extent(query: Any) -> int | tuple[int, ...] | None:
    """Best-effort length of ``query`` for error reporting: its element
    count for a 1-D query, its shape for anything higher-dimensional,
    ``None`` when the value cannot even be coerced to an array."""
    try:
        array = np.asarray(query)
    except Exception:
        return None
    if array.ndim <= 1:
        return int(array.size)
    return tuple(int(side) for side in array.shape)


def prepare_values(
    source: Any,
    query: Any,
    *,
    domain: str = "index",
    expected: Any = None,
    varlength: bool = False,
) -> np.ndarray:
    """Validate + normalize one query against ``source``.

    This is the library's single call site of
    :meth:`~repro.core.windows.WindowSource.prepare_query`; every plane
    routes its query preparation through here. With ``expected`` set
    (the plane's window length), a malformed query raises
    :class:`~repro.exceptions.IncompatibleQueryError` instead of the
    plain parameter error — the convention of the TS-Index planes.

    With ``varlength=True`` any query of length ``m <= l`` is accepted:
    shorter queries are validated and domain-mapped here but skip the
    source's fixed-length handshake (a prefix query is compared against
    window *prefixes*, so no per-query normalization applies — and the
    per-window regime is rejected with a typed error, because windows
    normalized over ``l`` points are not comparable with a query over
    ``m`` points). ``m == l`` behaves exactly like the fixed path.
    """
    if domain not in DOMAINS:
        raise InvalidParameterError(
            f"unknown query domain {domain!r}; expected one of {DOMAINS}"
        )
    if domain == "raw":
        query = map_raw_to_index_domain(source, query)
    if varlength:
        values = check_varlength_query(
            query, source.length, source.normalization
        )
        if values.size < int(source.length):
            return values
        query = values
    try:
        return source.prepare_query(query)
    except InvalidParameterError as exc:
        if expected is None:
            raise
        raise IncompatibleQueryError(
            str(exc), expected=expected, received=query_extent(query)
        ) from exc


@dataclasses.dataclass(frozen=True)
class PreparedQuery:
    """A validated :class:`QuerySpec` bound to one window source."""

    #: The spec this preparation executed.
    spec: "QuerySpec"
    #: Prepared query arrays in the index domain (one entry per query;
    #: single-query modes hold exactly one).
    queries: tuple
    #: Validated threshold (``None`` for knn mode).
    epsilon: float | None
    #: Validated neighbour count (``None`` outside knn mode).
    k: int | None
    #: Normalized exclusion zone (knn mode only).
    exclude: tuple[int, int] | None

    @property
    def query(self) -> np.ndarray:
        """The single prepared query of a non-batch mode."""
        return self.queries[0]


@dataclasses.dataclass(frozen=True)
class QuerySpec:
    """One declarative description of a twin query, any mode, any plane.

    ``query`` holds the query values (or, in ``batch`` mode, a sequence
    of them); ``mode`` selects the semantics; ``epsilon``/``k``/
    ``exclude`` parameterize it; ``domain`` says which value domain the
    values arrive in; ``options`` carries per-call kernel options (e.g.
    ``verification``), which the planner drops for the modes and planes
    that take none.

    Validation happens eagerly at construction — a ``QuerySpec`` that
    exists is well-formed, whatever plane it later runs on.

    Examples
    --------
    >>> spec = QuerySpec(query=[0.0, 1.0], mode="search", epsilon=0.5)
    >>> spec.epsilon
    0.5
    >>> QuerySpec(query=[0.0], mode="knn", k=3).k
    3
    """

    query: Any = None
    mode: str = "search"
    epsilon: float | None = None
    k: int | None = None
    exclude: tuple[int, int] | None = None
    domain: str = "index"
    options: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidParameterError(
                f"unknown query mode {self.mode!r}; expected one of {MODES}"
            )
        if self.domain not in DOMAINS:
            raise InvalidParameterError(
                f"unknown query domain {self.domain!r}; "
                f"expected one of {DOMAINS}"
            )
        if self.mode == "knn":
            if self.k is None:
                raise InvalidParameterError("knn mode requires k")
            object.__setattr__(
                self, "k", check_positive_int(self.k, name="k")
            )
            object.__setattr__(
                self, "exclude", normalize_exclude(self.exclude)
            )
        else:
            if self.epsilon is None:
                raise InvalidParameterError(
                    f"{self.mode} mode requires epsilon"
                )
            if self.exclude is not None:
                raise InvalidParameterError(
                    "exclude is only meaningful in knn mode"
                )
            object.__setattr__(
                self,
                "epsilon",
                check_non_negative(self.epsilon, name="epsilon"),
            )

    @property
    def is_batch(self) -> bool:
        """Whether ``query`` holds a workload rather than one query."""
        return self.mode == "batch"

    def query_list(self) -> list:
        """The raw (unprepared) queries, always as a list."""
        if self.is_batch:
            return list(self.query)
        return [self.query]

    def prepare(self, source: Any) -> PreparedQuery:
        """Validate and map every query into ``source``'s index domain.

        The one ``prepare()`` of the pipeline: after this, the values
        are exactly what any plane's kernel expects, regardless of the
        arrival domain or the normalization regime. Any query length
        ``m <= l`` is accepted — shorter queries are the
        variable-length workload the planner serves through prefix
        kernels (``m > l``, and ``m < l`` under the per-window regime,
        raise the library's typed errors here).
        """
        queries = tuple(
            prepare_values(
                source, query, domain=self.domain, varlength=True
            )
            for query in self.query_list()
        )
        return PreparedQuery(
            spec=self,
            queries=queries,
            epsilon=self.epsilon,
            k=self.k,
            exclude=self.exclude,
        )
