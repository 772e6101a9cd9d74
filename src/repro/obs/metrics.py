"""Zero-dependency, thread-safe metrics core for the serving stack.

The paper's evaluation reports wall-clock query time alongside the
filter/verification cost split; at runtime those numbers come from this
module. Three metric types in the classic exposition model:

* :class:`Counter` — monotonically increasing totals (queries served,
  readings ingested, seals performed);
* :class:`Gauge` — point-in-time values, either set explicitly or
  computed lazily at scrape time through :meth:`Gauge.set_function`
  (cache hit rate, ingest lag);
* :class:`Histogram` — fixed-bucket latency distributions with a
  :meth:`Histogram.time` context manager (one monotonic clock read on
  entry, one on exit) and p50/p90/p99 estimates interpolated from the
  bucket counts.

Metrics live in a named :class:`MetricsRegistry`. All three types
support labels (``counter.labels(mode="search").inc()``); label
children are created on first use and cached. Registration is
get-or-create: asking for an existing name with a matching type and
label set returns the existing metric, so independent modules can
instrument themselves against the shared process registry
(:func:`default_registry`) without coordination.

Instrumentation can be turned off wholesale: :data:`NULL_REGISTRY`
implements the same surface with shared no-op metric objects — one
attribute lookup and one call per would-be update, nothing recorded.
``set_default_registry(NULL_REGISTRY)`` disables every library-level
metric in the process; twinbench's ``obs.overhead_pct`` probe measures
the enabled-vs-disabled difference on the hot query path.

All counters are exact under concurrency: every update takes the
metric's lock (plain ``+=`` on a Python int is a read-modify-write and
can lose updates between threads), which the concurrency tests verify
by hammering from many threads and asserting the exact total.

Examples
--------
>>> registry = MetricsRegistry("demo")
>>> queries = registry.counter("queries_total", "Queries served.",
...                            labels=("mode",))
>>> queries.labels(mode="search").inc()
>>> queries.labels(mode="search").value
1.0
>>> latency = registry.histogram("query_seconds", "Query latency.")
>>> with latency.time():
...     pass
>>> latency.count
1
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Any

from ..exceptions import InvalidParameterError

#: Default latency buckets (seconds) — sub-millisecond through tens of
#: seconds, Prometheus-style; the implicit +Inf bucket is always added.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name or not all(
        part.isidentifier() for part in name.split(":")
    ):
        raise InvalidParameterError(
            f"metric name must be a non-empty identifier, got {name!r}"
        )
    return name


class _Timer:
    """Class-based timing context manager (cheaper than a generator):
    one ``perf_counter`` read on enter, one on exit."""

    __slots__ = ("_metric", "_started")

    def __init__(self, metric: Any) -> None:
        self._metric = metric

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._metric.observe(time.perf_counter() - self._started)


class _Metric:
    """Shared machinery: identity, labels, child management."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: tuple = ()) -> None:
        self.name = _check_name(name)
        self.help = str(help)
        self.label_names = tuple(str(label) for label in labels)
        self._lock = threading.Lock()
        self._children: dict[tuple, "_Metric"] = {}  # lint: guarded-by(_lock)
        self._init_value()

    def _init_value(self) -> None:  # lint: holds(_lock) constructor helper, object not yet shared
        self._value = 0.0  # lint: guarded-by(_lock)

    # ------------------------------------------------------------------
    def labels(self, **label_values: Any) -> "_Metric":
        """The child metric for one label-value combination (created on
        first use, cached after)."""
        if not self.label_names:
            raise InvalidParameterError(
                f"metric {self.name!r} declares no labels"
            )
        try:
            key = tuple(str(label_values[k]) for k in self.label_names)
        except KeyError as exc:
            raise InvalidParameterError(
                f"metric {self.name!r} requires labels "
                f"{self.label_names}, got {sorted(label_values)}"
            ) from exc
        if len(label_values) != len(self.label_names):
            raise InvalidParameterError(
                f"metric {self.name!r} requires labels "
                f"{self.label_names}, got {sorted(label_values)}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
            return child

    def _new_child(self) -> "_Metric":
        child = object.__new__(type(self))
        child.name = self.name
        child.help = self.help
        child.label_names = ()
        child._copy_config(self)
        child._lock = threading.Lock()
        child._children = {}
        child._init_value()
        return child

    def _copy_config(self, parent: "_Metric") -> None:
        """Copy subtype configuration (e.g. histogram buckets) from the
        parent before ``_init_value`` runs on the child."""

    def _check_leaf(self) -> None:
        if self.label_names:
            raise InvalidParameterError(
                f"metric {self.name!r} is labelled; select a child with "
                f".labels({', '.join(self.label_names)}=...) first"
            )

    def samples(self) -> list[tuple[tuple, "_Metric"]]:
        """``(label_values, leaf)`` pairs in insertion order; a single
        ``((), self)`` pair for unlabelled metrics."""
        if not self.label_names:
            return [((), self)]
        with self._lock:
            return list(self._children.items())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    _value: float  # lint: guarded-by(_lock)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        self._check_leaf()
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A point-in-time value; set directly or computed at read time."""

    kind = "gauge"

    def _init_value(self) -> None:  # lint: holds(_lock) constructor helper, object not yet shared
        self._value = 0.0  # lint: guarded-by(_lock)
        self._function = None  # lint: guarded-by(_lock)

    def set(self, value: float) -> None:
        """Set the gauge to ``value`` (clears any read-time callback)."""
        self._check_leaf()
        with self._lock:
            self._value = float(value)
            self._function = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self._check_leaf()
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    def set_function(self, function: Any) -> None:
        """Compute the gauge lazily: ``function()`` runs at every read
        (exports observe live state without per-update bookkeeping)."""
        self._check_leaf()
        with self._lock:
            self._function = function

    @property
    def value(self) -> float:
        with self._lock:
            function = self._function
            if function is None:
                return self._value
        # Run callbacks outside the lock; they may read other metrics.
        return float(function())


class Histogram(_Metric):
    """A fixed-bucket distribution with quantile estimates.

    ``buckets`` holds the upper bounds (ascending); an implicit +Inf
    bucket catches everything beyond the last bound. Quantiles are
    estimated by linear interpolation inside the bucket containing the
    target rank — exact enough for dashboard p50/p99 at a fraction of
    the cost of storing observations.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: tuple = (),
        buckets: Any = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise InvalidParameterError(
                f"histogram {name!r} buckets must be a non-empty "
                f"ascending sequence, got {buckets!r}"
            )
        self.buckets = bounds
        super().__init__(name, help, labels)

    def _init_value(self) -> None:  # lint: holds(_lock) constructor helper, object not yet shared
        self._counts = [0] * (len(self.buckets) + 1)  # lint: guarded-by(_lock)
        self._sum = 0.0  # lint: guarded-by(_lock)
        self._count = 0  # lint: guarded-by(_lock)

    def _copy_config(self, parent: "_Metric") -> None:
        self.buckets = parent.buckets

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._check_leaf()
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> _Timer:
        """A context manager observing the wrapped block's duration in
        seconds (monotonic clock)."""
        return _Timer(self)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> tuple[list[int], float, int]:
        """A consistent ``(bucket_counts, sum, count)`` triple."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the buckets.

        Linear interpolation inside the target bucket; observations in
        the +Inf bucket clamp to the largest finite bound. 0.0 when the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise InvalidParameterError(f"quantile must be in [0, 1], got {q}")
        counts, _, total = self.snapshot()
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count > 0:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = self.buckets[index]
                fraction = (rank - previous) / count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.buckets[-1]

    def percentiles(self) -> dict:
        """The standard dashboard triple (seconds)."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named, thread-safe collection of metrics.

    Registration is get-or-create: :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` return the existing metric when the name is
    already registered with a matching type and label set, and raise
    :class:`~repro.exceptions.InvalidParameterError` on a mismatch —
    two modules can never silently write to each other's metric under
    conflicting schemas.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = str(name)
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}  # lint: guarded-by(_lock)
        # Monotonic origin: ages derived from it survive wall-clock
        # steps (NTP), which would otherwise corrupt every rate that
        # divides by the registry's age.
        self._created = time.perf_counter()

    # ------------------------------------------------------------------
    def _get_or_create(
        self, cls: Any, name: str, help: str, labels: Any, **kwargs: Any
    ) -> _Metric:
        labels = tuple(str(label) for label in labels)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != labels:
                    raise InvalidParameterError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind} with labels "
                        f"{existing.label_names}, cannot re-register as "
                        f"a {cls.kind} with labels {labels}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Any = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Any = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Any = (),
        buckets: Any = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> _Metric | None:
        """The registered metric under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def unregister(self, name: str) -> None:
        """Drop the metric under ``name`` (no-op when absent)."""
        with self._lock:
            self._metrics.pop(name, None)

    def clear(self) -> None:
        """Drop every metric (primarily for tests)."""
        with self._lock:
            self._metrics.clear()

    def collect(self) -> list[_Metric]:
        """Every registered metric, sorted by name (the exporters'
        entry point)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    @property
    def age_seconds(self) -> float:
        """Seconds since this registry was created (used by exports to
        derive rates such as QPS). Monotonic: immune to wall-clock
        steps."""
        return max(1e-9, time.perf_counter() - self._created)

    def __contains__(self, name: Any) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({self.name!r}, metrics={len(self)})"


# ----------------------------------------------------------------------
# The no-op registry (instrumentation disabled)
# ----------------------------------------------------------------------
class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_TIMER = _NullTimer()


class _NullMetric:
    """A shared do-nothing metric: every update is one attribute lookup
    and one call, nothing is stored."""

    __slots__ = ()
    kind = "null"
    name = "null"
    help = ""
    label_names = ()
    buckets = DEFAULT_BUCKETS

    def labels(self, **label_values: Any) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_function(self, function: Any) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return _NULL_TIMER

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def snapshot(self) -> tuple[list[int], float, int]:
        return [0] * (len(DEFAULT_BUCKETS) + 1), 0.0, 0

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> dict:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    def samples(self) -> list:
        return []


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """A registry whose metrics discard everything (instrumentation
    off). Exports see an empty collection."""

    name = "null"
    age_seconds = 1e-9

    def counter(self, name: str, help: str = "", labels: Any = ()) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", labels: Any = ()) -> _NullMetric:
        return _NULL_METRIC

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Any = (),
        buckets: Any = DEFAULT_BUCKETS,
    ) -> _NullMetric:
        return _NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def unregister(self, name: str) -> None:
        pass

    def clear(self) -> None:
        pass

    def collect(self) -> list:
        return []

    def __contains__(self, name: Any) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The shared disabled registry.
NULL_REGISTRY = NullRegistry()

# ----------------------------------------------------------------------
# Process default registry
# ----------------------------------------------------------------------
_default_lock = threading.Lock()
_default_registry = MetricsRegistry("repro")


def default_registry() -> MetricsRegistry:
    """The process-wide registry library instrumentation writes to."""
    with _default_lock:
        return _default_registry


def set_default_registry(registry: Any) -> MetricsRegistry:
    """Swap the process default registry (pass :data:`NULL_REGISTRY` to
    disable library-level instrumentation); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


class HandleCache:
    """Lazy, registry-tracking metric handles for module-level
    instrumentation.

    Library modules (planner, sharding, live plane) record into the
    *current* default registry, which tests and benchmarks swap at
    runtime. ``HandleCache(builder)`` calls ``builder(registry)`` once
    per observed registry and returns the cached handles afterwards, so
    the hot path pays one identity check instead of registry lookups.
    The unlocked check is a benign race: rebuilding is idempotent
    because registration is get-or-create.
    """

    __slots__ = ("_builder", "_registry", "_handles")

    def __init__(self, builder: Any) -> None:
        self._builder = builder
        self._registry = None
        self._handles = None

    def __call__(self) -> Any:
        registry = default_registry()
        if registry is not self._registry:
            self._handles = self._builder(registry)
            self._registry = registry
        return self._handles


def resolve_registry(metrics: Any) -> MetricsRegistry:
    """Normalize a ``metrics=`` constructor argument: ``None``/``True``
    → the process default registry, ``False`` → :data:`NULL_REGISTRY`,
    a registry instance → itself."""
    if metrics is None or metrics is True:
        return default_registry()
    if metrics is False:
        return NULL_REGISTRY
    return metrics
