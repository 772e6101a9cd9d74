"""``repro.obs`` — zero-dependency observability for the serving stack.

Three pieces, all stdlib-only:

* :mod:`repro.obs.metrics` — thread-safe :class:`Counter`,
  :class:`Gauge`, and fixed-bucket :class:`Histogram` in a named
  :class:`MetricsRegistry`, with a process default registry and a
  :data:`NULL_REGISTRY` that turns all instrumentation into no-ops;
* :mod:`repro.obs.export` — Prometheus text exposition
  (:func:`to_prometheus`) and a stable JSON snapshot
  (:func:`to_json` / :func:`json_snapshot`);
* :mod:`repro.obs.trace` — per-stage query spans
  (``prepare → plan → execute → merge → verify``) with interval
  sampling and a bounded ring buffer of recent traces.

Plus :func:`configure_logging` for the library's structured
:mod:`logging` events (silent by default via ``NullHandler``).

Quickstart
----------
>>> from repro.obs import default_registry, to_prometheus
>>> registry = default_registry()
>>> registry.counter("demo_total", "Demo events.").inc()
>>> print(to_prometheus(registry))  # doctest: +SKIP
# HELP demo_total Demo events.
# TYPE demo_total counter
demo_total 1
"""

from .export import json_snapshot, to_json, to_prometheus
from .logsetup import configure_logging, get_logger, install_null_handler
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    resolve_registry,
    set_default_registry,
)
from .trace import (
    DEFAULT_TRACE_CAPACITY,
    NULL_TRACE,
    NullTrace,
    QueryTrace,
    Span,
    Tracer,
    activate_trace,
    current_trace,
    deactivate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "default_registry",
    "set_default_registry",
    "resolve_registry",
    "to_prometheus",
    "to_json",
    "json_snapshot",
    "QueryTrace",
    "Span",
    "Tracer",
    "NullTrace",
    "NULL_TRACE",
    "DEFAULT_TRACE_CAPACITY",
    "current_trace",
    "activate_trace",
    "deactivate_trace",
    "configure_logging",
    "get_logger",
    "install_null_handler",
]
