"""Experiment runner: time a query workload against built methods.

The paper reports *average response time per query in milliseconds* for
each method under each parameter setting. :func:`run_query_experiment`
reproduces exactly that protocol: run every query of the workload
through a built method, average the wall-clock time, and keep the
aggregate filter/pruning statistics (our hardware-independent addition).
"""

from __future__ import annotations

import dataclasses
import gc
import time

from ..core.stats import QueryStats
from .workloads import QueryWorkload


@dataclasses.dataclass
class MethodTiming:
    """Aggregated measurements for one method under one setting."""

    method: str
    #: average per-query wall-clock milliseconds.
    avg_query_ms: float
    #: total matches over the workload.
    total_matches: int
    #: aggregate structural counters over the workload.
    stats: QueryStats
    #: index construction seconds (0 for sweepline).
    build_seconds: float = 0.0

    def as_row(self) -> dict:
        """Flat dict for the report tables."""
        return {
            "method": self.method,
            "avg_query_ms": round(self.avg_query_ms, 3),
            "matches": self.total_matches,
            "candidates": self.stats.candidates,
            "nodes_visited": self.stats.nodes_visited,
            "nodes_pruned": self.stats.nodes_pruned,
            "build_s": round(self.build_seconds, 3),
        }


@dataclasses.dataclass
class ExperimentResult:
    """All method timings for one experiment setting."""

    label: str
    parameters: dict
    timings: list[MethodTiming]

    def as_rows(self) -> list[dict]:
        """One flat dict per method, parameters included."""
        rows = []
        for timing in self.timings:
            row = dict(self.parameters)
            row.update(timing.as_row())
            rows.append(row)
        return rows


def time_workload(
    method,
    workload: QueryWorkload,
    epsilon: float,
    *,
    search_options: dict | None = None,
) -> MethodTiming:
    """Run every workload query through ``method`` at ``epsilon``.

    ``search_options`` are forwarded to each ``search`` call — the
    harness uses ``{"verification": "per_candidate"}`` to reproduce the
    paper's cost model (candidates fetched one at a time, as from disk).
    """
    name = getattr(method, "method_name", type(method).__name__.lower())
    result = run_query_experiment(
        name, {name: method}, workload, epsilon, search_options=search_options
    )
    return result.timings[0]


def run_query_experiment(
    label: str,
    methods: dict,
    workload: QueryWorkload,
    epsilon: float,
    parameters: dict | None = None,
    *,
    search_options: dict | None = None,
) -> ExperimentResult:
    """Time a workload against several built methods, one query at a
    time: each query runs through every method before the next starts.

    On a shared machine, whole stretches of work run up to ~1.7x
    slower, every method alike, for a few hundred ms at a time (measured
    on a 2-core box) — longer than a smoke-scale cell spends on one
    method. Timed method after method, one could read fast and the next
    slow; interleaved per query, every method sees the same stretches
    in the same share.

    ``methods`` maps display names to built method objects; the returned
    result preserves insertion order.
    """
    search_options = search_options or {}
    seconds = dict.fromkeys(methods, 0.0)
    matches = dict.fromkeys(methods, 0)
    stats = {name: QueryStats() for name in methods}
    # As timeit does: a generational collection landing inside one
    # method's search — tens of ms over the node objects of every tree
    # built so far — would be charged to that method.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for query in workload:
            for name, method in methods.items():
                started = time.perf_counter()
                result = method.search(query, epsilon, **search_options)
                seconds[name] += time.perf_counter() - started
                matches[name] += len(result)
                stats[name] = stats[name].merge(result.stats)
    finally:
        if collecting:
            gc.enable()
    count = max(1, len(workload))
    timings = [
        MethodTiming(
            method=name,
            avg_query_ms=1000.0 * seconds[name] / count,
            total_matches=matches[name],
            stats=stats[name],
            build_seconds=method.build_stats.seconds,
        )
        for name, method in methods.items()
    ]
    return ExperimentResult(
        label=label, parameters=dict(parameters or {}), timings=timings
    )
