"""Benchmark harness: workloads, runners and reporting for every
table and figure of the paper's evaluation (Section 6).

The harness is importable (used by the pytest-benchmark suites under
``benchmarks/``) and runnable (via ``python -m repro.cli``), and every
experiment definition lives in :mod:`repro.bench.experiments` keyed by
the paper's figure/table number.
"""

from .harness import ExperimentResult, MethodTiming, run_query_experiment
from .memory import index_memory_bytes, memory_report
from .reporting import format_series_table, format_table, to_markdown
from .timing import Timer
from .workloads import QueryWorkload, generate_workload

__all__ = [
    "ExperimentResult",
    "MethodTiming",
    "QueryWorkload",
    "Timer",
    "format_series_table",
    "format_table",
    "generate_workload",
    "index_memory_bytes",
    "memory_report",
    "run_query_experiment",
    "to_markdown",
]
