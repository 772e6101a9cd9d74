"""Benchmark harness: workloads, runners and reporting for every
table and figure of the paper's evaluation (Section 6).

One *run* step (:func:`repro.bench.experiments.run_all`, behind
``repro-twin run``) measures every experiment once and writes
EXPERIMENTS.json through :func:`repro.bench.record.write_artifact`; one
*evaluate* step (:func:`repro.bench.record.evaluate`, behind
``repro-twin evaluate``) renders that file as EXPERIMENTS.md. The
ablation suites under ``benchmarks/`` reuse the experiment context.
"""

from .harness import ExperimentResult, MethodTiming, run_query_experiment
from .memory import index_memory_bytes, memory_report
from .reporting import format_table, to_markdown
from .timing import Timer
from .workloads import QueryWorkload

__all__ = [
    "ExperimentResult",
    "MethodTiming",
    "QueryWorkload",
    "Timer",
    "format_table",
    "index_memory_bytes",
    "memory_report",
    "run_query_experiment",
    "to_markdown",
]
