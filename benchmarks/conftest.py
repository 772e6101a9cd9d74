"""Shared state for the ablation suites.

Index construction dominates benchmark cost, so built methods are cached
per (dataset, method, length, regime) in module scope and shared by all
bench files. Scales are chosen so a suite runs in minutes while
preserving method orderings; the paper's figures themselves are measured
by ``repro-twin run`` and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import functools

from repro.bench.experiments import ExperimentContext

#: Benchmark-time dataset scales (fractions of the paper lengths).
SCALES = {"insect": 0.25, "eeg": 0.03}

#: Queries per timed batch (the paper uses 100; benches time a batch of
#: 5 and report per-query averages via pytest-benchmark statistics).
QUERY_COUNT = 5

#: The paper's cost model: candidates verified one by one (Section 6.1
#: stores the series on disk and fetches each candidate individually).
VERIFICATION = "per_candidate"


@functools.lru_cache(maxsize=None)
def get_context(dataset: str) -> ExperimentContext:
    """One cached context per dataset at benchmark scale."""
    return ExperimentContext(
        dataset=dataset, scale=SCALES[dataset], query_count=QUERY_COUNT
    )


@functools.lru_cache(maxsize=None)
def get_method(dataset: str, method: str, length: int, normalization: str):
    """Cached built method."""
    return get_context(dataset).method(method, length, normalization)


@functools.lru_cache(maxsize=None)
def get_workload(dataset: str, length: int, normalization: str):
    """Cached query workload in the method's value domain."""
    return get_context(dataset).workload(length, normalization)


def run_workload(method, workload, epsilon: float) -> int:
    """The timed unit: answer every workload query; returns matches."""
    total = 0
    for query in workload:
        total += len(method.search(query, epsilon, verification=VERIFICATION))
    return total


def default_epsilon(dataset: str, normalization: str) -> float:
    """Table 1's bold default ε."""
    return get_context(dataset).default_epsilon(normalization)
