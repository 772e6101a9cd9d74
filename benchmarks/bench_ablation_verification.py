"""Ablation: verification strategy (the reproduction's cost model).

The harness reproduces the paper's figures under ``per_candidate``
verification (each candidate fetched individually, as the paper reads
candidates from disk by random access). This ablation quantifies how
much the pure-NumPy ``bulk`` verifier changes the picture — the
reproduction's main deviation (EXPERIMENTS.md, "Deviations from the
paper"): bulk verification compresses the gap between filter-quality
tiers because verifying a candidate costs nanoseconds instead of
microseconds.
"""

import pytest

from repro.bench.experiments import ALL_METHODS, DEFAULT_LENGTH
from repro.core.verification import VERIFICATION_MODES

from conftest import default_epsilon, get_method, get_workload

DATASET = "insect"
NORMALIZATION = "global"


def _run(engine, workload, epsilon, mode):
    total = 0
    for query in workload:
        total += len(engine.search(query, epsilon, verification=mode))
    return total


@pytest.mark.benchmark(max_time=0.6, min_rounds=2, warmup=False)
@pytest.mark.parametrize("mode", VERIFICATION_MODES)
@pytest.mark.parametrize("method", ALL_METHODS)
def test_ablation_verification_mode(benchmark, method, mode):
    engine = get_method(DATASET, method, DEFAULT_LENGTH, NORMALIZATION)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    benchmark.group = f"ablation-verification-{method}"
    matches = benchmark(_run, engine, workload, epsilon, mode)
    benchmark.extra_info["matches"] = matches


@pytest.mark.parametrize("method", ALL_METHODS)
def test_verification_modes_agree(method):
    """All strategies return identical twins (correctness gate)."""
    engine = get_method(DATASET, method, DEFAULT_LENGTH, NORMALIZATION)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    counts = {
        mode: _run(engine, workload, epsilon, mode)
        for mode in VERIFICATION_MODES
    }
    assert len(set(counts.values())) == 1, counts
