"""Benches for the extension features (not paper experiments).

* approximate vs exact search — the accuracy/latency trade of the
  budgeted best-first probe;
* variable-length queries vs full-length queries;
* live append throughput vs batch rebuild.
"""

import numpy as np
import pytest

from repro.bench.experiments import DEFAULT_LENGTH
from repro.core.tsindex import TSIndex
from repro.live import LiveTwinIndex

from conftest import default_epsilon, get_context, get_method, get_workload

DATASET = "insect"
NORMALIZATION = "global"


@pytest.mark.benchmark(max_time=0.6, min_rounds=2, warmup=False)
@pytest.mark.parametrize("mode", ["exact", "approx-1", "approx-8"])
def test_extension_approximate_vs_exact(benchmark, mode):
    index = get_method(DATASET, "tsindex", DEFAULT_LENGTH, NORMALIZATION)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    benchmark.group = "extension-approximate"

    def run():
        total = 0
        for query in workload:
            if mode == "exact":
                total += len(index.search(query, epsilon))
            else:
                budget = int(mode.split("-")[1])
                total += len(
                    index.search_approximate(query, epsilon, max_leaves=budget)
                )
        return total

    matches = benchmark(run)
    exact_total = sum(len(index.search(q, epsilon)) for q in workload)
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["recall"] = round(matches / max(1, exact_total), 3)
    assert matches <= exact_total


@pytest.mark.benchmark(max_time=0.6, min_rounds=2, warmup=False)
@pytest.mark.parametrize("query_length", [25, 50, 100])
def test_extension_variable_length(benchmark, query_length):
    index = get_method(DATASET, "tsindex", DEFAULT_LENGTH, NORMALIZATION)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    benchmark.group = "extension-varlength"

    def run():
        total = 0
        for query in workload.queries[:3]:
            total += len(
                index.search_varlength(query[:query_length], epsilon)
            )
        return total

    matches = benchmark(run)
    benchmark.extra_info["matches"] = matches


@pytest.mark.benchmark(min_rounds=1, max_time=2.0, warmup=False)
def test_extension_streaming_append(benchmark):
    """Throughput of appending 1,000 readings one batch at a time."""
    context = get_context(DATASET)
    values = np.asarray(context.series)[:4000]
    extra = np.asarray(context.series)[4000:5000]
    benchmark.group = "extension-streaming"

    def run():
        with LiveTwinIndex(values, DEFAULT_LENGTH) as stream:
            for start in range(0, extra.size, 100):
                stream.append(extra[start : start + 100])
            return stream.window_count

    windows = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["windows"] = windows


@pytest.mark.benchmark(min_rounds=1, max_time=2.0, warmup=False)
def test_extension_batch_rebuild_baseline(benchmark):
    """The rebuild-from-scratch baseline for the streaming bench."""
    context = get_context(DATASET)
    values = np.asarray(context.series)[:5000]
    benchmark.group = "extension-streaming"
    built = benchmark.pedantic(
        TSIndex.build, args=(values, DEFAULT_LENGTH),
        kwargs={"normalization": "none"}, rounds=1, iterations=1,
    )
    benchmark.extra_info["windows"] = built.size
