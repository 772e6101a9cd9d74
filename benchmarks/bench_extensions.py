"""Benches for the extension features (not paper experiments).

* variable-length queries vs full-length queries (``m = l`` is the
  exact full-length search);
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
