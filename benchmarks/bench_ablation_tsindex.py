"""Ablations on TS-Index design choices the paper leaves open or fixes
without a sweep.

* node capacity (μc, Mc) — the paper fixes (10, 30); we sweep it;
* split assignment metric — the paper does not say how a split assigns
  entries to its two seeds. ``area`` (default) is the R-tree rule: the
  seed whose envelope grows least in total, ``Σ_i`` of the per-timestamp
  excursions; ``max`` grows least in the Chebyshev sense, the largest
  single-timestamp excursion (Eq. 2's distance). Both keep every
  invariant, so answers are identical and only tree shape differs;
* bulk loading vs sequential insertion — build time and query time,
  both up to a frozen index (a bulk load writes one directly; an
  insertion build is frozen after), so both query rows run on the
  frozen plane.
"""

import pytest

from repro.bench.experiments import DEFAULT_LENGTH
from repro.core.bulkload import bulk_load_source
from repro.core.tsindex import TSIndex, TSIndexParams

from conftest import default_epsilon, get_context, get_workload, run_workload

DATASET = "insect"
NORMALIZATION = "global"

CAPACITIES = ((5, 15), (10, 30), (20, 60), (50, 150))
STRATEGIES = {
    "insert": lambda source: TSIndex.from_source(source).freeze(),
    "bulk": bulk_load_source,
}
_INDEX_CACHE: dict = {}


def _source():
    return get_context(DATASET).source(DEFAULT_LENGTH, NORMALIZATION)


def _capacity_index(min_children: int, max_children: int, metric: str = "area"):
    key = (min_children, max_children, metric)
    if key not in _INDEX_CACHE:
        _INDEX_CACHE[key] = TSIndex.from_source(
            _source(),
            params=TSIndexParams(
                min_children=min_children,
                max_children=max_children,
                split_metric=metric,
            ),
        )
    return _INDEX_CACHE[key]


@pytest.mark.benchmark(max_time=0.6, min_rounds=2, warmup=False)
@pytest.mark.parametrize(
    "capacity", CAPACITIES, ids=[f"mc{a}-Mc{b}" for a, b in CAPACITIES]
)
def test_ablation_node_capacity_query(benchmark, capacity):
    """Query time across node capacities (paper default in the middle)."""
    index = _capacity_index(*capacity)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    benchmark.group = "ablation-capacity"
    matches = benchmark(run_workload, index, workload, epsilon)
    benchmark.extra_info["height"] = index.height
    benchmark.extra_info["nodes"] = index.node_count
    benchmark.extra_info["matches"] = matches


@pytest.mark.benchmark(max_time=0.6, min_rounds=2, warmup=False)
@pytest.mark.parametrize("metric", ["area", "max"])
def test_ablation_split_metric_query(benchmark, metric):
    """Split assignment metric: total area vs max enlargement."""
    index = _capacity_index(10, 30, metric)
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    benchmark.group = "ablation-split-metric"
    matches = benchmark(run_workload, index, workload, epsilon)
    benchmark.extra_info["nodes"] = index.node_count
    benchmark.extra_info["matches"] = matches


@pytest.mark.benchmark(min_rounds=1, max_time=1.0, warmup=False)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ablation_build_strategy_time(benchmark, strategy):
    """Build time: sequential insertion vs bulk load."""
    source = _source()
    benchmark.group = "ablation-build-strategy"
    built = benchmark.pedantic(
        STRATEGIES[strategy], args=(source,), rounds=1, iterations=1
    )
    benchmark.extra_info["nodes"] = built.node_count
    benchmark.extra_info["height"] = built.height
    _INDEX_CACHE[("strategy", strategy)] = built


@pytest.mark.benchmark(max_time=0.6, min_rounds=2, warmup=False)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ablation_build_strategy_query(benchmark, strategy):
    """Query time on the trees built by each strategy."""
    index = _INDEX_CACHE.get(("strategy", strategy))
    if index is None:
        index = STRATEGIES[strategy](_source())
        _INDEX_CACHE[("strategy", strategy)] = index
    workload = get_workload(DATASET, DEFAULT_LENGTH, NORMALIZATION)
    epsilon = default_epsilon(DATASET, NORMALIZATION)
    benchmark.group = "ablation-build-strategy-query"
    matches = benchmark(run_workload, index, workload, epsilon)
    benchmark.extra_info["matches"] = matches
