"""Integration tests: every method returns the sweepline ground truth.

This is the correctness contract of the whole library — exactness:
for any series, regime, query and threshold, TS-Index, KV-Index and
iSAX must return *exactly* the same twins as the exhaustive scan (every
window within Chebyshev ε of the query, no false positive, distances
equal, ``distance == ε`` included). An index is a filter in front of
the same verification; it may only be faster, never different.
"""

import numpy as np
import pytest

from repro import create_method, twin_search
from repro.core.bulkload import bulk_load_source
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.data import synthetic
from repro.exceptions import InvalidParameterError
from repro.indices.base import (
    METHOD_NAMES,
    SubsequenceIndex,
    available_methods,
    create_method_from_source,
)
from repro.indices.isax import ISAXIndex, ISAXParams
from repro.indices.kvindex import KVIndex, KVIndexParams
from repro.indices.sweepline import SweeplineSearch


def _build_all(source):
    """All four methods over one source (small capacities force real
    tree structure even on small series)."""
    methods = {
        "sweepline": SweeplineSearch.from_source(source),
        "isax": ISAXIndex.from_source(
            source, params=ISAXParams(segments=5, leaf_capacity=64)
        ),
        "tsindex": TSIndex.from_source(
            source, params=TSIndexParams(min_children=4, max_children=10)
        ),
        "bulk-tsindex": bulk_load_source(
            source, params=TSIndexParams(min_children=4, max_children=10)
        ),
    }
    if source.normalization.value != "per_window":
        methods["kvindex"] = KVIndex.from_source(
            source, params=KVIndexParams(num_bins=64)
        )
    return methods


DATASETS = {
    "insect-like": synthetic.insect_like(2500, seed=3),
    "eeg-like": synthetic.eeg_like(2500, seed=4),
    "random-walk": synthetic.random_walk(2500, seed=5),
    "sines": synthetic.noisy_sines(2500, seed=6),
}


@pytest.mark.parametrize("dataset", list(DATASETS), ids=list(DATASETS))
@pytest.mark.parametrize("regime", ["none", "global", "per_window"])
def test_all_methods_agree(dataset, regime):
    values = DATASETS[dataset]
    source = WindowSource(values, 60, regime)
    methods = _build_all(source)
    sweepline = methods.pop("sweepline")

    rng = np.random.default_rng(42)
    scale = float(np.std(values)) if regime == "none" else 1.0
    for query_position in rng.integers(0, source.count, size=3):
        query = np.array(
            source.window_block(int(query_position), int(query_position) + 1)[0]
        )
        for epsilon in (0.0, 0.2 * scale, 0.6 * scale, 1.5 * scale):
            expected = sweepline.search(query, epsilon)
            assert int(query_position) in expected.positions
            for name, method in methods.items():
                actual = method.search(query, epsilon)
                assert np.array_equal(
                    actual.positions, expected.positions
                ), f"{name} disagrees at eps={epsilon} ({dataset}/{regime})"
                assert np.allclose(actual.distances, expected.distances)


def test_results_monotone_in_epsilon():
    values = DATASETS["insect-like"]
    source = WindowSource(values, 60, "global")
    index = TSIndex.from_source(source)
    query = np.array(source.window_block(100, 101)[0])
    previous: set = set()
    for epsilon in (0.0, 0.25, 0.5, 1.0, 2.0):
        current = set(index.search(query, epsilon).positions.tolist())
        assert previous <= current
        previous = current


def test_external_query_not_from_series():
    # Queries need not be extracted from the indexed series.
    values = DATASETS["sines"]
    source = WindowSource(values, 60, "global")
    methods = _build_all(source)
    sweepline = methods.pop("sweepline")
    rng = np.random.default_rng(9)
    query = rng.normal(size=60)
    for epsilon in (0.5, 1.5, 3.0):
        expected = sweepline.search(query, epsilon)
        for name, method in methods.items():
            actual = method.search(query, epsilon)
            assert np.array_equal(actual.positions, expected.positions), name


class TestFactory:
    def test_available_methods(self):
        assert available_methods() == METHOD_NAMES

    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_create_each_method(self, name):
        values = DATASETS["random-walk"][:500]
        method = create_method(name, values, 50, normalization="global")
        assert isinstance(method, SubsequenceIndex)
        query = np.array(method.source.window_block(10, 11)[0])
        assert 10 in method.search(query, 0.0).positions

    def test_name_aliases(self):
        values = DATASETS["random-walk"][:300]
        source = WindowSource(values, 50, "global")
        assert isinstance(
            create_method_from_source("KV-Index", source), KVIndex
        )
        assert isinstance(create_method_from_source("TS_Index", source), TSIndex)

    def test_unknown_method(self):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            create_method("btree", DATASETS["sines"], 50)

    def test_tsindex_kwargs_become_params(self):
        values = DATASETS["random-walk"][:400]
        index = create_method(
            "tsindex", values, 50, min_children=4, max_children=10
        )
        assert index.params.max_children == 10


class TestTwinSearchConvenience:
    def test_finds_planted_twin(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=900) * 2.0
        series[700:760] = series[100:160] + rng.normal(0, 0.005, size=60)
        result = twin_search(series, series[100:160], epsilon=0.05)
        found = set(result.positions.tolist())
        assert 100 in found
        assert 700 in found

    def test_method_selection(self):
        series = DATASETS["sines"][:400]
        for method in METHOD_NAMES:
            result = twin_search(
                series, series[50:100], epsilon=0.01, method=method
            )
            assert 50 in result.positions
