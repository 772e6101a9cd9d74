"""Cross-plane conformance: one pipeline, seven planes, equal answers.

The unified query plane (:mod:`repro.query`) promises that every
registered plane — the paper's four methods (sweepline, KV-Index, iSAX,
TS-Index) and the extended serving planes (frozen, sharded, live) —
answers every query mode identically through
:class:`~repro.engine.QueryEngine`, byte-identical to the plane's
direct call. This module is that promise as a parametrized suite:

* ``search`` / ``knn`` / ``exists`` / ``search_batch`` agreement with a
  seeded exhaustive-scan reference on every plane, including the
  planner-synthesized modes of the search-only baselines;
* ``(distance, position)`` k-NN tie-breaks on a series with planted
  duplicate windows;
* stats-counter invariants (``matches == len(result)``, aggregation is
  an element-wise sum);
* ``count`` equals ``len(search(...))`` on every plane (the
  non-materializing default path regression);
* exactly one implementation of query preparation in the tree.
"""

import concurrent.futures

import numpy as np
import pytest

from repro import QueryEngine, QuerySpec
from repro.indices import (
    available_methods,
    create_method,
    extended_methods,
)
from repro.query import capabilities_of, execute, plan

from conftest import index_row

LENGTH = 16
EPSILONS = (0.0, 0.35, 1.2)

#: Every plane the library registers, paper methods and extended alike.
ALL_PLANES = ("sweepline", "kvindex", "isax", "tsindex", "frozen",
              "sharded", "live")

#: Extra build options per plane (keep the suite light and thread-free).
BUILD_OPTIONS = {
    "sharded": {"shards": 3},
    "live": {"seal_threshold": 128},
}


def make_series() -> np.ndarray:
    """A seeded series with planted duplicate blocks, so exact twins
    (and therefore distance ties) exist at known positions."""
    rng = np.random.default_rng(42)
    series = np.cumsum(rng.normal(scale=0.35, size=620))
    block = np.array(series[40 : 40 + LENGTH + 8])
    series[200 : 200 + block.size] = block
    series[455 : 455 + block.size] = block
    return series


SERIES = make_series()


def make_queries() -> list[np.ndarray]:
    """Three queries: a planted duplicate window (exact twins at three
    positions), an unplanted window, and a perturbed near-miss."""
    rng = np.random.default_rng(7)
    duplicate = np.array(SERIES[44 : 44 + LENGTH])
    plain = np.array(SERIES[310 : 310 + LENGTH])
    near = plain + rng.normal(scale=0.05, size=LENGTH)
    return [duplicate, plain, near]


QUERIES = make_queries()


def reference_distances(query: np.ndarray) -> np.ndarray:
    """Exhaustive Chebyshev distances to every window — the oracle."""
    count = SERIES.size - LENGTH + 1
    windows = np.lib.stride_tricks.sliding_window_view(SERIES, LENGTH)
    return np.max(np.abs(windows[:count] - query), axis=1)


@pytest.fixture(scope="module")
def planes():
    built = {
        name: create_method(
            name, SERIES, LENGTH, normalization="none",
            **BUILD_OPTIONS.get(name, {}),
        )
        for name in ALL_PLANES
    }
    yield built
    built["live"].close()


@pytest.fixture(scope="module")
def engine(planes):
    with QueryEngine(cache_capacity=64) as serving:
        for name, plane in planes.items():
            serving.add(name, plane)
        yield serving


def assert_results_equal(actual, expected, label: str) -> None:
    assert np.array_equal(actual.positions, expected.positions), label
    assert np.array_equal(actual.distances, expected.distances), label


class TestListings:
    def test_paper_and_extended_split(self):
        assert available_methods() == (
            "sweepline", "kvindex", "isax", "tsindex"
        )
        assert extended_methods() == ("frozen", "sharded", "live")
        assert available_methods(extended=True) == (
            available_methods() + extended_methods()
        )

    def test_unknown_name_lists_every_working_plane(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError) as excinfo:
            create_method("btree", SERIES, LENGTH, normalization="none")
        message = str(excinfo.value)
        for name in ALL_PLANES:
            assert name in message


@pytest.mark.parametrize("name", ALL_PLANES)
class TestEngineAgreesWithDirectCall:
    """QueryEngine answers == the plane's own answers, byte for byte."""

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_search(self, engine, planes, name, epsilon):
        for query in QUERIES:
            served = engine.query(name, query, epsilon, use_cache=False)
            direct = planes[name].search(query, epsilon)
            assert_results_equal(served, direct, f"{name} eps={epsilon}")
            oracle = reference_distances(query)
            expected = np.flatnonzero(oracle <= epsilon)
            assert np.array_equal(served.positions, expected)
            assert np.allclose(served.distances, oracle[expected])

    def test_knn(self, engine, planes, name):
        for query in QUERIES:
            served = engine.knn(name, query, 5)
            direct = planes[name].knn(query, 5)
            assert_results_equal(served, direct, name)
            assert len(served) == 5

    def test_knn_exclude(self, engine, planes, name):
        query = QUERIES[0]
        served = engine.knn(name, query, 4, exclude=(40, 60))
        direct = planes[name].knn(query, 4, exclude=(40, 60))
        assert_results_equal(served, direct, name)
        assert not any(40 <= p < 60 for p in served.positions)

    def test_exists(self, engine, planes, name):
        query = QUERIES[0]
        for epsilon, expected in ((0.0, True), (1e9, True),):
            assert engine.exists(name, query, epsilon) is expected
            assert planes[name].exists(query, epsilon) is expected
        far = np.full(LENGTH, 1e6)
        assert engine.exists(name, far, 1.0) is False
        assert planes[name].exists(far, 1.0) is False

    def test_batch(self, engine, planes, name):
        epsilon = EPSILONS[1]
        served = engine.batch(name, QUERIES, epsilon, use_cache=False)
        direct = planes[name].search_batch(QUERIES, epsilon)
        assert len(served) == len(direct) == len(QUERIES)
        for one, other in zip(served.results, direct.results):
            assert_results_equal(one, other, name)

    def test_count_matches_search_length(self, engine, planes, name):
        """The satellite regression: counts equal ``len(search(...))``
        on every plane, through the engine and directly — and the
        standalone non-materializing scan counter agrees too."""
        from repro.query import scan_count

        for epsilon in EPSILONS:
            for query in QUERIES:
                expected = len(planes[name].search(query, epsilon))
                assert planes[name].count(query, epsilon) == expected
                assert engine.count(name, query, epsilon) == expected
                assert scan_count(
                    planes[name].source, query, epsilon
                ) == expected


@pytest.mark.parametrize("name", ALL_PLANES)
class TestTieBreaksAndStats:
    def test_knn_ranked_by_distance_then_position(self, planes, name):
        # The planted duplicates give >= 3 zero-distance ties; the
        # library-wide tie-break orders equals by ascending position.
        result = planes[name].knn(QUERIES[0], 7)
        pairs = list(zip(result.distances.tolist(),
                         result.positions.tolist()))
        assert pairs == sorted(pairs)
        zero = [p for d, p in pairs if d == 0.0]
        assert zero == sorted(zero) and len(zero) >= 3

    def test_search_stats_invariants(self, planes, name):
        epsilon = EPSILONS[1]
        for query in QUERIES:
            result = planes[name].search(query, epsilon)
            stats = result.stats
            assert stats.matches == len(result)
            assert stats.candidates >= stats.matches
            assert min(stats.verified, stats.nodes_visited,
                       stats.nodes_pruned, stats.leaves_accessed) >= 0

    def test_batch_stats_are_elementwise_sums(self, planes, name):
        epsilon = EPSILONS[1]
        batch = planes[name].search_batch(QUERIES, epsilon)
        merged = batch.stats
        for field in ("candidates", "verified", "matches",
                      "nodes_visited", "nodes_pruned", "leaves_accessed"):
            assert getattr(merged, field) == sum(
                getattr(result.stats, field) for result in batch.results
            )


@pytest.mark.parametrize("name", ALL_PLANES)
class TestPlannerSurface:
    def test_plan_marks_native_modes_from_capabilities(self, planes, name):
        plane = planes[name]
        caps = capabilities_of(plane)
        for mode, kwargs in (
            ("knn", {"k": 3}),
            ("exists", {"epsilon": 0.5}),
            ("batch", {"epsilon": 0.5}),
            ("count", {"epsilon": 0.5}),
        ):
            query = QUERIES[0] if mode != "batch" else QUERIES[:2]
            planned = plan(plane, QuerySpec(query=query, mode=mode, **kwargs))
            required = mode if mode != "batch" else "search_batch"
            assert planned.native == (required in caps)
            assert "search" in caps

    def test_search_only_options_dropped_for_knn(self, planes, name):
        # A knn spec carrying a search-kernel option must behave the
        # same on every plane: the planner drops it (native knn kernels
        # take no such options), never forwards it into a TypeError.
        spec = QuerySpec(query=QUERIES[0], mode="knn", k=3,
                         options={"verification": "bulk"})
        filtered = execute(planes[name], spec)
        plain = planes[name].knn(QUERIES[0], 3)
        assert_results_equal(filtered, plain, name)

    def test_executor_fanout_matches_serial(self, planes, name):
        epsilon = EPSILONS[1]
        spec = QuerySpec(query=QUERIES, mode="batch", epsilon=epsilon)
        serial = execute(planes[name], spec)
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            fanned = execute(planes[name], spec, executor=pool)
        for one, other in zip(serial.results, fanned.results):
            assert_results_equal(one, other, name)


class TestEngineBuildsEveryPlane:
    @pytest.mark.parametrize("name", ALL_PLANES)
    def test_build_by_method_name(self, name):
        engine = QueryEngine(metrics=False)
        plane = engine.build(
            f"built-{name}", SERIES, LENGTH,
            method=name, normalization="none",
            **BUILD_OPTIONS.get(name, {}),
        )
        try:
            result = plane.search(QUERIES[0], EPSILONS[1])
            oracle = reference_distances(QUERIES[0])
            assert np.array_equal(
                result.positions, np.flatnonzero(oracle <= EPSILONS[1])
            )
            row = index_row(engine, f"built-{name}")
            assert row["name"] == f"built-{name}"
        finally:
            engine.close()
            if name == "live":
                plane.close()

    @pytest.mark.parametrize("option", [{"shards": 2}])
    def test_sharded_only_options_rejected_elsewhere(self, option):
        from repro.exceptions import InvalidParameterError

        with QueryEngine(metrics=False) as engine, pytest.raises(
            InvalidParameterError, match="sharded"
        ):
            engine.build(
                "x", SERIES, LENGTH, method="tsindex",
                normalization="none", **option,
            )


class TestRawDomainMapping:
    """QuerySpec(domain="raw") is the one global-normalization mapping
    (the logic the CLI used to open-code)."""

    @pytest.mark.parametrize("name", ["tsindex", "frozen", "sharded"])
    def test_raw_query_matches_indexed_window(self, name):
        plane = create_method(
            name, SERIES, LENGTH, normalization="global",
            **BUILD_OPTIONS.get(name, {}),
        )
        raw = np.array(SERIES[44 : 44 + LENGTH])  # raw value domain
        spec = QuerySpec(query=raw, mode="search", epsilon=1e-9,
                         domain="raw")
        result = execute(plane, spec)
        assert 44 in result.positions

    def test_cache_never_mixes_domains(self):
        # The same bytes mean different queries in different domains;
        # a warm index-domain cache entry must not serve a raw-domain
        # call (and vice versa).
        with QueryEngine(cache_capacity=32) as serving:
            serving.build(
                "global", SERIES, LENGTH, method="tsindex",
                normalization="global",
            )
            raw = np.array(SERIES[44 : 44 + LENGTH])
            as_index = serving.query("global", raw, 1e-9)
            as_raw = serving.query("global", raw, 1e-9, domain="raw")
            assert 44 in as_raw.positions
            assert not np.array_equal(as_raw.positions, as_index.positions)
            # Repeat in the other order against a fresh cache.
            serving.build(
                "global2", SERIES, LENGTH, method="tsindex",
                normalization="global",
            )
            first = serving.query("global2", raw, 1e-9, domain="raw")
            second = serving.query("global2", raw, 1e-9)
            assert np.array_equal(first.positions, as_raw.positions)
            assert np.array_equal(second.positions, as_index.positions)

    def test_raw_is_identity_without_global_norm(self, planes):
        raw = np.array(SERIES[44 : 44 + LENGTH])
        via_raw = execute(planes["tsindex"], QuerySpec(
            query=raw, mode="search", epsilon=0.25, domain="raw"))
        via_index = planes["tsindex"].search(raw, 0.25)
        assert_results_equal(via_raw, via_index, "raw==index w/o global")
