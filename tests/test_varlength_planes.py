"""Variable-length queries on every plane: seven planes, one answer.

The seeded property suite behind the tentpole promise: for every
registered plane (sweepline, KV-Index, iSAX, TS-Index, frozen, sharded,
live) and every tested query length ``m <= l``, engine-served
``search`` / ``knn`` / ``exists`` / ``count`` results are byte-identical
to the brute-force prefix scan — tail positions at series, shard and
segment boundaries included — in both the raw and global regimes, with
``m == l`` collapsing exactly onto the fixed-length search
(positions, distances *and* QueryStats). Per-window stays rejected with
the typed error, and the engine cache never serves one length's result
to another.
"""

import numpy as np
import pytest

from repro import QueryEngine
from repro.exceptions import UnsupportedNormalizationError
from repro.indices import create_method
from repro.query import QuerySpec, execute, scan_prefix_search

LENGTH = 16
EPSILONS = (0.0, 0.3, 1.1)
QUERY_LENGTHS = (LENGTH // 4, LENGTH // 2, LENGTH - 1, LENGTH)

ALL_PLANES = ("sweepline", "kvindex", "isax", "tsindex", "frozen",
              "sharded", "live")

BUILD_OPTIONS = {
    "sharded": {"shards": 3},
    "live": {"seal_threshold": 96},
}


def make_series() -> np.ndarray:
    """Seeded series with duplicate blocks planted mid-series and in
    the final (tail) stretch, so exact twins exist at known positions —
    including ones only a tail scan can find."""
    rng = np.random.default_rng(1234)
    series = np.cumsum(rng.normal(scale=0.4, size=640))
    block = np.array(series[52 : 52 + LENGTH + 4])
    series[230 : 230 + block.size] = block
    series[-(LENGTH - 2) :] = series[52 : 52 + LENGTH - 2]  # tail twin
    return series


SERIES = make_series()


def prefix_oracle(values: np.ndarray, query: np.ndarray, epsilon: float):
    """Brute force over every m-window of the prepared buffer."""
    m = query.size
    windows = np.lib.stride_tricks.sliding_window_view(values, m)
    distances = np.max(np.abs(windows - query), axis=1)
    keep = np.flatnonzero(distances <= epsilon)
    return keep, distances[keep]


def build_planes(normalization: str) -> dict:
    names = [
        name
        for name in ALL_PLANES
        if not (name == "live" and normalization == "global")
    ]
    return {
        name: create_method(
            name, SERIES, LENGTH, normalization=normalization,
            **BUILD_OPTIONS.get(name, {}),
        )
        for name in names
    }


@pytest.fixture(scope="module", params=("none", "global"))
def regime_planes(request):
    built = build_planes(request.param)
    yield request.param, built
    if "live" in built:
        built["live"].close()


@pytest.fixture(scope="module")
def regime_engine(regime_planes):
    regime, planes = regime_planes
    with QueryEngine(cache_capacity=128) as serving:
        for name, plane in planes.items():
            serving.add(name, plane)
        yield regime, planes, serving


def queries_for(values: np.ndarray, m: int) -> list[np.ndarray]:
    """A planted duplicate, the tail twin, and a near-miss, length m."""
    rng = np.random.default_rng(m)
    planted = np.array(values[52 : 52 + m])
    tail = np.array(values[values.size - m :])
    near = np.array(values[400 : 400 + m]) + rng.normal(
        scale=0.04, size=m
    )
    return [planted, tail, near]


class TestSevenPlanesMatchThePrefixScan:
    @pytest.mark.parametrize("m", QUERY_LENGTHS)
    def test_search_engine_and_direct(self, regime_engine, m):
        regime, planes, serving = regime_engine
        for name, plane in planes.items():
            values = plane.source.values
            for query in queries_for(values, m):
                for epsilon in EPSILONS:
                    expected_pos, expected_dist = prefix_oracle(
                        values, query, epsilon
                    )
                    direct = plane.search_varlength(query, epsilon)
                    served = serving.query(
                        name, query, epsilon, use_cache=False
                    )
                    for label, result in (
                        ("direct", direct), ("engine", served),
                    ):
                        context = f"{regime}/{name}/{label} m={m} ε={epsilon}"
                        assert np.array_equal(
                            result.positions, expected_pos
                        ), context
                        assert np.array_equal(
                            result.distances, expected_dist
                        ), context

    @pytest.mark.parametrize("m", QUERY_LENGTHS[:-1])
    def test_knn_exists_count_derive_from_the_scan(self, regime_engine, m):
        regime, planes, serving = regime_engine
        for name, plane in planes.items():
            values = plane.source.values
            query = queries_for(values, m)[0]
            # knn: exact prefix scan with the (distance, position) ties.
            windows = np.lib.stride_tricks.sliding_window_view(values, m)
            distances = np.max(np.abs(windows - query), axis=1)
            order = np.lexsort((np.arange(distances.size), distances))[:6]
            served = serving.knn(name, query, 6)
            direct = plane.knn(query, 6)
            assert np.array_equal(served.positions, order), (regime, name)
            assert np.array_equal(direct.positions, order), (regime, name)
            for epsilon in EPSILONS[1:]:
                expected = int(
                    np.count_nonzero(distances <= epsilon)
                )
                assert serving.count(name, query, epsilon) == expected
                assert plane.count(query, epsilon) == expected
                assert serving.exists(name, query, epsilon) is (
                    expected > 0
                )
                assert plane.exists(query, epsilon) is (expected > 0)

    def test_tail_twin_only_a_tail_scan_can_find(self, regime_engine):
        """The planted tail twin starts past the last indexed l-window;
        every plane must still report it."""
        regime, planes, serving = regime_engine
        m = LENGTH - 2
        for name, plane in planes.items():
            values = plane.source.values
            tail_start = values.size - m
            assert tail_start >= plane.source.count  # truly unindexed
            query = np.array(values[52 : 52 + m])
            result = serving.query(name, query, 0.0, use_cache=False)
            assert tail_start in result.positions, (regime, name)

    def test_mixed_length_batch(self, regime_engine):
        regime, planes, serving = regime_engine
        for name, plane in planes.items():
            values = plane.source.values
            queries = [
                np.array(values[52 : 52 + LENGTH]),       # full length
                np.array(values[52 : 52 + LENGTH // 2]),  # prefix
                np.array(values[values.size - 10 :]),     # tail query
            ]
            epsilon = EPSILONS[1]
            batch = execute(
                plane,
                QuerySpec(query=queries, mode="batch", epsilon=epsilon),
            )
            served = serving.batch(name, queries, epsilon, use_cache=False)
            assert len(batch) == len(served) == 3
            for query, one, other in zip(
                queries, batch.results, served.results
            ):
                expected_pos, expected_dist = prefix_oracle(
                    values, query, epsilon
                )
                for result in (one, other):
                    assert np.array_equal(result.positions, expected_pos)
                    assert np.array_equal(result.distances, expected_dist)


class TestChunkBoundaryCoverage:
    """Exact twins planted at shard/segment chunk boundaries: the
    overlap argument (l-1 >= m-1) means no boundary position is lost."""

    @pytest.mark.parametrize("m", QUERY_LENGTHS[:-1])
    def test_every_shard_boundary_position_served(self, m):
        plane = create_method(
            "sharded", SERIES, LENGTH, normalization="none", shards=3
        )
        values = plane.source.values
        boundaries = [start for start, _ in plane.spans if start > 0]
        assert boundaries  # the suite must actually cross chunks
        for boundary in boundaries:
            for position in (boundary - 1, boundary, boundary + 1):
                query = np.array(values[position : position + m])
                result = plane.search_varlength(query, 0.0)
                expected_pos, expected_dist = prefix_oracle(
                    values, query, 0.0
                )
                assert position in result.positions
                assert np.array_equal(result.positions, expected_pos)
                assert np.array_equal(result.distances, expected_dist)

    @pytest.mark.parametrize("m", QUERY_LENGTHS[:-1])
    def test_every_segment_boundary_position_served(self, m):
        plane = create_method(
            "live", SERIES, LENGTH, normalization="none", seal_threshold=96
        )
        try:
            starts = [segment.start for segment in plane.segments]
            boundaries = [start for start in starts if start > 0]
            boundaries.append(plane.delta_windows and plane.segments[-1].stop)
            values = plane.source.values
            assert boundaries
            for boundary in boundaries:
                for position in (boundary - 1, boundary, boundary + 1):
                    query = np.array(values[position : position + m])
                    result = plane.search_varlength(query, 0.0)
                    expected_pos, _ = prefix_oracle(values, query, 0.0)
                    assert position in result.positions
                    assert np.array_equal(result.positions, expected_pos)
        finally:
            plane.close()

    def test_live_before_first_window(self):
        """A live plane with fewer than l readings still serves shorter
        queries on every mode (pure scan over the raw readings) —
        search directly and knn/exists/count through the engine too."""
        from repro.live import LiveTwinIndex

        live = LiveTwinIndex(SERIES[:10], LENGTH, seal_threshold=None)
        try:
            query = np.array(SERIES[3:9])
            result = live.search_varlength(query, 0.0)
            assert 3 in result.positions
            nearest = live.knn(query, 2)
            assert nearest.positions[0] == 3 and nearest.distances[0] == 0.0
            assert live.exists(query, 0.0) is True
            assert live.count(query, 0.0) == len(result)
            with QueryEngine(cache_capacity=8) as serving:
                serving.add("young", live)
                served = serving.knn("young", query, 2)
                assert np.array_equal(served.positions, nearest.positions)
                # Raw-domain arrival (the CLI --query-file path) must
                # not die on the plane's not-yet-built window source.
                raw = serving.query(
                    "young", query, 0.0, domain="raw", use_cache=False
                )
                assert 3 in raw.positions
        finally:
            live.close()

    def test_mixed_length_batch_served(self):
        plane = create_method(
            "sharded", SERIES, LENGTH, normalization="none", shards=3
        )
        queries = [
            np.array(SERIES[52 : 52 + LENGTH]),
            np.array(SERIES[52 : 52 + LENGTH // 2]),
        ]
        batch = plane.search_batch(queries, 0.3)
        assert len(batch) == 2


class TestExistsStatsOnPrefixPath:
    @pytest.mark.parametrize("name", ("tsindex", "frozen"))
    def test_caller_stats_populated_for_short_queries(self, name):
        from repro.core.stats import QueryStats

        plane = create_method(name, SERIES, LENGTH, normalization="none")
        query = np.array(plane.source.values[52 : 52 + LENGTH // 2])
        stats = QueryStats()
        assert plane.exists(query, 0.0, stats=stats) is True
        reference = plane.search_varlength(query, 0.0).stats
        assert stats == reference
        assert stats.candidates > 0
        assert stats.matches == len(scan_prefix_search(plane.source, query, 0.0))


class TestFullLengthParity:
    def test_m_equals_l_matches_native_search_exactly(self, regime_engine):
        regime, planes, _ = regime_engine
        for name, plane in planes.items():
            values = plane.source.values
            query = np.array(values[52 : 52 + LENGTH])
            for epsilon in EPSILONS:
                native = plane.search(query, epsilon)
                varlength = plane.search_varlength(query, epsilon)
                assert np.array_equal(
                    varlength.positions, native.positions
                ), (regime, name)
                assert np.array_equal(
                    varlength.distances, native.distances
                ), (regime, name)
                assert varlength.stats == native.stats, (regime, name)


class TestPerWindowStaysRejected:
    @pytest.mark.parametrize(
        "name", ("sweepline", "isax", "tsindex", "frozen", "sharded", "live")
    )
    def test_typed_error_for_short_queries(self, name):
        plane = create_method(
            name, SERIES, LENGTH, normalization="per_window",
            **BUILD_OPTIONS.get(name, {}),
        )
        try:
            with pytest.raises(UnsupportedNormalizationError):
                plane.search_varlength(np.zeros(LENGTH // 2), 0.5)
            # Full length keeps working under per-window.
            query = np.array(
                plane.source.window(52)
                if name != "live"
                else plane.source.window(52)
            )
            result = plane.search_varlength(query, 0.0)
            assert 52 in result.positions
        finally:
            if name == "live":
                plane.close()


class TestPlannerAndSpecSurface:
    def test_spec_prepare_accepts_any_m_up_to_l(self, regime_planes):
        regime, planes = regime_planes
        source = planes["tsindex"].source
        for m in QUERY_LENGTHS:
            prepared = QuerySpec(
                query=np.array(source.values[:m]),
                mode="search",
                epsilon=0.5,
            ).prepare(source)
            assert prepared.query.size == m

    def test_raw_domain_mapping_applies_to_prefixes(self):
        plane = create_method(
            "tsindex", SERIES, LENGTH, normalization="global"
        )
        m = LENGTH // 2
        raw = np.array(SERIES[52 : 52 + m])  # raw value domain
        result = execute(
            plane,
            QuerySpec(query=raw, mode="search", epsilon=1e-9, domain="raw"),
        )
        assert 52 in result.positions

    def test_scan_prefix_search_is_the_oracle(self, regime_planes):
        regime, planes = regime_planes
        source = planes["sweepline"].source
        m = LENGTH // 2
        query = np.array(source.values[52 : 52 + m])
        result = scan_prefix_search(source, query, 0.25)
        expected_pos, expected_dist = prefix_oracle(
            source.values, query, 0.25
        )
        assert np.array_equal(result.positions, expected_pos)
        assert np.array_equal(result.distances, expected_dist)


class TestEngineCacheIsolation:
    def test_cache_never_serves_one_length_to_another(self):
        """Acceptance regression: an m=8 result must never be served to
        an m=16 query (or vice versa) even when one is a prefix of the
        other and every other key component matches."""
        with QueryEngine(cache_capacity=64) as serving:
            serving.build(
                "iso", SERIES, LENGTH, method="tsindex",
                normalization="none",
            )
            plane = serving.get("iso")
            values = plane.source.values
            long_query = np.array(values[52 : 52 + LENGTH])
            short_query = np.array(long_query[: LENGTH // 2])
            epsilon = 0.3
            first_long = serving.query("iso", long_query, epsilon)
            first_short = serving.query("iso", short_query, epsilon)
            # Warm repeats hit the cache (same object back) ...
            assert serving.query("iso", long_query, epsilon) is first_long
            assert serving.query("iso", short_query, epsilon) is first_short
            # ... and each length's answer equals its own oracle.
            for query, result in (
                (long_query, first_long), (short_query, first_short),
            ):
                expected_pos, expected_dist = prefix_oracle(
                    values, query, epsilon
                )
                assert np.array_equal(result.positions, expected_pos)
                assert np.array_equal(result.distances, expected_dist)
            assert len(first_short) > len(first_long)  # truly different

    def test_live_append_invalidates_varlength_results(self):
        from repro.live import LiveTwinIndex

        live = LiveTwinIndex(SERIES[:300], LENGTH, seal_threshold=96)
        try:
            with QueryEngine(cache_capacity=32) as serving:
                serving.add("live", live)
                query = np.array(SERIES[292:300])  # the current tail
                before = serving.query("live", query, 0.0)
                assert 292 in before.positions
                serving.append("live", SERIES[292:300])  # duplicate tail
                after = serving.query("live", query, 0.0)
                assert after is not before
                assert len(after) > len(before)
        finally:
            live.close()
