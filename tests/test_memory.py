"""Tests for the index memory footprint estimator (Figure 8a)."""

import pytest

from repro.bench.memory import index_memory_bytes, memory_report
from repro.core.tsindex import TSIndex
from repro.exceptions import InvalidParameterError


class TestFootprints:
    def test_tsindex_positive(self, tsindex_global):
        assert index_memory_bytes(tsindex_global) > 0

    def test_kvindex_positive(self, kvindex_global):
        assert index_memory_bytes(kvindex_global) > 0

    def test_isax_positive(self, isax_global):
        assert index_memory_bytes(isax_global) > 0

    def test_sweepline_zero(self, sweepline_global):
        assert index_memory_bytes(sweepline_global) == 0

    def test_figure8_ordering(self, tsindex_global, kvindex_global, isax_global):
        # Figure 8a: KV-Index smallest, TS-Index largest.
        kv = index_memory_bytes(kvindex_global)
        ts = index_memory_bytes(tsindex_global)
        isax = index_memory_bytes(isax_global)
        assert kv < ts
        assert isax < ts

    def test_caches_add_bytes(self, tsindex_global, query_of):
        # Run a query so the envelope caches materialize.
        tsindex_global.search(query_of(0), 0.2)
        base = index_memory_bytes(tsindex_global)
        with_caches = index_memory_bytes(tsindex_global, include_caches=True)
        assert with_caches > base

    def test_held_snapshot_is_a_cache(self, source_global, query_of):
        # knn runs on the memoised freeze() snapshot: Figure 8a's
        # "index size" must not move because a query ran.
        tree = TSIndex.from_source(source_global.shard(0, 600))
        base = index_memory_bytes(tree)
        with_caches = index_memory_bytes(tree, include_caches=True)
        tree.knn(query_of(0), 3)
        assert index_memory_bytes(tree) == base
        held = sum(a.nbytes for a in tree.freeze().raw_arrays().values())
        assert index_memory_bytes(tree, include_caches=True) == with_caches + held

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidParameterError):
            index_memory_bytes(object())

    def test_memory_report_units(self, tsindex_global, kvindex_global):
        report = memory_report(
            {"tsindex": tsindex_global, "kvindex": kvindex_global}
        )
        assert set(report) == {"tsindex", "kvindex"}
        assert report["tsindex"] == (
            index_memory_bytes(tsindex_global) / (1024.0 * 1024.0)
        )
