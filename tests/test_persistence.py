"""Round-trip tests for index persistence: every kind through the raw
archive directory ``save_index`` writes, and through the legacy ``.npz``
file ``load_index`` still reads."""

import numpy as np
import pytest

from repro.core.tsindex import TSIndex
from repro.exceptions import SerializationError
from repro.indices.isax import ISAXIndex
from repro.indices.kvindex import KVIndex
from repro.indices.sweepline import SweeplineSearch
from repro.persistence import load_index, save_index


def _assert_same_answers(original, restored, query, epsilons=(0.0, 0.4, 1.0)):
    for epsilon in epsilons:
        a = original.search(query, epsilon)
        b = restored.search(query, epsilon)
        assert np.array_equal(a.positions, b.positions)
        assert np.allclose(a.distances, b.distances)


class TestRoundTrips:
    def test_tsindex(self, tmp_path, tsindex_global, query_of):
        path = tmp_path / "ts.rts"
        save_index(tsindex_global, path)
        restored = load_index(path)
        assert isinstance(restored, TSIndex)
        assert restored.size == tsindex_global.size
        assert restored.height == tsindex_global.height
        assert restored.node_count == tsindex_global.node_count
        _assert_same_answers(tsindex_global, restored, query_of(321))

    def test_tsindex_params_preserved(self, tmp_path, tsindex_global):
        path = tmp_path / "ts.rts"
        save_index(tsindex_global, path)
        restored = load_index(path)
        assert restored.params == tsindex_global.params

    def test_kvindex(self, tmp_path, kvindex_global, query_of):
        path = tmp_path / "kv.rts"
        save_index(kvindex_global, path)
        restored = load_index(path)
        assert isinstance(restored, KVIndex)
        assert restored.num_bins == kvindex_global.num_bins
        _assert_same_answers(kvindex_global, restored, query_of(100))

    def test_isax(self, tmp_path, isax_global, query_of):
        path = tmp_path / "isax.rts"
        save_index(isax_global, path)
        restored = load_index(path)
        assert isinstance(restored, ISAXIndex)
        assert restored.node_count == isax_global.node_count
        _assert_same_answers(isax_global, restored, query_of(250))

    def test_sweepline(self, tmp_path, sweepline_global, query_of):
        path = tmp_path / "sweep.rts"
        save_index(sweepline_global, path)
        restored = load_index(path)
        assert isinstance(restored, SweeplineSearch)
        _assert_same_answers(sweepline_global, restored, query_of(7))

    def test_knn_after_restore(self, tmp_path, tsindex_global, query_of):
        path = tmp_path / "ts.rts"
        save_index(tsindex_global, path)
        restored = load_index(path)
        query = query_of(500)
        original = tsindex_global.knn(query, 5)
        loaded = restored.knn(query, 5)
        assert np.allclose(original.distances, loaded.distances)

    def test_build_stats_preserved(self, tmp_path, tsindex_global):
        path = tmp_path / "ts.rts"
        save_index(tsindex_global, path)
        restored = load_index(path)
        assert restored.build_stats.windows == (
            tsindex_global.build_stats.windows
        )

    def test_normalization_preserved(self, tmp_path, source_per_window):
        index = TSIndex.from_source(source_per_window)
        path = tmp_path / "pw.rts"
        save_index(index, path)
        restored = load_index(path)
        assert restored.source.normalization.value == "per_window"


class TestLegacyFileRoundTrips:
    @pytest.mark.parametrize("kind", ["tsindex", "kvindex", "isax", "sweepline"])
    def test_same_answers(
        self, kind, request, tmp_path, save_legacy_npz, query_of
    ):
        original = request.getfixturevalue(f"{kind}_global")
        path = tmp_path / f"{kind}.npz"
        save_legacy_npz(original, path)
        assert path.is_file()
        restored = load_index(path)
        assert type(restored) is type(original)
        _assert_same_answers(original, restored, query_of(321))


class TestErrors:
    def test_unsupported_type(self, tmp_path):
        with pytest.raises(SerializationError):
            save_index(object(), tmp_path / "x.npz")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index(tmp_path / "missing.npz")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an archive")
        with pytest.raises(SerializationError):
            load_index(path)

    def test_archive_without_metadata(self, tmp_path):
        path = tmp_path / "nometa.npz"
        np.savez(path, series=np.arange(10.0))
        with pytest.raises(SerializationError, match="metadata"):
            load_index(path)
