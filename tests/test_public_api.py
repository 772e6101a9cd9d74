"""Surface tests: the documented public API imports and stays coherent."""

import importlib

import numpy as np
import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.tsindex",
            "repro.core.bulkload",
            "repro.indices",
            "repro.indices.isax",
            "repro.euclidean",
            "repro.euclidean.mass",
            "repro.extensions",
            "repro.extensions.profile",
            "repro.data",
            "repro.bench",
            "repro.bench.experiments",
            "repro.bench.record",
            "repro.engine",
            "repro.engine.sharding",
            "repro.engine.cache",
            "repro.engine.executor",
            "repro.query",
            "repro.query.spec",
            "repro.query.planner",
            "repro.query.merge",
            "repro.query.parts",
            "repro.query.capabilities",
            "repro.query.registration",
            "repro.query.varlength",
            "repro.live",
            "repro.live.index",
            "repro.live.segments",
            "repro.live.compaction",
            "repro.live.wal",
            "repro.live.store",
            "repro.live.ingest",
            "repro.faults",
            "repro.faults.failpoints",
            "repro.obs",
            "repro.obs.metrics",
            "repro.obs.trace",
            "repro.obs.export",
            "repro.obs.logsetup",
            "repro.persistence",
            "repro.cli",
        ],
    )
    def test_submodules_importable(self, module):
        assert importlib.import_module(module) is not None

    def test_subpackage_all_resolve(self):
        for module_name in ("repro.core", "repro.indices", "repro.data",
                            "repro.bench", "repro.extensions", "repro.engine",
                            "repro.query", "repro.obs", "repro.faults"):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_fault_exceptions_exported(self):
        # The fault-tolerance taxonomy is part of the public surface.
        assert issubclass(repro.StorageError, repro.ReproError)
        assert issubclass(repro.SerializationError, repro.StorageError)
        assert issubclass(repro.ShardTimeoutError, repro.ReproError)
        assert issubclass(repro.ShardTimeoutError, TimeoutError)
        assert issubclass(repro.SimulatedCrashError, BaseException)
        assert not issubclass(repro.SimulatedCrashError, Exception)


class TestDocstrings:
    @pytest.mark.parametrize(
        "obj_name",
        [
            "TSIndex", "KVIndex", "ISAXIndex", "SweeplineSearch",
            "TimeSeries", "WindowSource", "MBTS", "SearchResult",
            "twin_search", "create_method", "load_dataset",
        ],
    )
    def test_public_objects_documented(self, obj_name):
        obj = getattr(repro, obj_name)
        assert obj.__doc__ and len(obj.__doc__.strip()) > 20, obj_name

    def test_public_methods_documented(self):
        for cls in (repro.TSIndex, repro.KVIndex, repro.ISAXIndex,
                    repro.SweeplineSearch):
            for name in ("search", "from_source"):
                method = getattr(cls, name)
                assert method.__doc__, f"{cls.__name__}.{name}"


class TestDoctestsInDocstrings:
    def test_quickstart_docstring_example_runs(self):
        # The module docstring example, executed literally.
        series = np.cumsum(np.random.default_rng(0).normal(size=5000))
        index = repro.TSIndex.build(series, length=100, normalization="none")
        result = index.search(series[250:350], epsilon=0.4)
        assert 250 in result.positions
        result = repro.twin_search(series, series[250:350], epsilon=0.4)
        assert 250 in result.positions

    def test_engine_docstring_example_runs(self):
        # The engine quickstart from the module docstring.
        series = np.cumsum(np.random.default_rng(0).normal(size=5000))
        with repro.QueryEngine() as serving:
            serving.build("demo", series, length=100, shards=2,
                          normalization="none")
            result = serving.query("demo", series[250:350], epsilon=0.4)
        assert 250 in result.positions
