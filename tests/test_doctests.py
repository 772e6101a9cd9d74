"""Execute the doctest examples embedded in public docstrings."""

import doctest

import pytest

import repro
import repro.bench.timing
import repro.core.series
import repro.core.tsindex
import repro.engine.cache
import repro.engine.executor
import repro.engine.sharding
import repro.indices.isax
import repro.indices.kvindex
import repro.indices.sweepline
import repro.live.index
import repro.live.wal

MODULES = [
    repro,
    repro.bench.timing,
    repro.core.series,
    repro.core.tsindex,
    repro.engine.cache,
    repro.engine.executor,
    repro.engine.sharding,
    repro.indices.isax,
    repro.indices.kvindex,
    repro.indices.sweepline,
    repro.live.index,
    repro.live.wal,
]


@pytest.mark.parametrize(
    "module", MODULES, ids=[module.__name__ for module in MODULES]
)
def test_module_doctests(module):
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.attempted > 0, f"{module.__name__} has no doctest examples"
    assert outcome.failed == 0, f"{module.__name__} doctests failed"
