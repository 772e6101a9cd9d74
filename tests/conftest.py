"""Shared fixtures: small deterministic series and prebuilt indices.

Everything here is sized so the whole suite runs in a couple of
minutes: series of a few thousand points, window length 50, and
session-scoped prebuilt indices reused by the read-only query tests.
"""

from __future__ import annotations

import concurrent.futures
import json
import pathlib
import shutil

import numpy as np
import pytest
from hypothesis import settings

import repro.live.index as live_index
from repro.core.normalization import Normalization
from repro.core.tsindex import TSIndex, TSIndexParams
from repro.core.windows import WindowSource
from repro.data import synthetic
from repro.indices.isax import ISAXIndex, ISAXParams
from repro.indices.kvindex import KVIndex, KVIndexParams
from repro.indices.sweepline import SweeplineSearch
from repro.live.compaction import Compactor

# Hypothesis budgets. ``ci`` (the default) is derandomized and has no
# per-example deadline — this box's timings swing 2× between runs — and
# keeps tests/test_live_state_machine.py under 15 s; ``soak`` is the long
# run of the same machine: ``--hypothesis-profile soak``.
settings.register_profile(
    "ci", max_examples=100, stateful_step_count=30, deadline=None, derandomize=True
)
settings.register_profile(
    "soak", max_examples=2000, stateful_step_count=40, deadline=None
)
settings.load_profile("ci")

#: Window length used across the suite (paper default is 100; 50 keeps
#: the suite fast without changing any behaviour under test).
LENGTH = 50


def index_row(engine, name):
    """The ``EngineStats.indexes`` row of the plane ``engine`` serves
    under ``name``."""
    return {row["name"]: row for row in engine.stats().indexes}[name]


@pytest.fixture(scope="session")
def series_values() -> np.ndarray:
    """A 3,000-point insect-like surrogate (raw values)."""
    return synthetic.insect_like(3000, seed=11)


@pytest.fixture(scope="session")
def wiggly_values() -> np.ndarray:
    """A small noisy-sine series for analytic checks."""
    return synthetic.noisy_sines(800, seed=5, noise_std=0.2)


@pytest.fixture(
    scope="session",
    params=[Normalization.NONE, Normalization.GLOBAL, Normalization.PER_WINDOW],
    ids=["none", "global", "per_window"],
)
def any_normalization(request):
    """Parametrize a test over all three regimes."""
    return request.param


@pytest.fixture(scope="session")
def source_global(series_values) -> WindowSource:
    """Window source under the GLOBAL regime (the paper's default)."""
    return WindowSource(series_values, LENGTH, Normalization.GLOBAL)


@pytest.fixture(scope="session")
def source_raw(series_values) -> WindowSource:
    return WindowSource(series_values, LENGTH, Normalization.NONE)


@pytest.fixture(scope="session")
def source_per_window(series_values) -> WindowSource:
    return WindowSource(series_values, LENGTH, Normalization.PER_WINDOW)


@pytest.fixture(scope="session")
def source_of(series_values):
    """Factory: window source for an arbitrary regime."""

    def factory(normalization, length: int = LENGTH) -> WindowSource:
        return WindowSource(series_values, length, normalization)

    return factory


@pytest.fixture(scope="session")
def sweepline_global(source_global) -> SweeplineSearch:
    return SweeplineSearch.from_source(source_global)


@pytest.fixture(scope="session")
def tsindex_global(source_global) -> TSIndex:
    """A prebuilt TS-Index with small capacities (forces deep trees)."""
    return TSIndex.from_source(
        source_global, params=TSIndexParams(min_children=4, max_children=10)
    )


@pytest.fixture(scope="session")
def kvindex_global(source_global) -> KVIndex:
    return KVIndex.from_source(source_global, params=KVIndexParams(num_bins=64))


@pytest.fixture(scope="session")
def isax_global(source_global) -> ISAXIndex:
    """A prebuilt iSAX with a small leaf capacity (forces splits)."""
    return ISAXIndex.from_source(
        source_global, params=ISAXParams(segments=5, leaf_capacity=100)
    )


@pytest.fixture()
def query_of(source_global):
    """Factory: the indexed window at a position, as a query array."""

    def factory(position: int, source: WindowSource | None = None) -> np.ndarray:
        chosen = source if source is not None else source_global
        return np.array(chosen.window_block(position, position + 1)[0])

    return factory


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """``repro-twin run`` at smoke scale, once per session: the data
    file's path and its parsed payload (≈ 7 s; every test of the
    run / evaluate pair reads this one run). Tiny series, but 8 queries:
    a timed cell is then tens of ms, so a scheduler hiccup cannot flip
    ``tsindex_faster_than_sweepline`` at the loosest ε, where the two
    methods are within 1.3-1.7x of each other at any scale."""
    from repro import cli

    path = tmp_path_factory.mktemp("experiments") / "smoke.json"
    code = cli.main(
        [
            "run", "--data", str(path), "--queries", "8",
            "--scale-insect", "0.02", "--scale-eeg", "0.001",
        ]
    )
    assert code == 0
    return path, json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def save_legacy_npz():
    """Factory: write ``index`` as the single compressed ``.npz`` file
    :func:`repro.persistence.save_index` produced while that was a
    write format — the same members, with frozen envelopes as whole
    node-major ``(n, l)`` ``uppers`` / ``lowers`` matrices — so the
    read-only legacy branch of ``load_index`` is exercised by files the
    library can no longer write. ``overrides`` replace members (e.g.
    float64 envelopes)."""
    from repro.core.frozen import RAW_ARRAY_FIELDS, FrozenTSIndex
    from repro.persistence.serializer import _payload_for

    def factory(index, path, **overrides) -> None:
        payload = _payload_for(index)
        if isinstance(index, FrozenTSIndex):
            trees = {"": index}
        else:
            shards = getattr(index, "shards", ())
            trees = {f"s{i}_": shard for i, shard in enumerate(shards)}
        for prefix, tree in trees.items():
            for field in RAW_ARRAY_FIELDS:
                del payload[prefix + field]
            for field, array in tree.arrays().items():
                payload[prefix + field] = array
        payload.update(overrides)
        with open(path, "wb") as handle:  # a handle keeps the name as given
            np.savez_compressed(handle, **payload)

    return factory


class _Deferred(concurrent.futures.Executor):
    """An executor that holds what it is given until :meth:`run_pending`
    runs it on the calling thread."""

    def __init__(self):
        self._calls = []

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        self._calls.append((future, fn, args, kwargs))
        return future

    def run_pending(self):
        while self._calls:
            future, fn, args, kwargs = self._calls.pop(0)
            future.set_running_or_notify_cancel()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:  # stored for result(), as a pool does
                future.set_exception(exc)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.run_pending()


class CallingThreadCompactor(Compactor):
    """The production :class:`~repro.live.compaction.Compactor` with its
    thread replaced by the caller's: :meth:`schedule` does its own
    bookkeeping, then runs the run it submitted — the unchanged
    ``Compactor._run``, failpoint, retries, backoff and crash accounting
    included — before it returns. A crash is therefore not raised but
    recorded (``compactor.crashed``), as on the thread."""

    def __init__(self, work, **options):
        super().__init__(work, **options)
        self._pool = self._calls = _Deferred()

    def schedule(self):
        super().schedule()
        self._calls.run_pending()


@pytest.fixture
def compaction_on_calling_thread(monkeypatch):
    """Every live plane built while this fixture is active compacts with
    a :class:`CallingThreadCompactor`: the plane's only compaction path,
    made deterministic — a merge scheduled by an append, seal or
    ``compact()`` has finished when that call returns."""
    monkeypatch.setattr(live_index, "Compactor", CallingThreadCompactor)


@pytest.fixture(scope="session")
def legacy_live_copy():
    """Factory: a writable copy, at ``target``, of
    ``tests/data/live_npz_segments`` — a durable live directory written
    by the last commit whose sealed segments were single ``.npz`` files
    (PR 18): the first 300 points of a seed-19 random walk, ``l = 16``,
    ``normalization="none"``, μc/Mc = 4/10, ``seal_threshold=64``, fed
    40 readings at creation and 20 per append — four ``.npz`` segments
    of 64 windows, 29 un-sealed windows in the WAL, and a manifest that
    still carries the retired ``archive_format`` key."""

    def factory(target) -> pathlib.Path:
        source = pathlib.Path(__file__).parent / "data" / "live_npz_segments"
        return pathlib.Path(shutil.copytree(source, target))

    return factory
