"""A live directory whose sealed segments are legacy ``.npz`` files.

``tests/data/live_npz_segments`` (see the ``legacy_live_copy`` fixture
for how it was made) is what every durable plane created before the raw
archive directory became the only container looks like. Nothing writes
that shape any more, so this module is what keeps it readable: it must
recover exactly, keep serving while new ``.rts`` segments land beside
the old files, and turn raw segment by segment as compaction rewrites
it.
"""

import json
import os

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.live import LiveTwinIndex
from repro.live.wal import MANIFEST_NAME

LENGTH = 16
SEAL = 64
PARAMS = TSIndexParams(min_children=4, max_children=10)
SERIES = np.cumsum(np.random.default_rng(19).normal(size=600))
FED = 300  # readings the committed directory holds

EPSILON = 3.0  # 9–45 twins per query on this walk
POSITIONS = (3, 70, 142, 230, 280)


def _segment_names(path) -> list[str]:
    return sorted(name for name in os.listdir(path) if name.startswith("seg-"))


def _answers(index, readings: int) -> list:
    """Positions, distances and stats of all six query modes, for a
    fixed set of queries taken from ``SERIES[:readings]``."""
    out = []
    queries = [
        np.array(SERIES[p : p + LENGTH]) for p in POSITIONS if p + LENGTH <= readings
    ]
    for query in queries:
        prefix = query[:7]
        for result in (
            index.search(query, EPSILON),
            index.search_varlength(prefix, 1.5),
            index.knn(query, 6),
        ):
            out.append((result.positions.tolist(), result.distances.tolist(), result.stats))
        out.append(index.count(query, EPSILON))
        out.append(index.exists(query + 0.25, EPSILON))
        out.append(index.exists(query + 100.0, EPSILON))
    for result in index.search_batch(queries, EPSILON).results:
        out.append((result.positions.tolist(), result.distances.tolist(), result.stats))
    return out


def _without_stats(answers: list) -> list:
    return [a[:2] if isinstance(a, tuple) else a for a in answers]


def _assert_exact(live: LiveTwinIndex, readings: int) -> None:
    """``live`` holds ``SERIES[:readings]`` and answers like a
    from-scratch ``TSIndex`` over them (positions, distances).
    ``QueryStats`` have no second source to agree with: the committed
    segments are insertion-shaped trees, which nothing builds any more
    (a seal bulk-loads); that they are *stable* across reopens is
    ``test_close_and_recover_again_is_identical``."""
    assert np.array_equal(live.values, SERIES[:readings])
    actual = _answers(live, readings)
    assert any(isinstance(a, tuple) and len(a[0]) > 5 for a in actual)
    assert actual[0][2].candidates > 0
    scratch = TSIndex.build(
        SERIES[:readings], LENGTH, normalization="none", params=PARAMS
    )
    assert _without_stats(actual) == _without_stats(_answers(scratch, readings))


@pytest.fixture()
def legacy_dir(tmp_path, legacy_live_copy):
    return legacy_live_copy(tmp_path / "live")


def test_the_fixture_is_what_it_says(legacy_dir):
    names = _segment_names(legacy_dir)
    assert len(names) == 4 and all(name.endswith(".npz") for name in names)
    assert all((legacy_dir / name).is_file() for name in names)
    manifest = json.loads((legacy_dir / MANIFEST_NAME).read_text())
    assert manifest["archive_format"] == "npz"
    assert manifest["wal_offset"] == 4 * SEAL
    assert (legacy_dir / "wal.log").stat().st_size > 14  # header + a tail


def test_recovers_exactly_in_all_six_modes(legacy_dir):
    with LiveTwinIndex.recover(legacy_dir) as live:
        assert [s.file for s in live.segments] == _segment_names(legacy_dir)
        assert live.delta_windows == FED - LENGTH + 1 - 4 * SEAL
        _assert_exact(live, FED)
        # The rewritten manifest no longer names a container.
        manifest = json.loads((legacy_dir / MANIFEST_NAME).read_text())
        assert "archive_format" not in manifest


def test_new_seals_land_as_directories_beside_the_files(legacy_dir):
    with LiveTwinIndex.recover(legacy_dir) as live:
        before = _segment_names(legacy_dir)
        for start in range(FED, 400, 20):
            live.append(SERIES[start : start + 20])
        after = _segment_names(legacy_dir)
        assert set(before) < set(after)
        added = sorted(set(after) - set(before))
        assert added and all(name.endswith(".rts") for name in added)
        assert all((legacy_dir / name).is_dir() for name in added)
        assert [s.file for s in live.segments] == after
        _assert_exact(live, 400)
    with LiveTwinIndex.recover(legacy_dir) as again:
        assert _segment_names(legacy_dir) == after
        _assert_exact(again, 400)


def test_compaction_rewrites_the_files_as_directories(legacy_dir):
    manifest = json.loads((legacy_dir / MANIFEST_NAME).read_text())
    manifest["max_segments"] = 1
    (legacy_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
    with LiveTwinIndex.recover(legacy_dir) as live:
        assert live.segment_count == 4  # recovery itself rewrites nothing
        live.compact()
        assert live.segment_count == 1
        assert _segment_names(legacy_dir) == ["seg-000000000000-000000000256.rts"]
        _assert_exact(live, FED)
        before = _answers(live, FED)
    with LiveTwinIndex.recover(legacy_dir) as again:
        assert again.segment_count == 1
        assert _answers(again, FED) == before


def test_unreferenced_legacy_file_is_swept(legacy_dir):
    orphan = legacy_dir / "seg-000000000256-000000000320.npz"
    orphan.write_bytes((legacy_dir / "seg-000000000192-000000000256.npz").read_bytes())
    with LiveTwinIndex.recover(legacy_dir) as live:
        assert not orphan.exists()
        assert len(_segment_names(legacy_dir)) == 4
        _assert_exact(live, FED)


def test_close_and_recover_again_is_identical(legacy_dir):
    with LiveTwinIndex.recover(legacy_dir) as first:
        answers = _answers(first, FED)
    manifest = (legacy_dir / MANIFEST_NAME).read_bytes()
    with LiveTwinIndex.recover(legacy_dir) as second:
        assert _answers(second, FED) == answers
    assert (legacy_dir / MANIFEST_NAME).read_bytes() == manifest
    assert len(_segment_names(legacy_dir)) == 4
