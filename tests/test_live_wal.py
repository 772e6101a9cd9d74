"""Durability and crash-recovery tests for the live ingestion plane.

The contract under test: a reading is durable once its WAL record is
fully on disk (or once a sealed segment's archive holds its values);
``recover()`` replays exactly to the last durable reading, answers
byte-identically to a from-scratch index over the recovered series, and
fails **loudly** on corrupted manifests or segment archives instead of
serving silently wrong answers.
"""

import errno
import gc
import hashlib
import json
import os
import weakref

import numpy as np
import pytest

from repro.core.tsindex import TSIndex, TSIndexParams
from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    SerializationError,
    StorageError,
)
from repro.faults import failpoints
from repro.live import LiveTwinIndex, WriteAheadLog
from repro.live.wal import (
    MANIFEST_NAME,
    load_manifest,
    manifest_path,
    save_manifest,
)

PARAMS = TSIndexParams(min_children=2, max_children=4)
SMALL = dict(params=PARAMS, seal_threshold=12, max_segments=2)

pytestmark = pytest.mark.usefixtures("compaction_on_calling_thread")


def make_durable(path, *, seed=0, normalization="none", appends=12):
    rng = np.random.default_rng(seed)
    live = LiveTwinIndex.create(
        path,
        rng.normal(size=60),
        length=16,
        normalization=normalization,
        **SMALL,
    )
    for _ in range(appends):
        live.append(rng.normal(size=int(rng.integers(1, 11))))
    return live, rng


def assert_matches_reference(live):
    ref = TSIndex.build(
        np.array(live.values),
        length=live.length,
        normalization=live.normalization,
        params=live.params,
    )
    rng = np.random.default_rng(99)
    for _ in range(4):
        position = int(rng.integers(ref.source.count))
        query = np.array(ref.source.window_block(position, position + 1)[0])
        for epsilon in (0.0, 0.8):
            actual = live.search(query, epsilon)
            expected = ref.search(query, epsilon)
            assert np.array_equal(actual.positions, expected.positions)
            assert np.array_equal(actual.distances, expected.distances)
        knn_actual, knn_expected = live.knn(query, 5), ref.knn(query, 5)
        assert np.array_equal(knn_actual.positions, knn_expected.positions)
        assert np.array_equal(knn_actual.distances, knn_expected.distances)


class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, start=7)
        wal.append([1.0, 2.0])
        wal.append([3.0])
        wal.close()
        start, values, clean = WriteAheadLog.replay(path)
        assert (start, clean) == (7, True)
        assert np.array_equal(values, [1.0, 2.0, 3.0])

    def test_rewrite_reanchors(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, start=0)
        wal.append(np.arange(10.0))
        wal.rewrite(start=6, values=np.arange(6.0, 10.0))
        wal.append([99.0])
        wal.close()
        start, values, clean = WriteAheadLog.replay(path)
        assert start == 6 and clean
        assert np.array_equal(values, [6.0, 7.0, 8.0, 9.0, 99.0])

    def test_truncated_tail_drops_torn_record(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, start=0)
        wal.append(np.arange(8.0))
        wal.append(np.arange(5.0))
        wal.close()
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        start, values, clean = WriteAheadLog.replay(path)
        assert not clean
        assert np.array_equal(values, np.arange(8.0))

    def test_corrupted_payload_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, start=0)
        wal.append(np.arange(8.0))
        wal.append(np.arange(4.0))
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 8)  # inside the last record's payload
            handle.write(b"\xff" * 4)
        start, values, clean = WriteAheadLog.replay(path)
        assert not clean
        assert np.array_equal(values, np.arange(8.0))

    def test_corrupted_header_fails_loudly(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL....")
        with pytest.raises(SerializationError, match="header"):
            WriteAheadLog.replay(path)

    def test_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            WriteAheadLog.replay(tmp_path / "absent.log")

    def test_append_after_close_rejected(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(SerializationError, match="closed"):
            wal.append([1.0])


class TestManifest:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError, match="cannot read"):
            load_manifest(tmp_path)

    def test_invalid_json(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_manifest(tmp_path)

    def test_wrong_format(self, tmp_path):
        save_manifest(tmp_path, {"format": 99})
        with pytest.raises(SerializationError, match="unsupported"):
            load_manifest(tmp_path)

    def test_missing_keys(self, tmp_path):
        save_manifest(tmp_path, {"format": 1, "length": 16})
        with pytest.raises(SerializationError, match="missing"):
            load_manifest(tmp_path)

    def test_malformed_segment_entry(self, tmp_path):
        save_manifest(
            tmp_path,
            {
                "format": 1,
                "length": 16,
                "normalization": "none",
                "params": {},
                "segments": [{"start": 0}],
            },
        )
        with pytest.raises(SerializationError, match="malformed segment"):
            load_manifest(tmp_path)


class TestRecovery:
    @pytest.mark.parametrize("normalization", ["none", "per_window"])
    def test_clean_round_trip(self, tmp_path, normalization):
        live, rng = make_durable(
            tmp_path / "live", seed=1, normalization=normalization
        )
        assert live.seal_count >= 1 and live.compaction_count >= 1
        query = np.array(live.values[20:36])
        before = live.search(query, 0.9)
        live.close()

        recovered = LiveTwinIndex.recover(tmp_path / "live")
        after = recovered.search(query, 0.9)
        assert np.array_equal(before.positions, after.positions)
        assert np.array_equal(before.distances, after.distances)
        assert_matches_reference(recovered)
        # the plane keeps working after recovery
        recovered.append(rng.normal(size=25))
        assert_matches_reference(recovered)
        recovered.close()

    def test_truncated_tail_replays_to_last_durable(self, tmp_path):
        path = tmp_path / "live"
        rng = np.random.default_rng(2)
        live = LiveTwinIndex.create(
            path,
            rng.normal(size=60),
            length=16,
            params=PARAMS,
            seal_threshold=500,  # the torn append must not seal
            max_segments=2,
        )
        live.append(rng.normal(size=20))
        durable_readings = live.series_length
        live.append(rng.normal(size=7))  # the append a crash tears
        live.close()
        wal = path / "wal.log"
        with open(wal, "r+b") as handle:
            handle.truncate(os.path.getsize(wal) - 11)

        recovered = LiveTwinIndex.recover(path)
        assert recovered.series_length == durable_readings
        assert_matches_reference(recovered)
        recovered.close()

    def test_sealed_values_survive_wal_loss(self, tmp_path):
        # After a seal the WAL only holds the un-sealed suffix; readings
        # inside sealed segments must survive even a heavily truncated
        # journal (they are durable in the segment archives).
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=3)
        frontier = live.segments[-1].stop
        live.close()
        wal = path / "wal.log"
        # Chop the journal down to its bare header: every un-sealed
        # reading is lost, sealed ones must remain.
        with open(wal, "r+b") as handle:
            handle.truncate(14)
        recovered = LiveTwinIndex.recover(path)
        assert recovered.series_length == frontier + recovered.length - 1
        assert_matches_reference(recovered)
        recovered.close()

    def test_corrupted_manifest_fails_loudly(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=4)
        live.close()
        (path / MANIFEST_NAME).write_text("{definitely not json")
        with pytest.raises(SerializationError):
            LiveTwinIndex.recover(path)

    def test_corrupted_segment_archive_fails_loudly(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=5)
        segment_file = live.segments[0].file
        live.close()
        children_file = path / segment_file / "children.npy"
        # Out-of-range child ids: from_arrays' structural validation
        # (PR 2) must reject the archive instead of wrapping around
        # under fancy indexing.
        np.save(children_file, np.full_like(np.load(children_file), 10**6))
        with pytest.raises((SerializationError, InvalidParameterError)):
            LiveTwinIndex.recover(path)

    def test_segment_chain_gap_fails_loudly(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=6)
        live.close()
        manifest = load_manifest(path)
        manifest["segments"][0]["start"] += 1
        save_manifest(path, manifest)
        with pytest.raises(SerializationError, match="segment chain"):
            LiveTwinIndex.recover(path)

    def test_wal_disagreeing_with_segments_fails_loudly(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=7)
        delta_start = live.segments[-1].stop
        suffix = np.array(live.values[delta_start:])
        live.close()
        wal = WriteAheadLog.create(path / "wal.log", start=delta_start - 3)
        wal.append(np.full(3 + suffix.size, 1234.5))
        wal.close()
        with pytest.raises(SerializationError, match="disagree"):
            LiveTwinIndex.recover(path)

    def test_create_refuses_existing_directory(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=8, appends=1)
        live.close()
        with pytest.raises(InvalidParameterError, match="already holds"):
            LiveTwinIndex.create(path, length=16)

    def test_a_closed_plane_refuses_to_seal(self, tmp_path):
        # The directory is the recovered plane's now: a seal through the
        # stale handle would commit a manifest and rewrite the journal
        # the recovered plane appends to, losing what it acked.
        path = tmp_path / "live"

        def digests():
            return {
                str(file.relative_to(path)): hashlib.sha256(file.read_bytes()).hexdigest()
                for file in path.rglob("*")
                if file.is_file()
            }

        stale = LiveTwinIndex.create(path, np.arange(40.0), length=16)
        stale.close()
        live = LiveTwinIndex.recover(path)
        before = digests()
        with pytest.raises(InvalidParameterError, match="closed"):
            stale.seal()
        assert digests() == before
        live.append(np.arange(40.0, 45.0))
        live.close()
        with LiveTwinIndex.recover(path) as recovered:
            assert np.array_equal(recovered.values, np.arange(45.0))

    def test_recover_is_repeatable(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=9)
        readings = live.series_length
        live.close()
        for _ in range(3):
            recovered = LiveTwinIndex.recover(path)
            assert recovered.series_length == readings
            recovered.close()

    def test_fsync_smoke(self, tmp_path):
        path = tmp_path / "live"
        live = LiveTwinIndex.create(
            path, np.arange(40.0), length=16, fsync=True, **SMALL
        )
        live.append(np.arange(20.0))
        live.close()
        recovered = LiveTwinIndex.recover(path, fsync=True)
        assert recovered.series_length == 60
        recovered.close()

    def test_fsync_mode_persists_across_reopen(self, tmp_path):
        # The durability choice made at create() time is recorded in
        # the manifest, so a plain recover() (the CLI's reopen path)
        # keeps journaling with fsync instead of silently downgrading.
        path = tmp_path / "live"
        live = LiveTwinIndex.create(
            path, np.arange(40.0), length=16, fsync=True, **SMALL
        )
        live.close()
        assert load_manifest(path)["fsync"] is True
        recovered = LiveTwinIndex.recover(path)
        assert recovered.stats()["durable"] is True
        assert recovered._fsync is True
        assert recovered._wal.fsync is True
        recovered.close()
        # ... and an explicit override still wins.
        downgraded = LiveTwinIndex.recover(path, fsync=False)
        assert downgraded._wal.fsync is False
        downgraded.close()

    def test_recover_sweeps_orphan_archives(self, tmp_path):
        # A crash between writing an archive and committing it to the
        # manifest (or between a compaction's manifest commit and its
        # unlink step) leaves unreferenced seg-* archives; recovery
        # must clean them up instead of leaking them forever — the
        # directories it writes and the single files it used to write.
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=11)
        live.close()
        orphan = path / "seg-999999999000-999999999100.rts"
        orphan.mkdir()
        (orphan / "series.npy").write_bytes(b"leftover from a crashed seal")
        legacy_orphan = path / "seg-999999999100-999999999200.npz"
        legacy_orphan.write_bytes(b"leftover from a crashed seal")
        recovered = LiveTwinIndex.recover(path)
        assert not orphan.exists() and not legacy_orphan.exists()
        files = {name for name in os.listdir(path) if name.startswith("seg-")}
        assert files == {s.file for s in recovered.segments}
        recovered.close()

    def test_manifest_wal_offset_validated(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=12)
        assert live.seal_count >= 1
        live.close()
        manifest = load_manifest(path)
        manifest["wal_offset"] = manifest["wal_offset"] + 5
        save_manifest(path, manifest)
        with pytest.raises(SerializationError, match="wal_offset"):
            LiveTwinIndex.recover(path)

    def test_close_never_raises_compaction_errors(self, tmp_path):
        # A failed background merge must not poison shutdown: close()
        # completes cleanly, the error surfaces through stats, and the
        # journal handle is released.
        from repro.faults import failpoints

        path = tmp_path / "live"
        live, _ = make_durable(path, seed=13, appends=2)
        with failpoints.armed(
            "compaction.merge", error=RuntimeError("simulated merge failure")
        ):
            live._compactor.close()
            live._compactor = type(live._compactor)(
                live._compact_loop, max_retries=1, backoff=0.001
            )
            live._compactor.schedule()
            live._compactor.wait(timeout=10.0)
            assert live._compactor.failure_count == 1
            assert "simulated merge failure" in (
                live.stats()["compaction"]["last_error"] or ""
            )
            live.close()  # must not raise
        assert live._wal._file is None

    def test_a_closed_plane_is_freed_when_dropped(self, tmp_path):
        # close() leaves no reference cycle behind, so a dropped plane
        # releases its segments and buffers at once, not at the next
        # cyclic garbage collection.
        live, _ = make_durable(tmp_path / "live", seed=14)
        assert live.seal_count >= 1
        live.close()
        gc.disable()
        try:
            dropped = weakref.ref(live)
            del live
            assert dropped() is None
        finally:
            gc.enable()

    def test_failed_journal_truncation_leaves_the_plane_appendable(
        self, tmp_path, monkeypatch
    ):
        # The post-seal journal rewrite released its handle before the
        # tmp write: a disk-full rename left it closed, and every later
        # append failed with "WAL ... is closed" until a restart.
        path = tmp_path / "live"
        live = LiveTwinIndex.create(path, length=16)
        live.append(np.arange(40.0))
        real_replace = os.replace

        def full_disk(source, target):
            if os.path.basename(target) == "wal.log":
                raise OSError(errno.ENOSPC, "no space left on device")
            return real_replace(source, target)

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", full_disk)
            with pytest.raises(StorageError, match="WAL rewrite"):
                live.seal()
        assert not (path / "wal.log.tmp").exists()
        # The seal itself is committed; the old journal merely starts
        # before the frontier, and keeps taking appends.
        assert live.segment_count == 1 and live.stats()["seal_failures"] == 0
        live.append([40.0])
        live.append([41.0])
        # An armed fault at the same site is typed too, and survivable.
        with failpoints.armed("wal.rewrite", error="io"):
            with pytest.raises(StorageError, match="WAL rewrite"):
                live.seal()
        live.append([42.0])
        live.close()
        recovered = LiveTwinIndex.recover(path)
        assert np.array_equal(recovered.values, np.arange(43.0))
        assert_matches_reference(recovered)
        recovered.close()

    def test_compaction_persists_across_recovery(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_durable(path, seed=10, appends=30)
        assert live.compaction_count >= 1
        segment_spans = [(s.start, s.stop) for s in live.segments]
        live.close()
        recovered = LiveTwinIndex.recover(path)
        assert [(s.start, s.stop) for s in recovered.segments] == segment_spans
        # stale pre-compaction archives were unlinked
        files = {name for name in os.listdir(path) if name.startswith("seg-")}
        assert files == {s.file for s in recovered.segments}
        recovered.close()
