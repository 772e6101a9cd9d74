"""Recovery-edge coverage: crashes and storage faults injected at the
exact durability boundaries, with the real recovery code asserted
byte-exact afterwards."""

import errno
import os

import numpy as np
import pytest

from repro.core.tsindex import TSIndex
from repro.exceptions import (
    SerializationError,
    SimulatedCrashError,
    StorageError,
)
from repro.faults import failpoints
from repro.live import LiveTwinIndex
from repro.live.wal import MANIFEST_NAME

LENGTH = 16
SEAL = 48

@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.reset()
    yield
    failpoints.reset()


def make_plane(path, readings=300, seed=0):
    """A durable plane with at least one sealed segment, plus the acked
    stream that went in."""
    rng = np.random.default_rng(seed)
    live = LiveTwinIndex.create(
        str(path), length=LENGTH, seal_threshold=SEAL,
    )
    fed = np.cumsum(rng.normal(size=readings))
    live.append(fed)
    assert live.seal_count >= 1
    return live, fed


def assert_exact(live, fed):
    """The plane's state and answers equal a from-scratch oracle."""
    values = np.asarray(live.values)
    assert np.array_equal(values, fed[: values.size])
    oracle = TSIndex.build(values, length=LENGTH, normalization="none")
    query = values[40:40 + LENGTH]
    epsilon = 0.4 * float(np.std(values))
    got, want = live.search(query, epsilon), oracle.search(query, epsilon)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.distances, want.distances)


class TestManifestCommitCrash:
    def test_partial_manifest_tmp_does_not_break_recovery(self, tmp_path):
        # Crash after writing only part of the manifest tmp file: the
        # committed manifest must win and the torn tmp must be ignored.
        path = tmp_path / "live"
        live, fed = make_plane(path)
        with failpoints.armed(
            "manifest.commit", payload={"truncate_tmp_to": 4}
        ):
            with pytest.raises(SimulatedCrashError):
                live.append(np.cumsum(np.ones(2 * SEAL)) + fed[-1])
        live.abandon()
        tmp = str(tmp_path / "live" / (MANIFEST_NAME + ".tmp"))
        assert os.path.exists(tmp) and os.path.getsize(tmp) == 4
        recovered = LiveTwinIndex.recover(path)
        # Everything acked before the crash survives; the WAL replays
        # the in-flight readings past the un-renamed manifest.
        assert recovered.series_length >= fed.size
        stream = np.concatenate(
            [fed, np.cumsum(np.ones(2 * SEAL)) + fed[-1]]
        )
        assert_exact(recovered, stream)
        recovered.close()

    def test_crash_between_segment_fsync_and_manifest_commit(self, tmp_path):
        # The seal writes the archive, then commits the manifest; a kill
        # between the two leaves an orphan archive that recovery sweeps
        # while the WAL replays the sealed-but-uncommitted readings.
        path = tmp_path / "live"
        live, fed = make_plane(path)
        before = {s.file for s in live.segments}
        with failpoints.armed("manifest.commit", crash=True):
            with pytest.raises(SimulatedCrashError):
                live.append(np.cumsum(np.ones(2 * SEAL)) + fed[-1])
        live.abandon()
        recovered = LiveTwinIndex.recover(path)
        files = {n for n in os.listdir(path) if n.startswith("seg-")}
        assert files == {s.file for s in recovered.segments}
        assert before <= files or len(files) >= len(before)
        stream = np.concatenate(
            [fed, np.cumsum(np.ones(2 * SEAL)) + fed[-1]]
        )
        assert_exact(recovered, stream)
        recovered.close()


class TestWalFaults:
    def test_enospc_mid_append_is_typed_and_rolled_back(self, tmp_path):
        path = tmp_path / "live"
        live, fed = make_plane(path)
        extra = np.cumsum(np.ones(10)) + fed[-1]
        with failpoints.armed("wal.append", error="enospc"):
            with pytest.raises(StorageError) as info:
                live.append(extra)
        assert isinstance(info.value.__cause__, OSError)
        assert info.value.__cause__.errno == errno.ENOSPC
        # The failed append is fully rolled back: the plane stays
        # serviceable and the journal stays decodable.
        live.append(extra)
        assert_exact(live, np.concatenate([fed, extra]))
        live.close()
        recovered = LiveTwinIndex.recover(path)
        assert_exact(recovered, np.concatenate([fed, extra]))
        recovered.close()

    def test_torn_enospc_write_truncated_from_journal(self, tmp_path):
        # A torn write that partially lands before ENOSPC: the rollback
        # truncates the partial record so the WAL never goes corrupt.
        path = tmp_path / "live"
        live, fed = make_plane(path)
        extra = np.cumsum(np.ones(10)) + fed[-1]
        with failpoints.armed(
            "wal.append",
            payload={"torn_after_bytes": 9, "error": "enospc"},
        ):
            with pytest.raises(StorageError):
                live.append(extra)
        live.append(extra)
        live.close()
        recovered = LiveTwinIndex.recover(path)
        assert_exact(recovered, np.concatenate([fed, extra]))
        recovered.close()

    def test_torn_write_crash_drops_only_the_tail(self, tmp_path):
        # A torn write followed by a kill: replay must drop the
        # incomplete record and keep every acked reading.
        path = tmp_path / "live"
        live, fed = make_plane(path)
        with failpoints.armed(
            "wal.append", payload={"torn_after_bytes": 7}
        ):
            with pytest.raises(SimulatedCrashError):
                live.append(np.ones(10) + fed[-1])
        live.abandon()
        recovered = LiveTwinIndex.recover(path)
        assert recovered.series_length >= fed.size
        assert_exact(recovered, fed)
        recovered.close()


def assert_six_modes_exact(live, stream):
    """Every query mode of the plane equals a from-scratch index over
    the same readings."""
    values = np.asarray(live.values)
    assert np.array_equal(values, stream[: values.size])
    oracle = TSIndex.build(values, length=LENGTH, normalization="none")
    epsilon = 0.4 * float(np.std(values))
    queries = [np.array(values[p:p + LENGTH]) for p in (7, 120, values.size - LENGTH)]
    for query in queries:
        for got, want in (
            (live.search(query, epsilon), oracle.search(query, epsilon)),
            (live.search(query[:9], epsilon), oracle.search(query[:9], epsilon)),
            (live.knn(query, 7), oracle.knn(query, 7)),
        ):
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.distances, want.distances)
        assert live.count(query, epsilon) == oracle.count(query, epsilon)
        assert live.exists(query, 0.0) and oracle.exists(query, 0.0)
        assert live.exists(query + 1e6, epsilon) == oracle.exists(query + 1e6, epsilon)
    got = live.search_batch(queries, epsilon)
    want = oracle.search_batch(queries, epsilon)
    for mine, theirs in zip(got.results, want.results):
        assert np.array_equal(mine.positions, theirs.positions)
        assert np.array_equal(mine.distances, theirs.distances)


class TestSealFailure:
    def test_one_failed_seal_does_not_wedge_the_plane(self, tmp_path):
        """An I/O error writing a sealed segment's archive, mid-batch:
        the readings are journaled and indexable, so the append
        succeeds and indexes the whole batch; the failure is counted,
        and the next append seals the oversized delta."""
        path = tmp_path / "live"
        stream = np.cumsum(np.random.default_rng(3).normal(size=400))
        live = LiveTwinIndex.create(
            str(path), length=LENGTH, seal_threshold=SEAL,
        )
        live.append(stream[:100])
        assert (live.seal_count, live.delta_windows) == (1, 37)

        failpoints.arm("segment.write", error="io", times=1)
        assert live.append(stream[100:157]) == 57  # crosses the threshold
        assert (live.seal_count, live.delta_windows) == (1, 37 + 57)
        stats = live.stats()
        assert stats["seal_failures"] == 1
        assert "segment write failed" in stats["last_seal_error"]
        assert_six_modes_exact(live, stream)

        for lo in range(157, 400, 81):  # the first of these re-seals
            live.append(stream[lo:lo + 81])
        assert live.seal_count >= 3
        stats = live.stats()
        assert stats["seal_failures"] == 1
        assert stats["last_seal_error"] is None
        assert_six_modes_exact(live, stream)
        segments = [(s.start, s.stop, s.file) for s in live.segments]
        live.close()

        recovered = LiveTwinIndex.recover(path)
        assert np.array_equal(np.asarray(recovered.values), stream)
        assert [(s.start, s.stop, s.file) for s in recovered.segments] == segments
        assert_six_modes_exact(recovered, stream)
        recovered.close()

    def test_a_retry_seals_the_backlog_in_threshold_steps(self, tmp_path):
        """What the append after a failed threshold seal seals: the
        *oldest* ``seal_threshold`` windows, then the next, for as long
        as a full threshold is left — not the whole over-threshold
        delta as one outsized segment."""
        stream = np.cumsum(np.random.default_rng(4).normal(size=300))
        live = LiveTwinIndex.create(
            str(tmp_path / "live"), length=LENGTH, seal_threshold=SEAL,
        )

        def spans():
            return [(s.start, s.stop) for s in live.segments]

        def absorbed():
            return live.segments[-1].stop + live.delta_windows

        live.append(stream[:100])
        assert spans() == [(0, SEAL)] and live.delta_windows == 37
        with failpoints.armed("segment.write", error="io", times=1):
            # 120 more windows: three thresholds' worth, none sealed —
            # a failed seal is not retried within its batch.
            assert live.append(stream[100:220]) == 120
        assert spans() == [(0, SEAL)] and live.delta_windows == 157
        assert live.stats()["seal_failures"] == 1
        assert absorbed() == live.window_count
        assert_six_modes_exact(live, stream)

        assert live.append(stream[220:221]) == 1  # the retry
        assert spans() == [(lo, lo + SEAL) for lo in range(0, 4 * SEAL, SEAL)]
        assert live.delta_windows == 158 - 3 * SEAL
        assert absorbed() == live.window_count
        assert live.stats()["last_seal_error"] is None
        assert_six_modes_exact(live, stream)

        # Past the in-memory hand-over the new segment answers, the
        # failure is still counted, and every window is still absorbed.
        with failpoints.armed("manifest.commit", error="io", times=1):
            assert live.append(stream[221:260]) == 39
        assert spans()[-1] == (4 * SEAL, 5 * SEAL)
        assert live.stats()["seal_failures"] == 2
        assert absorbed() == live.window_count
        assert_six_modes_exact(live, stream)
        live.close()
        with LiveTwinIndex.recover(tmp_path / "live") as recovered:
            assert np.array_equal(np.asarray(recovered.values), stream[:260])
            assert_six_modes_exact(recovered, stream)

    def test_crash_during_seal_still_propagates(self):
        live = LiveTwinIndex(length=LENGTH, seal_threshold=SEAL)
        with failpoints.armed("live.seal", crash=True):
            with pytest.raises(SimulatedCrashError):
                live.append(np.arange(100.0))


class TestDoubleRecovery:
    def test_recover_recover_is_bitwise_idempotent(self, tmp_path):
        path = tmp_path / "live"
        live, fed = make_plane(path)
        with failpoints.armed("live.seal", crash=True):
            with pytest.raises(SimulatedCrashError):
                live.append(np.cumsum(np.ones(2 * SEAL)) + fed[-1])
        live.abandon()

        first = LiveTwinIndex.recover(path)
        values_a = np.array(first.values)
        segments_a = [(s.start, s.stop, s.file) for s in first.segments]
        first.close()
        manifest_a = (tmp_path / "live" / MANIFEST_NAME).read_bytes()

        second = LiveTwinIndex.recover(path)
        values_b = np.array(second.values)
        segments_b = [(s.start, s.stop, s.file) for s in second.segments]
        second.close()
        manifest_b = (tmp_path / "live" / MANIFEST_NAME).read_bytes()

        assert np.array_equal(values_a, values_b)
        assert segments_a == segments_b
        assert manifest_a == manifest_b


class TestQuarantine:
    def corrupt_segment(self, path, position=-1):
        live = LiveTwinIndex.recover(path)
        target = live.segments[position].file
        live.close()
        with open(os.path.join(str(path), target, "meta.json"), "wb") as handle:
            handle.write(b"not an archive")
        return target

    def test_strict_recovery_stays_loud(self, tmp_path):
        path = tmp_path / "live"
        live, _ = make_plane(path)
        live.close()
        self.corrupt_segment(path)
        with pytest.raises(StorageError):
            LiveTwinIndex.recover(path)

    def test_quarantine_moves_aside_and_serves_remainder(self, tmp_path):
        path = tmp_path / "live"
        live, fed = make_plane(path, readings=400)
        live.close()
        # Corrupt the *last* segment: quarantine truncates the position
        # axis there, so everything before it keeps serving.
        target = self.corrupt_segment(path, position=-1)
        recovered = LiveTwinIndex.recover(path, strict=False)
        # The corrupt archive (and everything after it on the position
        # axis) moved into quarantine/ — never deleted.
        qdir = tmp_path / "live" / "quarantine"
        assert (qdir / target).exists()
        assert target in recovered.stats()["quarantined_files"]
        # The remainder serves, and accepts fresh appends.
        survivors = np.asarray(recovered.values)
        assert survivors.size < fed.size
        assert np.array_equal(survivors, fed[: survivors.size])
        extra = np.cumsum(np.ones(30)) + float(survivors[-1] if survivors.size else 0.0)
        recovered.append(extra)
        assert_exact(recovered, np.concatenate([survivors, extra]))
        recovered.close()

    def test_quarantined_plane_recovers_cleanly_afterwards(self, tmp_path):
        path = tmp_path / "live"
        live, fed = make_plane(path, readings=400)
        live.close()
        self.corrupt_segment(path, position=-1)
        degraded = LiveTwinIndex.recover(path, strict=False)
        survivors = np.asarray(degraded.values).copy()
        degraded.close()
        # After quarantine the on-disk state is consistent again: a
        # plain strict recover succeeds.
        clean = LiveTwinIndex.recover(path)
        assert np.array_equal(np.asarray(clean.values), survivors)
        clean.close()
