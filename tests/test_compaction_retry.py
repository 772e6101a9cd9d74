"""Compactor retry/backoff semantics: failed merges retry with bounded
backoff, an exhausted budget never poisons the plane, and a simulated
crash stops the background thread cold."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import SimulatedCrashError
from repro.faults import failpoints
from repro.live import LiveTwinIndex
from repro.live.compaction import Compactor


@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.reset()
    yield
    failpoints.reset()


class TestRetry:
    def test_transient_failures_retry_to_success(self):
        calls = []

        def work():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")

        compactor = Compactor(work, max_retries=5, backoff=0.001)
        compactor.schedule()
        compactor.wait(timeout=10.0)
        compactor.close()
        assert len(calls) == 3
        assert compactor.retry_count == 2
        assert compactor.failure_count == 0
        assert compactor.last_error is None

    def test_budget_exhaustion_abandons_without_poison(self):
        def work():
            raise RuntimeError("permanent")

        compactor = Compactor(work, max_retries=2, backoff=0.001)
        compactor.schedule()
        compactor.wait(timeout=10.0)  # must NOT raise the work error
        assert compactor.failure_count == 1
        assert compactor.retry_count == 2
        assert "permanent" in repr(compactor.last_error)
        stats = compactor.stats()
        assert stats["failures"] == 1 and stats["crashed"] is False
        compactor.close()  # must NOT raise either

    def test_next_schedule_starts_a_fresh_budget(self):
        attempts = []
        fail_first_run = [True]

        def work():
            attempts.append(1)
            if fail_first_run[0]:
                raise RuntimeError("bad run")

        compactor = Compactor(work, max_retries=1, backoff=0.001)
        compactor.schedule()
        compactor.wait(timeout=10.0)
        assert compactor.failure_count == 1
        fail_first_run[0] = False
        compactor.schedule()
        compactor.wait(timeout=10.0)
        compactor.close()
        # The abandoned run did not latch: the fresh run succeeded and
        # cleared the recorded error.
        assert compactor.last_error is None
        assert compactor.failure_count == 1

    def test_close_interrupts_backoff_sleep(self):
        def work():
            raise RuntimeError("always")

        compactor = Compactor(work, max_retries=5, backoff=30.0)
        compactor.schedule()
        time.sleep(0.05)  # let the first attempt fail into its backoff
        started = time.perf_counter()
        compactor.close()
        assert time.perf_counter() - started < 5.0

    def test_simulated_crash_stops_thread_and_schedule_noops(self):
        def work():
            raise SimulatedCrashError("kill")

        compactor = Compactor(work, max_retries=5, backoff=0.001)
        compactor.schedule()
        compactor.wait(timeout=10.0)
        assert compactor.crashed is True
        assert compactor.stats()["crashed"] is True
        assert compactor.retry_count == 0  # a kill is not retried
        compactor.schedule()  # must no-op, not restart the dead thread
        compactor.wait(timeout=10.0)
        compactor.close()

    def test_a_schedule_during_a_run_is_served_by_that_run(self):
        # The schedule lands after the running work has made its last
        # check but before its run ends: that run must run it, or
        # wait() returns with work left pending.
        pending, runs = [0], []
        blocked, release = threading.Event(), threading.Event()

        def work():
            runs.append(pending[0])
            pending[0] = 0
            if len(runs) == 1:
                blocked.set()
                release.wait(10.0)

        compactor = Compactor(work, backoff=0.001)
        compactor.schedule()
        assert blocked.wait(10.0)
        pending[0] = 1
        compactor.schedule()
        release.set()
        compactor.wait(timeout=10.0)
        compactor.close()
        assert runs == [0, 1] and pending[0] == 0

    def test_concurrent_schedules_are_never_lost(self):
        # More scheduling threads than cores and a short switch
        # interval: whatever the interleaving, the run wait() waits for
        # began after the last schedule, so it saw the last request.
        requested, seen = [0], [0]
        lock = threading.Lock()

        def work():
            with lock:
                seen[0] = requested[0]

        def client():
            for _ in range(300):
                with lock:
                    requested[0] += 1
                compactor.schedule()

        compactor = Compactor(work, backoff=0.001)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(30.0)
            assert not any(thread.is_alive() for thread in clients)
            compactor.wait(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
            compactor.close()
        assert seen[0] == requested[0] == 1200


class TestPlaneIntegration:
    def test_merge_failures_leave_plane_serviceable(self, tmp_path):
        rng = np.random.default_rng(3)
        live = LiveTwinIndex.create(
            str(tmp_path / "live"), length=16, seal_threshold=48,
            max_segments=2,
        )
        live._compactor._max_retries = 1
        live._compactor._backoff = 0.001
        fed = np.cumsum(rng.normal(size=300))
        failpoints.arm("compaction.merge", error=RuntimeError("merge down"))
        live.append(fed)
        live.compact(timeout=10.0)
        assert live.stats()["compaction"]["failures"] >= 1
        # Seals and appends keep working while merges fail ...
        more = np.cumsum(rng.normal(size=200)) + fed[-1]
        live.append(more)
        assert live.seal_count >= 2
        # ... and once the fault clears, compaction succeeds again.
        failpoints.disarm("compaction.merge")
        live.compact(timeout=10.0)
        assert live.stats()["compaction"]["last_error"] is None
        assert len(live.segments) <= 2
        stream = np.concatenate([fed, more])
        assert np.array_equal(np.asarray(live.values), stream)
        result = live.search(stream[50:66], 0.3)
        assert len(result) >= 1
        live.close()

    def test_a_merge_failure_is_never_a_seal_failure(
        self, tmp_path, compaction_on_calling_thread
    ):
        # Each seal below leaves two segments over max_segments=1, so
        # the 2nd archive write of the step is the merge's, not the
        # seal's: it is the compactor's to retry, and the seal that
        # committed before it stays a success.
        from repro.obs import MetricsRegistry, set_default_registry

        registry = MetricsRegistry("repro")
        previous = set_default_registry(registry)
        try:
            live = LiveTwinIndex.create(
                tmp_path / "live", np.arange(20.0), length=6,
                seal_threshold=8, max_segments=1,
            )
            live._compactor._backoff = 0.001
            failures = registry.get("repro_live_seal_failures_total")
            for step in (
                lambda: live.append(np.arange(20.0, 28.0)),  # a threshold seal
                live.seal,
            ):
                seals, retries = live.seal_count, live._compactor.retry_count
                with failpoints.armed("segment.write", error="io", on_hit=2):
                    step()
                stats = live.stats()
                assert stats["seals"] == seals + 1
                assert stats["seal_failures"] == 0
                assert stats["last_seal_error"] is None
                assert stats["compaction"]["retries"] >= retries + 1
                assert stats["segments"] == 1
                assert failures.value == 0
            live.close()
        finally:
            set_default_registry(previous)
        with LiveTwinIndex.recover(tmp_path / "live") as recovered:
            assert np.array_equal(recovered.values, np.arange(28.0))
            assert recovered.segment_count == 1

    def test_retries_surface_in_metrics(self):
        from repro.obs import MetricsRegistry, set_default_registry
        from repro.obs.metrics import default_registry

        registry = MetricsRegistry("repro")
        previous = default_registry()
        set_default_registry(registry)
        try:
            def work():
                raise RuntimeError("nope")

            compactor = Compactor(work, max_retries=2, backoff=0.001)
            compactor.schedule()
            compactor.wait(timeout=10.0)
            compactor.close()
            assert registry.get(
                "repro_compaction_retries_total"
            ).value == 2
            assert registry.get(
                "repro_compaction_failures_total"
            ).value == 1
        finally:
            set_default_registry(previous)
