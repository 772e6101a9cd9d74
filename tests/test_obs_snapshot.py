"""Histogram snapshots: per-sample consistency under concurrent mutation
(the exporters read every histogram through ``Histogram.snapshot()``)."""

import threading

import pytest

from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry("snaptest")


class TestConcurrentConsistency:
    """Each histogram snapshot must be internally consistent (count ==
    sum of buckets, sum == count * observed value) even while writer
    threads are mid-flight, and counters must be monotonic across
    successive reads."""

    OBSERVED = 0.004
    WRITERS = 4
    INCREMENTS = 2_000

    def test_snapshots_under_concurrent_writes(self, registry):
        counter = registry.counter("jobs_total", "Jobs.")
        histogram = registry.histogram("lat_seconds", "Latency.")
        start = threading.Barrier(self.WRITERS + 1)

        def hammer():
            start.wait()
            for _ in range(self.INCREMENTS):
                counter.inc()
                histogram.observe(self.OBSERVED)

        threads = [
            threading.Thread(target=hammer) for _ in range(self.WRITERS)
        ]
        for thread in threads:
            thread.start()
        start.wait()

        previous_count = 0.0
        for _ in range(200):
            buckets, total, count = histogram.snapshot()
            assert count == sum(buckets)
            assert total == pytest.approx(count * self.OBSERVED)
            jobs = counter.value
            assert jobs >= previous_count
            previous_count = jobs

        for thread in threads:
            thread.join()
        expected = self.WRITERS * self.INCREMENTS
        assert counter.value == expected
        assert histogram.snapshot()[2] == expected
