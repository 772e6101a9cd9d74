"""Small measuring helpers shared by the workloads and the probes."""

from __future__ import annotations

import dataclasses
import os
import resource
import time
from typing import Callable

import numpy as np

clock = time.perf_counter


@dataclasses.dataclass(frozen=True)
class Metric:
    """One measured value. ``note`` says what was measured instead when
    the named entry point is absent from the program (see README,
    "Deletion candidates")."""

    value: float
    unit: str
    note: str = ""


@dataclasses.dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: dict[str, Metric] = dataclasses.field(default_factory=dict)
    #: Front-door operations issued, and how many of them raised or
    #: disagreed with the oracle.
    attempted: int = 0
    failed: int = 0
    #: Non-metric facts worth printing (input digest, ε, sample counts).
    info: dict[str, object] = dataclasses.field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, note)


class ReferenceKernel:
    """A fixed piece of numpy + interpreter work that has nothing to do
    with the program under test.

    The shared box runs identical work up to 2× slower for 5–20 s at a
    time — as long as a run — so no statistic taken inside one run can
    average it away (README, "Steadiness"). Timing this kernel all
    through a run says how fast the machine was at each moment, and a
    latency divided by it moves when the program changes, not when a
    neighbour wakes up. Its data is fixed, not drawn from ``--seed``:
    it is no input of the program.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._block = rng.normal(size=(100, 2000))
        self._column = rng.normal(size=(100, 1))

    def __call__(self) -> float:
        """Run the kernel once (≈ 5 ms); returns the seconds it took."""
        started = clock()
        for _ in range(6):
            bound = np.maximum(self._column - self._block, self._block - self._column).max(axis=0)
            total = 0
            for value in np.flatnonzero(bound <= 2.5)[:300].tolist():
                total += value * value
        return clock() - started


class SpeedLog:
    """Reference-kernel timings taken every :attr:`EVERY` seconds of a
    loop (≈ 2.5 % of it), and the kernel time at any moment between."""

    EVERY = 0.2

    def __init__(self) -> None:
        self._kernel = ReferenceKernel()
        self._kernel()  # the first call pays the page faults
        self._times: list[float] = []
        self._seconds: list[float] = []

    def sample(self) -> float:
        """Time the kernel now; returns the clock after it."""
        seconds = self._kernel()
        now = clock()
        self._times.append(now - seconds / 2)
        self._seconds.append(seconds)
        return now

    def sample_if_due(self, now: float) -> float:
        """:meth:`sample` when the last one is :attr:`EVERY` old, else
        ``now`` unchanged — so a loop's clock skips the kernel's time."""
        return self.sample() if now - self._times[-1] >= self.EVERY else now

    def at(self, times) -> np.ndarray:
        """Kernel seconds at each of ``times`` (linear in between)."""
        return np.interp(times, self._times, self._seconds)

    def median_ms(self) -> float:
        return ms(self._seconds)


def ms(seconds, q: float = 50) -> float:
    """The ``q``-th percentile of a sample of seconds, in milliseconds."""
    return float(np.percentile(seconds, q)) * 1e3


def us(seconds, q: float = 50) -> float:
    return ms(seconds, q) * 1e3


def timed(call: Callable[[], object]) -> tuple[float, object]:
    """``(seconds, result)`` of one call."""
    started = clock()
    result = call()
    return clock() - started, result


def peak_rss_mib() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(path: str) -> int:
    """Total size of the regular files under ``path`` (or of the file
    itself)."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )
