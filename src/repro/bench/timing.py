"""Wall-clock timing for the experiment harness: :class:`Timer`, a
context manager over ``time.perf_counter`` (seconds)."""

from __future__ import annotations

import time


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    >>> with Timer() as timer:
    ...     _ = sum(range(1000))
    >>> timer.seconds >= 0.0
    True
    """

    __slots__ = ("_start", "seconds")

    def __init__(self):
        self._start = None
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.seconds = time.perf_counter() - self._start

    @property
    def milliseconds(self) -> float:
        """Elapsed time in milliseconds."""
        return self.seconds * 1000.0
