"""The benchmark's own span recorder.

Spans wrap the calls the benchmark makes into each layer's public
functions (nothing under ``src/`` is edited or patched). A span is
``(name, start, end, parent, op)``: ``parent`` is the index of the span
that was open when this one started, ``op`` the operation the span
belongs to, so the spans of one query share an identifier. Spans stay
in memory and are written once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; a ``*_share`` metric is a layer's
summed self time over the summed duration of the enclosing ``op``
spans.
"""

from __future__ import annotations

import json
import time

import numpy as np


class _OpenSpan:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int):
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.spans[self._index][2] = time.perf_counter()
        recorder._stack.pop()


class SpanRecorder:
    """Single-threaded (the benchmark has one client thread)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op]`` rows, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, op: int | None = None) -> _OpenSpan:
        """Open a span; use as a context manager. ``op`` defaults to the
        enclosing span's, so only the outermost span of an operation
        needs to pass it."""
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        return _OpenSpan(self, index)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> np.ndarray:
        """Durations (seconds) of every span called ``name``."""
        return np.asarray(
            [end - start for n, start, end, _, _ in self.spans if n == name]
        )

    def self_times(self, name: str) -> np.ndarray:
        """Self times (seconds) of every span called ``name``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return np.asarray(
            [
                end - start - child_time[i]
                for i, (n, start, end, _, _) in enumerate(self.spans)
                if n == name
            ]
        )

    def share(self, name: str, of: str) -> float:
        """Summed self time of ``name`` spans over the summed duration
        of ``of`` spans."""
        return float(self.self_times(name).sum() / self.durations(of).sum())

    def write(self, path: str, **header: object) -> None:
        """Write the whole trace as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                handle,
            )
