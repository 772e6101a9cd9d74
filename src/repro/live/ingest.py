"""The live plane's append buffer and its incremental window statistics.

:class:`IngestBuffer` holds every reading appended so far in one
growable array and hands out the monolithic
:class:`~repro.core.windows.WindowSource` over it. Its tail past the
last sealed window is the plane's **delta** — scanned by a sweepline
over a :meth:`~repro.core.windows.WindowSource.shard` of that source,
bulk loaded at seal — so extending the buffer is all an append costs. Under the per-window
regime it also maintains the rolling means and standard deviations
incrementally: they are prefix-stable under appends (see
:func:`~repro.core.normalization.rolling_std`), so extending the cached
arrays is bitwise identical to recomputing them over the whole series
and each append costs O(batch + block), not O(series).

No lock and no I/O here: the buffer belongs to one
:class:`~repro.live.index.LiveTwinIndex`, which declares its reference
``guarded-by(_lock)`` and calls :meth:`IngestBuffer.extend` /
:meth:`IngestBuffer.source` with that lock held. What they hand out
never changes afterwards, so a query answers it without the lock.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._util import FLOAT_DTYPE
from ..core.normalization import Normalization, rolling_std, std_block_size
from ..core.series import TimeSeries
from ..core.windows import WindowSource, assemble_source
from ..exceptions import InvalidParameterError


def coerce_readings(readings: Any, *, allow_empty: bool) -> np.ndarray:
    """``readings`` as a finite 1-D float batch, or a typed error."""
    if readings is None:
        if allow_empty:
            return np.empty(0, dtype=FLOAT_DTYPE)
        raise InvalidParameterError("readings must be a non-empty 1-D batch")
    array = np.atleast_1d(np.asarray(readings, dtype=FLOAT_DTYPE))
    if array.ndim != 1 or (array.size == 0 and not allow_empty):
        raise InvalidParameterError("readings must be a non-empty 1-D batch")
    if not np.all(np.isfinite(array)):
        raise InvalidParameterError("readings contain NaN or infinity")
    return array


class IngestBuffer:
    """Every reading so far, plus the window source over them."""

    def __init__(self, values: np.ndarray, length: int, normalization: Normalization):
        self._length = length
        self._normalization = normalization
        self._capacity = max(1024, int(values.size) * 2, length * 2)
        self._buffer = np.empty(self._capacity, dtype=FLOAT_DTYPE)
        self._buffer[: values.size] = values
        self._size = int(values.size)
        self._csum: np.ndarray | None = None
        self._csum_count = 0
        self._win_means: np.ndarray | None = None
        self._win_stds: np.ndarray | None = None
        self._stats_count = 0

    @property
    def size(self) -> int:
        """Readings held."""
        return self._size

    @property
    def window_count(self) -> int:
        """Complete windows over the readings held."""
        return max(0, self._size - self._length + 1)

    @property
    def values(self) -> np.ndarray:
        """A view of the readings held. It never changes: :meth:`extend`
        writes only past it, and one that outgrows the capacity copies
        into a new array — so a reader may keep it (or a :meth:`source`)
        after letting go of the owner's lock."""
        return self._buffer[: self._size]

    def extend(self, readings: np.ndarray) -> None:
        """Append a batch, doubling the capacity as needed."""
        needed = self._size + readings.size
        if needed > self._capacity:
            while self._capacity < needed:
                self._capacity *= 2
            grown = np.empty(self._capacity, dtype=FLOAT_DTYPE)
            grown[: self._size] = self._buffer[: self._size]
            self._buffer = grown
        self._buffer[self._size : needed] = readings
        self._size = needed

    def source(self) -> WindowSource:
        """The monolithic source over the buffer as it is now (at least
        ``length`` readings). It never changes either: its values are
        a :attr:`values` view, the regime is raw or per-window, and the
        rolling statistics are prefix-stable (a later append rewrites
        the std block it extends with the same bytes, or regrows the
        arrays by copying)."""
        view = self.values
        if self._normalization is not Normalization.PER_WINDOW:
            series = TimeSeries(view, name="live", copy=False)
            return WindowSource(series, self._length, self._normalization)
        self._extend_window_stats()
        count = self.window_count
        return assemble_source(
            view,
            self._length,
            self._normalization,
            means=self._win_means[:count],
            stds=self._win_stds[:count],
            name="live",
        )

    def _extend_window_stats(self) -> None:
        """Extend the cached per-window rolling statistics to the
        current size — bitwise identical to recomputing
        ``rolling_mean``/``rolling_std`` over the full buffer, because
        the cumulative sum continues sequentially and the std kernel's
        block boundaries sit at fixed absolute positions."""
        size = self._size
        if self._csum is None or self._csum.size < size + 1:
            grown = np.zeros(self._capacity + 1, dtype=FLOAT_DTYPE)
            if self._csum is not None:
                grown[: self._csum_count + 1] = self._csum[
                    : self._csum_count + 1
                ]
            self._csum = grown
        if size > self._csum_count:
            new = self._buffer[self._csum_count : size]
            # cumsum seeded with the running total continues the exact
            # sequential accumulation one cumsum over the whole buffer
            # would perform — same order, same rounding.
            tail = np.cumsum(
                np.concatenate(([self._csum[self._csum_count]], new)),
                dtype=FLOAT_DTYPE,
            )
            self._csum[self._csum_count + 1 : size + 1] = tail[1:]
            self._csum_count = size
        count = size - self._length + 1
        if self._win_means is None or self._win_means.size < count:
            grown_means = np.empty(self._capacity, dtype=FLOAT_DTYPE)
            grown_stds = np.empty(self._capacity, dtype=FLOAT_DTYPE)
            if self._win_means is not None:
                grown_means[: self._stats_count] = self._win_means[
                    : self._stats_count
                ]
                grown_stds[: self._stats_count] = self._win_stds[
                    : self._stats_count
                ]
            self._win_means = grown_means
            self._win_stds = grown_stds
        if count <= self._stats_count:
            return
        lo = self._stats_count
        length = self._length
        self._win_means[lo:count] = (
            self._csum[lo + length : count + length] - self._csum[lo:count]
        ) / length
        # Only std blocks touching new windows change; recomputing from
        # the containing block's absolute boundary reproduces the global
        # kernel's chunks (and centers) exactly.
        block_start = (lo // std_block_size(length)) * std_block_size(length)
        self._win_stds[block_start:count] = rolling_std(
            self._buffer[block_start:size], length
        )
        self._stats_count = count
