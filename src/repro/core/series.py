"""The :class:`TimeSeries` container.

A thin, immutable wrapper over a 1-D float64 NumPy array that provides
the notation of Section 3.1: ``T[p : p+l]`` subsequence extraction (the
paper's ``T_{p,l}``), z-normalized views, and basic summary statistics.
Positions are 0-based throughout the library (the paper is 1-based).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np
import numpy.typing as npt

from .._util import as_float_array, check_window_length
from ..exceptions import InvalidParameterError
from .normalization import znormalize


class TimeSeries:
    """An immutable, named, 1-D time series.

    Parameters
    ----------
    values:
        Any 1-D sequence of finite numbers.
    name:
        Optional label used in reports and reprs.
    copy:
        Copy the input buffer (default). With ``copy=False`` the series
        aliases the caller's array zero-copy; the caller must then not
        mutate it (used internally by the streaming index, whose buffer
        only ever grows past the aliased region).

    Examples
    --------
    >>> series = TimeSeries([1.0, 2.0, 3.0, 4.0], name="demo")
    >>> series.subsequence(1, 2)
    array([2., 3.])
    >>> len(series)
    4
    """

    __slots__ = ("_values", "_name")

    def __init__(self, values: npt.ArrayLike, name: str = "", *, copy: bool = True):
        array = as_float_array(values, name="values")
        if copy:
            array = array.copy()
        array.setflags(write=False)
        self._values = array
        self._name = str(name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The underlying read-only float64 array."""
        return self._values

    @property
    def name(self) -> str:
        """Human-readable label for reports."""
        return self._name

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, key: Any) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __array__(
        self, dtype: npt.DTypeLike = None, copy: bool | None = None
    ) -> np.ndarray:
        if dtype is not None:
            return np.asarray(self._values, dtype=dtype)
        return self._values

    def __repr__(self) -> str:
        label = f" name={self._name!r}" if self._name else ""
        return f"TimeSeries(length={len(self)}{label})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __hash__(self) -> int:
        return hash((len(self._values), self._values.tobytes()[:256]))

    # ------------------------------------------------------------------
    # Subsequence extraction (Section 3.1 notation)
    # ------------------------------------------------------------------
    def subsequence(self, position: int, length: int) -> np.ndarray:
        """Return the subsequence ``T_{p,l}`` starting at 0-based
        ``position`` with ``length`` points, as a read-only view."""
        length = check_window_length(length, len(self))
        if not 0 <= position <= len(self) - length:
            raise InvalidParameterError(
                f"position {position} with length {length} falls outside the "
                f"series of length {len(self)}"
            )
        return self._values[position : position + length]

    def window_count(self, length: int) -> int:
        """Number of distinct ``length``-sized windows (``|T| - l + 1``)."""
        length = check_window_length(length, len(self))
        return len(self) - length + 1

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def znormalized(self) -> "TimeSeries":
        """Globally z-normalized copy of this series."""
        suffix = " (z-norm)" if self._name else ""
        return TimeSeries(znormalize(self._values), name=self._name + suffix)

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """A new series over ``values[start:stop]`` (used for scaling
        datasets down in the benchmark harness)."""
        if not 0 <= start < stop <= len(self):
            raise InvalidParameterError(
                f"invalid slice [{start}, {stop}) for series of length {len(self)}"
            )
        return TimeSeries(self._values[start:stop], name=self._name)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Arithmetic mean of all values."""
        return float(self._values.mean())

    def std(self) -> float:
        """Population standard deviation of all values."""
        return float(self._values.std())

    def minimum(self) -> float:
        """Smallest value."""
        return float(self._values.min())

    def maximum(self) -> float:
        """Largest value."""
        return float(self._values.max())

    def describe(self) -> dict:
        """Summary statistics used by dataset reports."""
        return {
            "name": self._name,
            "length": len(self),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.minimum(),
            "max": self.maximum(),
        }
