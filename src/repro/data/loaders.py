"""File IO for time series: plain text, CSV column, and ``.npy``.

Real copies of the paper's datasets (or any other series) can be loaded
with :func:`load_series` and passed anywhere the library expects a
series. Formats are chosen by extension; text formats expect one value
per line (optionally a chosen CSV column).
"""

from __future__ import annotations

import os

import numpy as np
import numpy.typing as npt

from ..core.series import TimeSeries
from ..exceptions import InvalidParameterError


def load_series(
    path: str | os.PathLike[str], *, column: int = 0, name: str | None = None
) -> TimeSeries:
    """Load a series from ``path`` (``.npy``, ``.csv``, ``.txt``/other).

    ``column`` selects the CSV column (ignored for 1-D inputs). The
    series name defaults to the file's base name.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise InvalidParameterError(f"no such file: {path}")
    label = name if name is not None else os.path.basename(path)

    if path.endswith(".npy"):
        values = np.load(path)
    elif path.endswith(".csv"):
        values = np.genfromtxt(path, delimiter=",")
    else:
        values = np.loadtxt(path)

    values = np.asarray(values, dtype=float)
    if values.ndim == 2:
        if not 0 <= column < values.shape[1]:
            raise InvalidParameterError(
                f"column {column} outside the file's {values.shape[1]} columns"
            )
        values = values[:, column]
    elif values.ndim != 1:
        raise InvalidParameterError(
            f"expected a 1-D or 2-D file, got shape {values.shape}"
        )
    return TimeSeries(values, name=label)


def save_series(series: npt.ArrayLike, path: str | os.PathLike[str]) -> None:
    """Save a series to ``path`` (format chosen by extension, as in
    :func:`load_series`)."""
    path = os.fspath(path)
    values = np.asarray(series, dtype=float)
    if path.endswith(".npy"):
        np.save(path, values)
    elif path.endswith(".csv"):
        np.savetxt(path, values, delimiter=",")
    else:
        np.savetxt(path, values)
