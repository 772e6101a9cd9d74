"""Symbolic Aggregate approXimation (SAX) alphabets and words.

A SAX word quantizes a PAA vector: each per-segment mean is mapped to a
discrete symbol whose value range is delimited by *breakpoints*
(Section 4.2). The iSAX trick (Shieh & Keogh 2008) requires breakpoints
that *nest* across dyadic cardinalities — the symbol at cardinality
``2^b`` is the top ``b`` bits of the symbol at the maximum cardinality —
so :class:`SAXAlphabet` stores one breakpoint table at the maximum
cardinality and derives every coarser level from it.

Two alphabet flavours match the paper's two data regimes:

* :meth:`SAXAlphabet.gaussian` — the classic N(0, 1) quantile
  breakpoints, valid when values are z-normalized;
* :meth:`SAXAlphabet.empirical` — quantile breakpoints estimated from
  the indexed data, the paper's "non-normalized values can also be
  handled by adjusting the breakpoints accordingly".
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt
from scipy import stats as scipy_stats

from .._util import as_float_array, check_positive_int
from ..exceptions import InvalidParameterError


def _check_power_of_two(value: int, *, name: str) -> int:
    value = check_positive_int(value, name=name)
    if value & (value - 1):
        raise InvalidParameterError(f"{name} must be a power of two, got {value}")
    return value


class SAXAlphabet:
    """Nested dyadic breakpoints up to a maximum cardinality.

    ``breakpoints(c)`` returns the ``c - 1`` boundaries splitting the
    value axis into ``c`` bins; symbol ``s`` covers
    ``[bp[s-1], bp[s])`` (closed below, open above), with the outermost
    bins unbounded.
    """

    __slots__ = ("_full", "_max_cardinality")

    def __init__(self, full_breakpoints: npt.ArrayLike, max_cardinality: int):
        max_cardinality = _check_power_of_two(
            max_cardinality, name="max_cardinality"
        )
        full = np.asarray(full_breakpoints, dtype=float)
        if full.ndim != 1 or full.size != max_cardinality - 1:
            raise InvalidParameterError(
                f"need {max_cardinality - 1} breakpoints for cardinality "
                f"{max_cardinality}, got shape {full.shape}"
            )
        if np.any(np.diff(full) < 0):
            raise InvalidParameterError("breakpoints must be non-decreasing")
        self._full = full
        self._max_cardinality = max_cardinality

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def gaussian(cls, max_cardinality: int = 256) -> "SAXAlphabet":
        """Standard-normal quantile breakpoints (z-normalized data)."""
        max_cardinality = _check_power_of_two(
            max_cardinality, name="max_cardinality"
        )
        quantiles = np.arange(1, max_cardinality) / max_cardinality
        return cls(scipy_stats.norm.ppf(quantiles), max_cardinality)

    @classmethod
    def empirical(cls, samples: npt.ArrayLike, max_cardinality: int = 256) -> "SAXAlphabet":
        """Quantile breakpoints estimated from observed values (the raw
        data regime of Figure 7). Dyadic quantiles nest by construction,
        preserving the iSAX bit-prefix property."""
        max_cardinality = _check_power_of_two(
            max_cardinality, name="max_cardinality"
        )
        samples = as_float_array(samples, name="samples")
        quantiles = np.arange(1, max_cardinality) / max_cardinality
        return cls(np.quantile(samples, quantiles), max_cardinality)

    # ------------------------------------------------------------------
    @property
    def max_cardinality(self) -> int:
        """The finest cardinality this alphabet supports."""
        return self._max_cardinality

    @property
    def max_bits(self) -> int:
        """``log2(max_cardinality)``."""
        return int(self._max_cardinality).bit_length() - 1

    def breakpoints(self, cardinality: int) -> np.ndarray:
        """The ``cardinality - 1`` boundaries at a coarser dyadic level."""
        cardinality = _check_power_of_two(cardinality, name="cardinality")
        if cardinality > self._max_cardinality:
            raise InvalidParameterError(
                f"cardinality {cardinality} exceeds maximum "
                f"{self._max_cardinality}"
            )
        step = self._max_cardinality // cardinality
        return self._full[step - 1 :: step]

    def __repr__(self) -> str:
        return f"SAXAlphabet(max_cardinality={self._max_cardinality})"

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def symbols(self, values: npt.ArrayLike, cardinality: int | None = None) -> np.ndarray:
        """Map values to symbols in ``[0, cardinality)``.

        A value equal to a breakpoint belongs to the upper bin; the
        returned dtype is ``int64`` to survive bit arithmetic.
        """
        cardinality = cardinality or self._max_cardinality
        breakpoints = self.breakpoints(cardinality)
        values = np.asarray(values, dtype=float)
        return np.searchsorted(breakpoints, values, side="right").astype(np.int64)

    def coarsen(self, symbols: npt.ArrayLike, from_bits: int, to_bits: int) -> np.ndarray:
        """Project symbols from ``2^from_bits`` down to ``2^to_bits``
        cardinality (the iSAX bit-prefix projection)."""
        if to_bits > from_bits:
            raise InvalidParameterError(
                f"cannot coarsen from {from_bits} to more bits {to_bits}"
            )
        return np.asarray(symbols, dtype=np.int64) >> (from_bits - to_bits)

    def symbol_range(self, symbol: int, cardinality: int) -> tuple[float, float]:
        """The value interval covered by ``symbol`` at ``cardinality``;
        outermost bins extend to ±inf."""
        breakpoints = self.breakpoints(cardinality)
        symbol = int(symbol)
        if not 0 <= symbol < cardinality:
            raise InvalidParameterError(
                f"symbol {symbol} outside [0, {cardinality})"
            )
        low = -np.inf if symbol == 0 else float(breakpoints[symbol - 1])
        high = np.inf if symbol == cardinality - 1 else float(breakpoints[symbol])
        return low, high

    def word_ranges(
        self, word: npt.ArrayLike, bits: npt.ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment ``(low, high)`` bounds of a (possibly
        mixed-cardinality) iSAX word.

        ``word[i]`` is the symbol of segment ``i`` at cardinality
        ``2^bits[i]``. Vectorized over segments.
        """
        word = np.asarray(word, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        if word.shape != bits.shape:
            raise InvalidParameterError(
                f"word and bits must align, got {word.shape} vs {bits.shape}"
            )
        low = np.empty(word.size, dtype=float)
        high = np.empty(word.size, dtype=float)
        for i in range(word.size):
            cardinality = 1 << int(bits[i])
            if cardinality == 1:
                low[i], high[i] = -np.inf, np.inf
            else:
                low[i], high[i] = self.symbol_range(int(word[i]), cardinality)
        return low, high


def sax_word(
    sequence: npt.ArrayLike,
    segments: int,
    alphabet: SAXAlphabet,
    cardinality: int | None = None,
) -> np.ndarray:
    """SAX word of one sequence: PAA then quantization."""
    from .paa import paa_transform

    return alphabet.symbols(paa_transform(sequence, segments), cardinality)
