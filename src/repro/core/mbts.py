"""Minimum Bounding Time Series (MBTS) — Definition 2 and Equations 2–3.

An MBTS is the pair of envelope sequences ``(upper, lower)`` taking, at
every timestamp, the max/min over a set of equal-length sequences. It is
the bounding geometry of TS-Index nodes, playing the role the MBR plays
in an R-tree. This module implements:

* construction from a sequence set (:func:`mbts_of`) and incremental
  expansion (:meth:`MBTS.expand_to_include`, :meth:`MBTS.union`);
* the sequence↔MBTS distance of Equation 2 (the pruning bound of
  Lemma 1);
* the MBTS↔MBTS gap distance of Equation 3 (used to seed internal-node
  splits). The printed Eq. 3 contains a typo in its branch conditions;
  we implement the standard disjoint-gap form
  ``max_i max(B1ℓ_i - B2u_i, B2ℓ_i - B1u_i, 0)``: zero where the
  envelopes overlap at a timestamp, the gap between them where they do
  not — the only reading under which Eq. 3 is symmetric and lower-bounds
  the distance between any two member sequences;
* the enlargement metrics used to choose insertion subtrees and split
  assignments. The paper does not fix one; ``split_metric="area"`` (the
  default) is the R-tree rule, total growth ``Σ_i`` over timestamps,
  and ``"max"`` the Chebyshev-style largest single-timestamp growth.
  Answers are identical under both — only tree shape, hence pruning,
  differs (``benchmarks/bench_ablation_tsindex.py`` measures it).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .._util import FLOAT_DTYPE, as_float_array
from ..exceptions import InvalidParameterError


class MBTS:
    """A mutable upper/lower bounding pair over length-``l`` sequences.

    Invariant: ``lower_i <= upper_i`` at every timestamp ``i``.
    """

    __slots__ = ("upper", "lower")

    def __init__(self, upper: npt.ArrayLike, lower: npt.ArrayLike):
        upper = np.array(upper, dtype=FLOAT_DTYPE)
        lower = np.array(lower, dtype=FLOAT_DTYPE)
        if upper.ndim != 1 or upper.shape != lower.shape:
            raise InvalidParameterError(
                f"upper/lower must be equal-length 1-D arrays, got "
                f"{upper.shape} and {lower.shape}"
            )
        if np.any(lower > upper):
            raise InvalidParameterError("MBTS requires lower <= upper everywhere")
        self.upper = upper
        self.lower = lower

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_sequence(cls, sequence: npt.ArrayLike) -> "MBTS":
        """Degenerate MBTS enclosing a single sequence (upper == lower)."""
        sequence = as_float_array(sequence, name="sequence")
        return cls(sequence.copy(), sequence.copy())

    @classmethod
    def from_sequences(cls, matrix: npt.ArrayLike) -> "MBTS":
        """MBTS of a non-empty ``(k, l)`` matrix of sequences (Eq. 1)."""
        matrix = np.asarray(matrix, dtype=FLOAT_DTYPE)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise InvalidParameterError(
                f"need a non-empty (k, l) matrix, got shape {matrix.shape}"
            )
        return cls(matrix.max(axis=0), matrix.min(axis=0))

    def copy(self) -> "MBTS":
        """Deep copy (the arrays are duplicated)."""
        return MBTS(self.upper.copy(), self.lower.copy())

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of timestamps covered."""
        return self.upper.size

    def band_widths(self) -> np.ndarray:
        """Per-timestamp envelope width ``upper - lower``."""
        return self.upper - self.lower

    def area(self) -> float:
        """Total envelope area ``Σ_i (upper_i - lower_i)``.

        The tie-breaking measure for insertion/split decisions.
        """
        return float(np.sum(self.upper - self.lower))

    def max_width(self) -> float:
        """Maximum envelope width (a Chebyshev-flavoured size measure)."""
        return float(np.max(self.upper - self.lower))

    def __repr__(self) -> str:
        return f"MBTS(length={self.length}, area={self.area():.4g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBTS):
            return NotImplemented
        return np.array_equal(self.upper, other.upper) and np.array_equal(
            self.lower, other.lower
        )

    def __hash__(self) -> int:  # pragma: no cover - mutable, unhashable by design
        raise TypeError("MBTS is mutable and unhashable")

    # ------------------------------------------------------------------
    # Containment and distances
    # ------------------------------------------------------------------
    def contains(self, sequence: npt.ArrayLike) -> bool:
        """True when ``lower_i <= sequence_i <= upper_i`` for all ``i``."""
        sequence = as_float_array(sequence, name="sequence")
        self._check_length(sequence.size)
        return bool(
            np.all(sequence <= self.upper) and np.all(sequence >= self.lower)
        )

    def contains_mbts(self, other: "MBTS") -> bool:
        """True when ``other``'s envelope lies fully inside this one."""
        self._check_length(other.length)
        return bool(
            np.all(other.upper <= self.upper) and np.all(other.lower >= self.lower)
        )

    def distance_to_sequence(self, sequence: npt.ArrayLike) -> float:
        """Equation 2: how far ``sequence`` pokes outside the envelope."""
        sequence = as_float_array(sequence, name="sequence")
        self._check_length(sequence.size)
        above = sequence - self.upper
        below = self.lower - sequence
        return float(max(np.max(above), np.max(below), 0.0))

    def distance_to_sequence_exceeds(self, sequence: npt.ArrayLike, epsilon: float) -> bool:
        """Early-abandoning form of Lemma 1's check ``d(Q, B) > ε``.

        Scans timestamps and stops at the first excursion beyond
        ``epsilon`` (the per-node acceleration noted in Section 5.3).
        """
        sequence = as_float_array(sequence, name="sequence")
        self._check_length(sequence.size)
        upper = self.upper
        lower = self.lower
        for i in range(sequence.size):
            value = sequence[i]
            if value - upper[i] > epsilon or lower[i] - value > epsilon:
                return True
        return False

    def gap_to(self, other: "MBTS") -> float:
        """Equation 3: the Chebyshev gap between two envelopes.

        Zero when the envelopes overlap at every timestamp.
        """
        self._check_length(other.length)
        gap_a = self.lower - other.upper
        gap_b = other.lower - self.upper
        return float(max(np.max(gap_a), np.max(gap_b), 0.0))

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def expand_to_include(self, sequence: npt.ArrayLike) -> None:
        """Grow the envelope (in place) to cover ``sequence``."""
        sequence = as_float_array(sequence, name="sequence")
        self._check_length(sequence.size)
        np.maximum(self.upper, sequence, out=self.upper)
        np.minimum(self.lower, sequence, out=self.lower)

    def expand_fast(self, sequence: np.ndarray) -> None:
        """Unvalidated :meth:`expand_to_include` for hot insert paths.

        ``sequence`` must already be a float64 array of matching length;
        the TS-Index insert loop guarantees this.
        """
        np.maximum(self.upper, sequence, out=self.upper)
        np.minimum(self.lower, sequence, out=self.lower)

    def expand_to_include_mbts(self, other: "MBTS") -> None:
        """Grow the envelope (in place) to cover another MBTS."""
        self._check_length(other.length)
        np.maximum(self.upper, other.upper, out=self.upper)
        np.minimum(self.lower, other.lower, out=self.lower)

    def union(self, other: "MBTS") -> "MBTS":
        """A new MBTS covering both envelopes."""
        self._check_length(other.length)
        return MBTS(
            np.maximum(self.upper, other.upper),
            np.minimum(self.lower, other.lower),
        )

    def enlargement_for_sequence(self, sequence: npt.ArrayLike) -> float:
        """Area growth if ``sequence`` were included (split metric).

        ``Σ_i max(s_i - u_i, 0) + max(ℓ_i - s_i, 0)`` — the R-tree style
        total enlargement (``split_metric="area"``, see the module
        docstring).
        """
        sequence = as_float_array(sequence, name="sequence")
        self._check_length(sequence.size)
        above = np.maximum(sequence - self.upper, 0.0)
        below = np.maximum(self.lower - sequence, 0.0)
        return float(np.sum(above) + np.sum(below))

    def enlargement_for_mbts(self, other: "MBTS") -> float:
        """Area growth if ``other``'s envelope were included."""
        self._check_length(other.length)
        above = np.maximum(other.upper - self.upper, 0.0)
        below = np.maximum(self.lower - other.lower, 0.0)
        return float(np.sum(above) + np.sum(below))

    def max_enlargement_for_sequence(self, sequence: npt.ArrayLike) -> float:
        """Chebyshev-style enlargement: the largest single-timestamp
        excursion. Equal to Eq. 2's distance; exposed under this name for
        the split-metric ablation."""
        return self.distance_to_sequence(sequence)

    # ------------------------------------------------------------------
    def _check_length(self, other_length: int) -> None:
        if other_length != self.length:
            raise InvalidParameterError(
                f"length mismatch: MBTS covers {self.length} timestamps, "
                f"operand has {other_length}"
            )


def mbts_of(sequences: npt.ArrayLike) -> MBTS:
    """Convenience wrapper over :meth:`MBTS.from_sequences`."""
    return MBTS.from_sequences(sequences)


def sequence_mbts_distance(sequence: npt.ArrayLike, mbts: MBTS) -> float:
    """Functional form of Equation 2 (``d(S, B)``)."""
    return mbts.distance_to_sequence(sequence)


def mbts_gap_distance(first: MBTS, second: MBTS) -> float:
    """Functional form of Equation 3 (``d(B1, B2)``)."""
    return first.gap_to(second)


# ----------------------------------------------------------------------
# Outward float32 rounding (the frozen plane's envelope storage)
# ----------------------------------------------------------------------
#: Storage dtype of frozen envelopes: half the bytes of the float64 the
#: tree computes in. A filter only has to be conservative, so the cast
#: rounds *outward* — uppers up, lowers down — and never inward.
ENVELOPE_DTYPE = np.float32


def _round_f32(values: npt.ArrayLike, outward: int) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype == ENVELOPE_DTYPE:
        return values
    with np.errstate(over="ignore"):  # beyond float32 range: ±inf, fixed below
        rounded = values.astype(ENVELOPE_DTYPE)
    # Round-to-nearest fell short of the input on about half the
    # elements; move those one float32 outward. Neighbouring floats are
    # neighbouring integers in their bit pattern (ascending for
    # positive floats, descending for negative), so the step is ±1 on
    # the int32 view — five cheap passes where a masked ``nextafter``
    # costs five times as much on a million-element envelope matrix.
    # ±inf from an overflowing cast steps back to ±max the same way,
    # and a zero is only ever stepped away from its own sign.
    short = rounded < values if outward > 0 else rounded > values
    bits = rounded.view(np.int32)
    step = bits >> 31
    step |= 1  # +1 for positive floats, -1 for negative
    step *= short
    if outward > 0:
        bits += step
    else:
        bits -= step
    return rounded


def round_up_f32(values: npt.ArrayLike) -> np.ndarray:
    """The smallest float32 ``>=`` each value (elementwise ceiling onto
    the float32 grid).

    Exact float32 inputs — and float32 arrays, returned as they are —
    pass through unchanged, so the rounding is idempotent; every other
    result lies less than one float32 step above its input. Values
    beyond the float32 range stay covered: above ``+max`` they become
    ``+inf``, below ``-max`` they become ``-max``.
    """
    return _round_f32(values, +1)


def round_down_f32(values: npt.ArrayLike) -> np.ndarray:
    """The largest float32 ``<=`` each value — :func:`round_up_f32`
    mirrored (``-inf`` below the range, ``+max`` above it)."""
    return _round_f32(values, -1)
