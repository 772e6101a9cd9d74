"""Chebyshev matrix profile, motifs and discords (extension).

The paper's introduction motivates twin search with applications like
"detecting irregular patterns in medical sequences"; the Matrix Profile
line of work (cited in Section 2) packages exactly that as two derived
artifacts:

* the **profile**: for every window, the distance to its nearest
  non-trivially-overlapping neighbour;
* **motifs**: the profile's minima (the most repeated pattern);
* **discords**: the profile's maxima (the least repeatable pattern —
  anomalies).

Matrix Profile computes these under Euclidean distance with FFT tricks
that do not transfer to Chebyshev (as the paper notes about the UCR
suite); here the profile is computed exactly with one TS-Index 1-NN
query per window, using the exclusion-zone k-NN of
:meth:`repro.core.frozen.FrozenTSIndex.knn` (a ``TSIndex`` answers it
from its ``freeze()`` snapshot, flattened once for all the windows).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .._util import check_positive_int
from ..core.normalization import Normalization
from ..core.tsindex import TSIndex
from ..core.windows import WindowSource
from ..exceptions import InvalidParameterError


@dataclasses.dataclass
class ChebyshevProfile:
    """The Chebyshev matrix profile of one series.

    ``distances[p]`` is the Chebyshev distance from window ``p`` to its
    nearest neighbour outside the exclusion zone; ``neighbors[p]`` is
    that neighbour's start position.
    """

    distances: np.ndarray
    neighbors: np.ndarray
    length: int
    exclusion: int

    def __len__(self) -> int:
        return int(self.distances.size)

    def motif(self) -> tuple[int, int, float]:
        """The best-repeated pair: ``(position, neighbor, distance)``."""
        position = int(np.argmin(self.distances))
        return position, int(self.neighbors[position]), float(
            self.distances[position]
        )

    def discords(self, count: int = 1) -> list[tuple[int, float]]:
        """The ``count`` most anomalous windows, non-overlapping.

        Sorted by decreasing profile distance; subsequent discords must
        not overlap already-selected ones (standard discord semantics).
        """
        count = check_positive_int(count, name="count")
        order = np.argsort(-self.distances)
        selected: list[tuple[int, float]] = []
        for position in order:
            position = int(position)
            if all(
                abs(position - chosen) >= self.length
                for chosen, _ in selected
            ):
                selected.append((position, float(self.distances[position])))
                if len(selected) == count:
                    break
        return selected


def chebyshev_matrix_profile(
    series,
    length: int,
    *,
    normalization=Normalization.PER_WINDOW,
    exclusion: int | None = None,
    index: TSIndex | None = None,
) -> ChebyshevProfile:
    """Exact Chebyshev matrix profile via TS-Index 1-NN self joins.

    ``exclusion`` defaults to ``length // 2`` positions on each side
    (the Matrix Profile convention for suppressing trivial matches).
    An existing index over the same series/length may be reused.
    """
    if index is None:
        source = WindowSource(series, length, normalization)
        index = TSIndex.from_source(source)
    else:
        source = index.source
        if source.length != length:
            raise InvalidParameterError(
                f"index window length {source.length} != requested {length}"
            )
    if exclusion is None:
        exclusion = max(1, length // 2)
    if source.count <= 2 * exclusion:
        raise InvalidParameterError(
            f"series too short: {source.count} windows with exclusion "
            f"{exclusion} leaves some windows without any valid neighbour"
        )

    count = source.count
    distances = np.empty(count, dtype=float)
    neighbors = np.empty(count, dtype=np.int64)
    for position in range(count):
        window = source.window(position)
        zone = (max(0, position - exclusion), min(count, position + exclusion + 1))
        nearest = index.knn(window, 1, exclude=zone)
        distances[position] = float(nearest.distances[0])
        neighbors[position] = int(nearest.positions[0])
    return ChebyshevProfile(
        distances=distances,
        neighbors=neighbors,
        length=length,
        exclusion=exclusion,
    )
