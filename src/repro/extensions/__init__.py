"""Extensions beyond the paper's core scope.

* :mod:`repro.extensions.pairs` — twin *pair* discovery across a
  collection of time-aligned series, the problem of the authors' earlier
  SSTD'19 work the paper builds on (Section 2, reference [5]);
* :mod:`repro.extensions.profile` — exact Chebyshev matrix profile,
  motifs and discords via exclusion-zone 1-NN self joins.

Variable-length queries and appendable indexes, once extensions, are
first-class: ``index.search_varlength`` on every plane
(:mod:`repro.query`) and :class:`repro.live.LiveTwinIndex`.
"""

from .pairs import PairResult, discover_twin_pairs, self_twin_pairs
from .profile import ChebyshevProfile, chebyshev_matrix_profile

__all__ = [
    "ChebyshevProfile",
    "PairResult",
    "chebyshev_matrix_profile",
    "discover_twin_pairs",
    "self_twin_pairs",
]
