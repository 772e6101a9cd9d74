"""Capability names a query plane can declare.

Every plane (paper method, frozen snapshot, sharded engine, live
ingestion plane) advertises what its kernels implement *natively*
through a ``capabilities`` frozenset of these strings; the planner
(:mod:`repro.query.planner`) calls native kernels where they exist and
synthesizes the rest centrally — so a plane only ever has to implement
``search`` to be fully servable.

Whether a plane is served as parts — fanned out on an executor, bounded
by ``timeout=`` / ``degraded=`` — is not a capability: the planner
learns it from the plane's ``_take`` method (see
:class:`repro.query.parts.PartitionedPlane`).

This module is import-leaf (no intra-package imports) so planes in any
layer — :mod:`repro.core`, :mod:`repro.indices`, :mod:`repro.engine`,
:mod:`repro.live` — can declare capabilities without import cycles.
"""

from __future__ import annotations

from typing import Any

#: The plane answers ``search(query, epsilon)`` itself. Mandatory — the
#: one kernel every plane must bring.
CAP_SEARCH = "search"

#: Native ``knn(query, k, exclude=...)`` with the library-wide
#: ``(distance, position)`` tie-break.
CAP_KNN = "knn"

#: Native ``exists(query, epsilon)`` membership probe (the flat
#: TS-Index answers it as whether its own ``search`` finds a twin).
CAP_EXISTS = "exists"

#: Native ``count(query, epsilon)`` that beats re-running ``search``
#: and measuring the result.
CAP_COUNT = "count"

#: Native ``search_batch(queries, epsilon)`` whole-workload entry point.
CAP_SEARCH_BATCH = "search_batch"

#: ``search`` accepts the ``verification=`` strategy option.
CAP_VERIFICATION = "verification"

#: Native ``search_varlength(query, epsilon)`` serving queries of any
#: length ``m <= l`` (prefix-envelope pruning + tail coverage). Planes
#: without it are still servable: the planner synthesizes variable
#: length with a prefix scan kernel.
CAP_VARLENGTH = "varlength"

#: Every capability name, for validation and documentation.
ALL_CAPABILITIES = frozenset(
    {
        CAP_SEARCH,
        CAP_KNN,
        CAP_EXISTS,
        CAP_COUNT,
        CAP_SEARCH_BATCH,
        CAP_VERIFICATION,
        CAP_VARLENGTH,
    }
)

#: What a plane that only implements ``search`` supports (the
#: :class:`~repro.indices.base.SubsequenceIndex` default): plain search
#: with a verification strategy; everything else is synthesized.
BASE_CAPABILITIES = frozenset({CAP_SEARCH, CAP_VERIFICATION})


def capabilities_of(index: Any) -> frozenset:
    """The declared capability set of ``index`` (defaults to
    :data:`BASE_CAPABILITIES` for planes that declare nothing)."""
    return frozenset(getattr(index, "capabilities", BASE_CAPABILITIES))
