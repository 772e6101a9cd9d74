"""repro.query — the plane-agnostic query pipeline.

One ``QuerySpec → plan → execute → merge`` path serves every index
plane in the library — the four paper methods (sweepline, KV-Index,
iSAX, TS-Index), the frozen flat plane, the sharded engine and the live
ingestion plane — through exactly one implementation of query
preparation, dispatch, result merging and stats aggregation:

* :class:`QuerySpec` / :meth:`QuerySpec.prepare` — validation plus
  raw→index domain mapping (:mod:`repro.query.spec`);
* :func:`plan` / :func:`execute` — one dispatch rule: a partitioned
  plane is answered on its parts, any other plane by its own method
  for the mode, ``exists`` / ``count`` by the length of its search
  (:mod:`repro.query.planner`);
* :func:`merge_offset_search` / :func:`merge_knn` /
  :func:`aggregate_stats` — the shared merge kernels every composite
  plane reuses (:mod:`repro.query.merge`);
* :class:`~repro.query.parts.PartSet` — the one fan-out loop over
  index parts, and :class:`~repro.query.parts.PartitionedPlane`, the
  query surface of the planes served as parts (sharded, live), which
  hand the planner their parts (:mod:`repro.query.parts`; internal,
  not re-exported);
* :func:`register_plane` — decorator-based plane registration backing
  :func:`repro.indices.base.create_method` (:mod:`repro.query.registration`).
"""

from .merge import (
    aggregate_stats,
    batch_result,
    merge_knn,
    merge_offset_search,
)
from .planner import (
    QueryPlan,
    execute,
    plan,
    scan_knn,
)
from .registration import (
    PlaneInfo,
    plane_infos,
    plane_names,
    register_plane,
    resolve_plane,
)
from .spec import (
    PreparedQuery,
    QuerySpec,
    check_varlength_query,
    map_raw_to_index_domain,
    normalize_exclude,
    prepare_values,
    query_extent,
)
from .varlength import (
    prefix_source,
    scan_prefix_search,
    tail_positions,
)

__all__ = [
    "PlaneInfo",
    "PreparedQuery",
    "QueryPlan",
    "QuerySpec",
    "aggregate_stats",
    "batch_result",
    "check_varlength_query",
    "execute",
    "map_raw_to_index_domain",
    "merge_knn",
    "merge_offset_search",
    "normalize_exclude",
    "plan",
    "plane_infos",
    "plane_names",
    "prefix_source",
    "prepare_values",
    "query_extent",
    "register_plane",
    "resolve_plane",
    "scan_knn",
    "scan_prefix_search",
    "tail_positions",
]
