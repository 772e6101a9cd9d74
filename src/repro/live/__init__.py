"""repro.live — LSM-style live ingestion plane for twin search.

The paper's indexes (and :mod:`repro.engine`'s serving plane) are built
over a *static* series; monitoring workloads — the intro's traffic /
EEG / seismic scenarios — need the series to grow while staying
queryable. This subsystem provides the missing write path:

* :class:`LiveTwinIndex` — appends readings into a growable buffer;
  the windows completed since the last seal are the **delta**, that
  buffer's unindexed tail, scanned by the streaming refine kernel. A
  seal bulk-loads the delta into an immutable
  :class:`~repro.core.frozen.FrozenTSIndex` **segment** (value chunks
  overlapping by ``l - 1``, so no window is lost), and adjacent
  segments are compacted on a background thread. Queries fan out over
  delta + segments and merge exactly — results are byte-identical to a
  from-scratch TS-Index over the full series, in both the raw and the
  per-window normalization regimes.
* :class:`WriteAheadLog` — a CRC-guarded append journal;
  :meth:`LiveTwinIndex.create` makes a plane durable and
  :meth:`LiveTwinIndex.recover` replays un-sealed readings after a
  crash. The live directory around it — manifest, segment archives,
  the order they are committed in — is :mod:`repro.live.store`'s.
* :class:`Segment` / :func:`merge_segments` / :class:`Compactor` — the
  sealed-run representation and the size-tiered merge policy.

Modules: ``index`` (the plane: config, lock, lifecycle, queries),
``ingest`` (append buffer + incremental window statistics), ``store``
(on-disk protocol), ``wal``, ``segments``, ``compaction``. The crash
contract is held by ``tests/test_live_state_machine.py``.

Serve a live plane through :class:`repro.engine.QueryEngine` via
:meth:`QueryEngine.add <repro.engine.QueryEngine.add>`
and :meth:`QueryEngine.append <repro.engine.QueryEngine.append>`
(cached results are keyed on the plane's mutation generation, so an
append can never serve a stale result), or from the command line with
``repro-twin live init|append|query|stats``.
"""

from .compaction import (
    DEFAULT_MAX_SEGMENTS,
    DEFAULT_SEAL_THRESHOLD,
    Compactor,
    select_adjacent_pair,
)
from .index import LiveTwinIndex
from .segments import Segment, merge_segments
from .store import load_manifest, save_manifest
from .wal import WriteAheadLog

__all__ = [
    "Compactor",
    "DEFAULT_MAX_SEGMENTS",
    "DEFAULT_SEAL_THRESHOLD",
    "LiveTwinIndex",
    "Segment",
    "WriteAheadLog",
    "load_manifest",
    "merge_segments",
    "save_manifest",
    "select_adjacent_pair",
]
