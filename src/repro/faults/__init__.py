"""Fault injection and chaos testing for the serving stack.

Two layers:

* :mod:`repro.faults.failpoints` — the zero-dependency failpoint
  framework. Storage and fan-out code declares named sites
  (``failpoint("wal.append")``); tests and the chaos harness arm them
  with deterministic triggers (nth-hit, seeded probability, bounded
  ``times``) and error classes (I/O error, ENOSPC, torn write,
  simulated crash). Disarmed sites cost one empty-dict check.
* :mod:`repro.faults.chaos` — the kill-and-recover harness driven by
  the ``repro chaos`` CLI: crash loops mid-seal/mid-compaction under bursty ingest, disk-full and torn-write
  storms, byte-exactness asserted against a from-scratch oracle after
  every recovery. Imported lazily (``import repro.faults.chaos``) so the
  failpoint layer stays dependency-free.

Instrumented sites
------------------

==================  =====================================================
site                where it fires
==================  =====================================================
``wal.append``      before a WAL record write (supports the torn-write
                    payload ``{"torn_after_bytes": k, "error": ...}``)
``wal.fsync``       before ``os.fsync`` on the WAL file
``wal.rewrite``     before the WAL tmp-file rewrite begins
``manifest.commit``  after the manifest tmp file is written + fsynced,
                    before the atomic rename
``segment.write``   before a sealed segment archive is written
``segment.read``    before a segment archive is loaded during recovery
``live.seal``       at the start of a seal (delta freeze + archive)
``compaction.merge``  in the background merge loop, before each merge
``shard.search``    before every per-shard call of ``ShardedTSIndex``, in
                    every query mode (``repro.query.parts.PartSet``)
``segment.search``  before every per-segment call of ``LiveTwinIndex``, in
                    every query mode (same site in ``PartSet``; the
                    delta answers under the plane lock and fires none)
``fanout.task``     before every fan-out part (shared helper): in the
                    calling thread, a pool thread or a worker process
==================  =====================================================
"""

from .failpoints import (
    Failpoint,
    arm,
    armed,
    disarm,
    failpoint,
    list_armed,
    make_error,
    reset,
    site_stats,
)

__all__ = [
    "Failpoint",
    "arm",
    "armed",
    "disarm",
    "failpoint",
    "list_armed",
    "make_error",
    "reset",
    "site_stats",
]
