"""Fault injection for the serving stack.

:mod:`repro.faults.failpoints` is a zero-dependency failpoint framework.
Storage and fan-out code declares named sites
(``failpoint("wal.append")``); tests arm them with deterministic
triggers (nth-hit, seeded probability, bounded ``times``) and error
classes (I/O error, ENOSPC, torn write, simulated crash). Disarmed
sites cost one empty-dict check.

What the faults are *for* — the live plane's crash contract — is held by
one executed model, ``tests/test_live_state_machine.py``: a Hypothesis
state machine over append / seal / reopen / query whose fault
table arms every live-plane site below (a tier-1 test asserts the table
covers this registry), with byte-exactness against a from-scratch
oracle after every step.

Instrumented sites
------------------

==================  =====================================================
site                where it fires
==================  =====================================================
``wal.append``      before a WAL record write (supports the torn-write
                    payload ``{"torn_after_bytes": k, "error": ...}``)
``wal.fsync``       before ``os.fsync`` on the WAL file
``wal.rewrite``     before the WAL tmp file is written (the old journal's
                    handle is already released)
``manifest.commit``  after the manifest tmp file is written + fsynced,
                    before the atomic rename
``segment.write``   before a sealed segment archive is written
``segment.read``    before a segment archive is loaded during recovery
``live.seal``       at the start of a seal (delta freeze + archive)
``shard.search``    before every per-shard call of ``ShardedTSIndex``, in
                    every query mode (``repro.query.parts.PartSet``)
``segment.search``  before every per-part call of ``LiveTwinIndex`` — the
                    sealed forest, the delta's scan, a prefix query's
                    tail — in every query mode (same site in ``PartSet``)
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
