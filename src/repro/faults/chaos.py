"""Chaos harness: kill-and-recover loops and fault storms for the live plane.

This module drives the *real* serving stack — a durable
:class:`~repro.live.LiveTwinIndex` under bursty ingest with concurrent
queries — through injected crashes and I/O fault storms, and checks the
recovery contract after every incident:

* every **acked** append (one that returned to the caller) survives
  recovery, and the recovered series is a bitwise prefix of the fed
  stream (an in-flight append may land partially-durable or not at all,
  never corrupted);
* search / k-NN answers over the recovered plane are **byte-exact**
  against a from-scratch :class:`~repro.core.tsindex.TSIndex` oracle
  built over the recovered series;
* the plane stays serviceable through non-fatal fault storms (ENOSPC,
  torn writes, transient I/O errors) — failed appends surface as typed
  :class:`~repro.exceptions.StorageError`\\ s and later appends succeed.

The ``repro chaos`` CLI subcommand is a thin driver over
:func:`run_kill_recover` and :func:`run_storm`.

This module is imported lazily (``import repro.faults.chaos``) — it
pulls in :mod:`repro.live` and :mod:`repro.core`, so importing it from
``repro.faults.__init__`` would create an import cycle.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

from ..core.tsindex import TSIndex
from ..exceptions import (
    IndexNotBuiltError,
    ReproError,
    SimulatedCrashError,
    StorageError,
)
from ..live import LiveTwinIndex
from ..obs.logsetup import get_logger
from . import failpoints

_log = get_logger("repro.faults.chaos")

#: The crash sites the kill-and-recover loop cycles through, with the
#: arming that makes each one a *kill*: a torn WAL write, a crash
#: mid-seal, a crash between the manifest tmp write and its rename, a
#: partially written manifest tmp, a crash mid-segment-write, and a
#: crash inside the background compaction merge.
CRASH_SITES = (
    ("wal.append", {"payload": {"torn_after_bytes": 7}}),
    ("live.seal", {"crash": True}),
    ("manifest.commit", {"crash": True}),
    ("manifest.commit", {"payload": {"truncate_tmp_to": 5}}),
    ("segment.write", {"crash": True}),
    ("compaction.merge", {"crash": True}),
)


def _chebyshev_epsilon(values: np.ndarray) -> float:
    """A selectivity-reasonable epsilon for chaos queries: a fraction of
    the series' spread (deterministic given the values)."""
    spread = float(np.std(values)) if values.size else 1.0
    return max(1e-6, 0.5 * spread)


def _oracle_violations(live: LiveTwinIndex, rng: np.random.Generator,
                       queries: int = 3) -> int:
    """Byte-exactness check: ``queries`` searches plus one k-NN against
    a from-scratch TS-Index over the recovered series. Returns the
    number of violations (0 on a correct recovery)."""
    values = np.asarray(live.values, dtype=float)
    length = live.length
    if values.size < length:
        return 0  # nothing indexed yet: nothing to compare
    oracle = TSIndex.build(
        values, length=length, normalization=live.normalization
    )
    epsilon = _chebyshev_epsilon(values)
    violations = 0
    count = values.size - length + 1
    for _ in range(queries):
        start = int(rng.integers(0, count))
        query = values[start:start + length]
        got = live.search(query, epsilon)
        want = oracle.search(query, epsilon)
        if not (
            np.array_equal(got.positions, want.positions)
            and np.array_equal(got.distances, want.distances)
        ):
            violations += 1
    start = int(rng.integers(0, count))
    got = live.knn(values[start:start + length], k=3)
    want = oracle.knn(values[start:start + length], k=3)
    if not (
        np.array_equal(got.positions, want.positions)
        and np.array_equal(got.distances, want.distances)
    ):
        violations += 1
    return violations


class _QueryLoad(threading.Thread):
    """Concurrent query pressure while ingest (and faults) run: a
    background thread searching random windows until stopped. Fault-era
    errors are tolerated and counted, never raised."""

    def __init__(self, live: LiveTwinIndex, seed: int) -> None:
        super().__init__(name="chaos-query-load", daemon=True)
        self._live = live
        self._rng = np.random.default_rng(seed)
        self._halt = threading.Event()
        self.queries = 0
        self.errors = 0

    def run(self) -> None:
        length = self._live.length
        while not self._halt.is_set():
            try:
                values = self._live.values
                if values.size < length:
                    time.sleep(0.001)
                    continue
                start = int(self._rng.integers(0, values.size - length + 1))
                query = np.array(values[start:start + length])
                self._live.search(query, _chebyshev_epsilon(query))
                self.queries += 1
            except (ReproError, OSError, SimulatedCrashError):
                self.errors += 1
            except Exception:  # the plane may be mid-abandon
                self.errors += 1

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


def run_kill_recover(
    directory: Any,
    *,
    loops: int = 25,
    length: int = 32,
    seal_threshold: int = 96,
    max_segments: int = 3,
    burst: tuple[int, int] = (24, 160),
    seed: int = 0,
    query_load: bool = True,
) -> dict:
    """``loops`` kill-and-recover incidents against one durable plane.

    Each loop arms the next :data:`CRASH_SITES` entry, ingests bursty
    appends (with a concurrent query thread when ``query_load``) until
    the simulated kill lands, abandons the plane exactly as a process
    death would, recovers from disk, and asserts the recovery contract
    (acked-durability, bitwise prefix, oracle byte-exactness). Returns
    an accounting dict; ``exactness_violations`` must be 0.
    """
    rng = np.random.default_rng(seed)
    live = LiveTwinIndex.create(
        str(directory),
        length=length,
        seal_threshold=seal_threshold,
        max_segments=max_segments,
    )
    # Warm the plane past its first full window so queries serve.
    warm = np.cumsum(rng.normal(size=4 * length))
    live.append(warm)
    acked = list(np.asarray(live.values, dtype=float))

    recovery_seconds: list[float] = []
    crashes_by_site: dict[str, int] = {}
    violations = 0
    total_queries = 0
    total_query_errors = 0

    for loop in range(loops):
        site, config = CRASH_SITES[loop % len(CRASH_SITES)]
        load = _QueryLoad(live, seed=seed + loop) if query_load else None
        if load is not None:
            load.start()
        pending: np.ndarray | None = None
        crashed = False
        failpoints.arm(site, **config)
        try:
            # Bursty ingest until the armed kill lands (bounded so a
            # site that cannot fire — e.g. compaction on a quiescent
            # plane — does not spin forever).
            for _ in range(400):
                chunk = np.cumsum(rng.normal(size=int(
                    rng.integers(burst[0], burst[1])
                ))) + (acked[-1] if acked else 0.0)
                try:
                    live.append(chunk)
                    acked.extend(chunk.tolist())
                except SimulatedCrashError:
                    pending = chunk
                    crashed = True
                    break
                except StorageError:
                    # A torn write surfaced as ENOSPC before the crash
                    # variant landed; the plane rolled it back.
                    continue
                if site == "compaction.merge":
                    live.compact(timeout=10.0)
                    if live.stats()["compaction"]["crashed"]:
                        crashed = True
                        break
        finally:
            failpoints.disarm(site)
            if load is not None:
                load.stop()
                total_queries += load.queries
                total_query_errors += load.errors
        if not crashed:
            _log.warning("loop %d: site %s never fired; continuing", loop, site)
            continue
        crashes_by_site[site] = crashes_by_site.get(site, 0) + 1

        # The kill: drop the plane without flushing, recover from disk.
        live.abandon()
        started = time.perf_counter()
        live = LiveTwinIndex.recover(str(directory))
        recovery_seconds.append(time.perf_counter() - started)

        # Recovery contract: all acked readings durable; the recovered
        # series is a bitwise prefix of acked + the in-flight chunk.
        stream = np.asarray(
            acked + (pending.tolist() if pending is not None else []),
            dtype=float,
        )
        recovered = np.asarray(live.values, dtype=float)
        if recovered.size < len(acked):
            violations += 1
            _log.error(
                "loop %d (%s): lost acked data — %d recovered < %d acked",
                loop, site, recovered.size, len(acked),
            )
        elif not np.array_equal(recovered, stream[: recovered.size]):
            violations += 1
            _log.error("loop %d (%s): recovered bytes diverge", loop, site)
        acked = list(recovered)

        violations += _oracle_violations(live, rng)

    live.close()
    recovery = np.asarray(recovery_seconds, dtype=float)
    return {
        "loops": loops,
        "crashes": int(recovery.size),
        "crashes_by_site": crashes_by_site,
        "final_readings": len(acked),
        "exactness_violations": int(violations),
        "concurrent_queries": total_queries,
        "concurrent_query_errors": total_query_errors,
        "recovery_seconds": {
            "mean": float(recovery.mean()) if recovery.size else None,
            "max": float(recovery.max()) if recovery.size else None,
        },
    }


def run_storm(
    directory: Any,
    *,
    mode: str = "enospc",
    appends: int = 300,
    queries: int = 200,
    probability: float = 0.15,
    length: int = 32,
    seal_threshold: int = 128,
    seed: int = 0,
) -> dict:
    """One fault storm: probabilistic faults on the WAL append edge
    while appends and queries keep coming.

    ``mode="enospc"`` arms torn ENOSPC writes (partial record + disk
    full; the WAL rolls each one back); ``mode="io"`` arms plain
    injected I/O errors; ``mode="search"`` arms per-segment search
    faults instead, so the *query* path degrades. The plane must stay
    serviceable: failed operations surface typed errors, successes stay
    byte-exact against the oracle, and query latency is reported as
    p50/p99 under fault load.
    """
    if mode not in ("enospc", "io", "search"):
        raise ValueError(f"unknown storm mode {mode!r}")
    rng = np.random.default_rng(seed)
    live = LiveTwinIndex.create(
        str(directory), length=length, seal_threshold=seal_threshold
    )
    live.append(np.cumsum(rng.normal(size=6 * length)))
    acked = list(np.asarray(live.values, dtype=float))

    if mode == "enospc":
        failpoints.arm(
            "wal.append",
            payload={"torn_after_bytes": 9, "error": "enospc"},
            probability=probability,
            seed=seed,
        )
    elif mode == "io":
        failpoints.arm(
            "wal.append", error="io", probability=probability, seed=seed
        )
    else:
        failpoints.arm(
            "segment.search", error="io", probability=probability, seed=seed
        )

    append_failures = 0
    query_failures = 0
    latencies: list[float] = []
    try:
        for i in range(max(appends, queries)):
            if i < appends:
                chunk = np.cumsum(np.asarray(
                    rng.normal(size=int(rng.integers(4, 24)))
                )) + acked[-1]
                try:
                    live.append(chunk)
                    acked.extend(chunk.tolist())
                except StorageError:
                    append_failures += 1
            if i < queries and len(acked) >= length:
                start = int(rng.integers(0, len(acked) - length + 1))
                query = np.asarray(acked[start:start + length], dtype=float)
                t0 = time.perf_counter()
                try:
                    live.search(query, _chebyshev_epsilon(query))
                    latencies.append(time.perf_counter() - t0)
                except (ReproError, OSError):
                    query_failures += 1
                except IndexNotBuiltError:
                    pass
    finally:
        failpoints.reset()

    # Post-storm: the plane must still serve exactly, and accept writes.
    violations = _oracle_violations(live, rng)
    post = np.cumsum(rng.normal(size=length)) + acked[-1]
    live.append(post)
    acked.extend(post.tolist())
    serviceable = np.array_equal(
        np.asarray(live.values, dtype=float), np.asarray(acked, dtype=float)
    )
    live.close()

    lat = np.asarray(latencies, dtype=float)
    return {
        "mode": mode,
        "probability": probability,
        "appends": appends,
        "append_failures": append_failures,
        "queries_attempted": queries,
        "query_failures": query_failures,
        "exactness_violations": int(violations),
        "serviceable_after_storm": bool(serviceable),
        "final_readings": len(acked),
        "query_seconds": {
            "p50": float(np.percentile(lat, 50)) if lat.size else None,
            "p99": float(np.percentile(lat, 99)) if lat.size else None,
        },
    }
