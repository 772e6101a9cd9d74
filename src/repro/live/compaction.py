"""Background compaction machinery for the live ingestion plane.

Sealing produces one segment per ``seal_threshold`` windows; left alone,
query fan-out cost would grow linearly with ingest time. Compaction
keeps the segment count bounded: whenever it exceeds ``max_segments``,
the adjacent pair with the smallest combined window count is merged
(:func:`repro.live.segments.merge_segments`) until the bound holds —
the classic size-tiered LSM policy, restricted to adjacent runs because
segments partition the position axis.

The merge itself reads only the two segments' immutable sources, so the
:class:`Compactor` runs it on a single background thread while appends
and queries proceed; only the final list splice takes the live plane's
lock.

Failure handling: a failed merge is retried with bounded exponential
backoff (``repro_compaction_retries_total``). When the retry budget is
exhausted the run is abandoned — surfaced once through the log and
:meth:`Compactor.stats`, never latched into the next :meth:`wait` or
:meth:`close` — and the next :meth:`schedule` (every seal schedules)
starts a fresh run with a fresh budget, so one bad merge cannot poison
the plane.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Any

from ..exceptions import SimulatedCrashError
from ..faults.failpoints import failpoint
from ..obs.logsetup import get_logger
from ..obs.metrics import HandleCache

_log = get_logger("repro.live.compaction")

_metrics = HandleCache(
    lambda registry: (
        registry.counter(
            "repro_compaction_retries_total",
            "Background compaction merge retries after a failure.",
        ),
        registry.counter(
            "repro_compaction_failures_total",
            "Background compaction runs abandoned after the retry "
            "budget was exhausted.",
        ),
    )
)

#: Delta windows accumulated before the memtable is sealed into a
#: frozen segment. The delta is scanned, so this bounds its share of a
#: query: 0.17 ms at 4,096 windows, of a ≈ 3 ms live search (twinbench
#: ``live_ingest``); the seal's bulk load is then ≈ 5 ms.
DEFAULT_SEAL_THRESHOLD = 4096

#: Segment count above which background compaction kicks in.
DEFAULT_MAX_SEGMENTS = 8

#: Retries per scheduled run before the run is abandoned.
DEFAULT_MAX_RETRIES = 4

#: First backoff delay, seconds; doubles per retry up to the cap.
DEFAULT_BACKOFF = 0.05
DEFAULT_BACKOFF_CAP = 2.0


def select_adjacent_pair(segments: Any) -> int:
    """Index ``i`` such that merging ``segments[i]`` and
    ``segments[i + 1]`` costs least (smallest combined window count —
    ties resolve to the oldest pair, keeping the policy deterministic).
    """
    best, best_cost = 0, None
    for i in range(len(segments) - 1):
        cost = segments[i].size + segments[i + 1].size
        if best_cost is None or cost < best_cost:
            best, best_cost = i, cost
    return best


def _closed() -> None:
    """The work function of a closed :class:`Compactor` (never run)."""


class Compactor:
    """A lazily started, single-threaded driver for one work function.

    ``work`` is expected to loop until the plane is quiescent (segment
    count within bounds) and return; :meth:`schedule` guarantees a run
    begins at or after the call, coalescing bursts into one run: a
    schedule that lands while a run is in flight leaves a pending flag
    that run re-checks before it ends. The thread is only created on
    first use, so short-lived in-memory indexes never pay for it.

    ``work`` failures are retried up to ``max_retries`` times with
    exponential backoff (``backoff`` seconds doubling to
    ``backoff_cap``); an exhausted budget abandons the run without
    poisoning the compactor — the error is logged once and kept in
    :meth:`stats` / :attr:`last_error` until a later run succeeds.
    """

    def __init__(
        self,
        work: Any,
        *,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
    ):
        self._work = work
        self._max_retries = int(max_retries)
        self._backoff = float(backoff)
        self._backoff_cap = float(backoff_cap)
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None  # lint: guarded-by(_lock)
        self._future: concurrent.futures.Future | None = None  # lint: guarded-by(_lock)
        self._lock = threading.Lock()
        #: A run is owed: set by schedule(), cleared when a run starts.
        self._pending = False  # lint: guarded-by(_lock)
        #: A run is in flight; only that run clears it, when it ends.
        self._running = False  # lint: guarded-by(_lock)
        self._shutdown = False  # lint: guarded-by(_lock)
        #: Interrupts a backoff sleep when close() is called.
        self._wake = threading.Event()
        self._retries = 0  # lint: guarded-by(_lock)
        self._failures = 0  # lint: guarded-by(_lock)
        self._last_error: BaseException | None = None  # lint: guarded-by(_lock)
        self._crashed = False  # lint: guarded-by(_lock)

    # ------------------------------------------------------------------
    @property
    def retry_count(self) -> int:
        """Lifetime merge retries across all runs."""
        with self._lock:
            return self._retries

    @property
    def failure_count(self) -> int:
        """Runs abandoned after the retry budget was exhausted."""
        with self._lock:
            return self._failures

    @property
    def last_error(self) -> BaseException | None:
        """The most recent merge error (cleared by the next clean run)."""
        with self._lock:
            return self._last_error

    @property
    def crashed(self) -> bool:
        """Whether a simulated crash killed the background thread."""
        with self._lock:
            return self._crashed

    def stats(self) -> dict:
        with self._lock:
            return {
                "retries": self._retries,
                "failures": self._failures,
                "crashed": self._crashed,
                "last_error": (
                    repr(self._last_error) if self._last_error else None
                ),
            }

    # ------------------------------------------------------------------
    def _run(self) -> None:
        """What the thread runs: budgeted runs until no schedule is
        pending. The pending check and the end of the thread's turn are
        one locked step, so a :meth:`schedule` is either seen here or
        finds no run in flight and submits its own. Never raises."""
        while True:
            with self._lock:
                if not self._pending or self._shutdown or self._crashed:
                    self._running = False
                    return
                self._pending = False
            self._run_once()

    def _run_once(self) -> None:
        """One scheduled run: the work function under a bounded
        retry/backoff loop. Never raises — errors are accounted, not
        latched (a :class:`SimulatedCrashError` stops the thread cold,
        like the process kill it stands in for)."""
        delay = self._backoff
        attempt = 0
        retries_total, failures_total = _metrics()
        while True:
            try:
                failpoint("compaction.merge", attempt=attempt)
                self._work()
            except SimulatedCrashError as exc:
                with self._lock:
                    self._crashed = True
                    self._last_error = exc
                return
            except Exception as exc:
                with self._lock:
                    self._last_error = exc
                    shutdown = self._shutdown
                if attempt >= self._max_retries or shutdown:
                    failures_total.inc()
                    with self._lock:
                        self._failures += 1
                    _log.error(
                        "background compaction abandoned after %d "
                        "retries (next schedule starts fresh): %r",
                        attempt, exc,
                    )
                    return
                attempt += 1
                retries_total.inc()
                with self._lock:
                    self._retries += 1
                _log.warning(
                    "background compaction failed (attempt %d/%d), "
                    "retrying in %.3fs: %r",
                    attempt, self._max_retries, delay, exc,
                )
                if self._wake.wait(delay):
                    return  # shutting down; don't burn the close() path
                delay = min(delay * 2.0, self._backoff_cap)
            else:
                with self._lock:
                    self._last_error = None
                return

    def schedule(self) -> None:
        """Ensure a compaction run begins at or after this call (no-op
        after close)."""
        with self._lock:
            if self._shutdown or self._crashed:
                return
            self._pending = True
            if self._running:
                return
            self._running = True
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="repro-live-compact"
                )
            self._future = self._pool.submit(self._run)

    def wait(self, timeout: float | None = None) -> None:
        """Block until the in-flight run (if any) finishes. Merge errors
        do not re-raise here — they surface through :meth:`stats` and
        the log, and the plane stays serviceable."""
        with self._lock:
            future = self._future
        if future is not None:
            future.result(timeout)

    def close(self) -> None:
        """Wait for in-flight work and shut the thread down (idempotent;
        pending backoff sleeps are interrupted, not served)."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            future, pool = self._future, self._pool
            self._future = None
            self._pool = None
        self._wake.set()
        if future is not None:
            concurrent.futures.wait([future])
        if pool is not None:
            pool.shutdown(wait=True)
        # No run starts after shutdown. Dropping the work function
        # breaks the reference cycle to the plane that owns this
        # compactor, so a closed plane is freed — its segment mappings
        # and buffers released — as soon as it is dropped, not at the
        # next cyclic garbage collection.
        self._work = _closed
