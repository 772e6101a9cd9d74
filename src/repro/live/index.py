"""LiveTwinIndex — the live plane itself: configuration, lock, lifecycle
(append → seal → recover, as :mod:`repro.live` describes it) and what a
query takes from it.

The **delta** — the windows appended since the last seal — is the
unindexed tail of the ingest buffer, not a tree: an append is a journal
write, a buffer extend and a counter; a query scans it with the paper's
sweepline (:class:`~repro.indices.sweepline.SweeplineSearch`, the right
plan for a few thousand windows); a seal bulk-loads it into a segment
(:meth:`Segment.build <repro.live.segments.Segment.build>`). Segments
are never merged: the segment count grows with ingest, and a query walks
every sealed segment as one :func:`~repro.core.frozen.join` forest,
whose per-level bound check prunes as well over many trees as over few.

The plane is a :class:`~repro.query.parts.PartitionedPlane`: its one
``_take`` prepares a query and snapshots its parts under the plane lock
— the sealed segments' forest, the delta's sweepline, a prefix query's
tail — and the planner answers them outside it through
:class:`repro.query.parts.PartSet`, the loop the sharded engine shares,
merging with the library's ``(distance, position)`` tie-breaks (a
prefix k-NN is the exact scan over the readings, served even before the
first full window): results are **byte-identical to a from-scratch
TSIndex over the full series** — held across append / seal / crash /
recover, under every injected fault, by the state machine in
``tests/test_live_state_machine.py``. The raw and per-window regimes
are supported (per-window scaling depends only on each window's own
values, and the rolling statistics are prefix-stable under appends);
global z-normalization is rejected, because appends shift the series
moments under every already-indexed window.

What a reading costs to buffer is :mod:`repro.live.ingest`'s business;
what the live directory looks like on disk, and in which order it
changes, is :mod:`repro.live.store`'s.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from .._util import check_positive_int
from ..core.frozen import FrozenTSIndex, join
from ..core.normalization import Normalization
from ..core.stats import BuildStats
from ..core.tsindex import TSIndexParams
from ..core.windows import WindowSource, assemble_source
from ..exceptions import (
    IndexNotBuiltError,
    InvalidParameterError,
    UnsupportedNormalizationError,
    wrap_os_errors,
)
from ..faults.failpoints import failpoint
from ..indices.sweepline import SweeplineSearch
from ..obs.logsetup import get_logger
from ..obs.metrics import HandleCache
from ..query.parts import Part, PartitionedPlane, PartSet
from ..query.registration import register_plane
from ..query.spec import check_varlength_query, prepare_values
from ..query.varlength import is_prefix_query
from .ingest import IngestBuffer, coerce_readings
from .segments import DEFAULT_SEAL_THRESHOLD, Segment
from .store import LiveStore, Manifest
from .wal import WriteAheadLog

_log = get_logger("repro.live")

#: Lifecycle instrumentation (process default registry). The ingest-lag
#: gauge and the lifecycle counters are process-wide: a process serving
#: several live planes should give each its own registry via
#: :func:`repro.obs.set_default_registry`, or read per-plane numbers
#: from :meth:`LiveTwinIndex.stats`.
_metrics = HandleCache(
    lambda registry: {
        "readings": registry.counter(
            "repro_live_readings_total",
            "Readings accepted by live-plane appends.",
        ),
        "lag": registry.gauge(
            "repro_live_ingest_lag_readings",
            "Ingest lag: readings buffered past the sealed frontier "
            "(scanned in the delta or still completing windows, not "
            "yet sealed into a segment).",
        ),
        "seal_seconds": registry.histogram(
            "repro_live_seal_seconds",
            "Delta seal duration (bulk load + archive + "
            "manifest commit + WAL truncation), in seconds.",
        ),
        "seals": registry.counter(
            "repro_live_seals_total", "Delta seals performed."
        ),
        "seal_failures": registry.counter(
            "repro_live_seal_failures_total",
            "Threshold seals that raised; the delta stays in memory "
            "and the next append retries.",
        ),
        "recoveries": registry.counter(
            "repro_live_recoveries_total",
            "Live-plane recoveries completed.",
        ),
    }
)


@register_plane(
    "live",
    aliases=("livetwinindex",),
    summary="LSM-style durable ingestion plane (repro.live)",
)
class LiveTwinIndex(PartitionedPlane):
    """An appendable twin-search index with an LSM segment lifecycle.

    Build an in-memory plane with the constructor (or
    :meth:`from_source`), a durable one with :meth:`create`, and reopen
    a durable one with :meth:`recover`. All public methods are safe to
    call from multiple threads. A query holds the plane lock only to
    prepare itself and snapshot its parts; it joins the sealed forest
    (after a seal) and searches outside the lock, so an append waits
    for a snapshot at most, never for a join or a search. Sealed
    segments are never merged, and the plane runs no background thread.

    Windows appended since the last seal are scanned, not indexed, and
    ``seal_threshold`` bounds that scan: ``seal_threshold=None`` is a
    linear scan over everything appended — the paper's sweepline, by
    request.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.live import LiveTwinIndex
    >>> live = LiveTwinIndex(np.zeros(32), length=16, seal_threshold=8)
    >>> live.append(np.ones(24))
    24
    >>> live.window_count
    41
    >>> bool(live.exists(np.zeros(16), epsilon=0.0))
    True
    >>> live.segment_count >= 1  # the delta sealed at least once
    True
    """

    method_name = "live"

    def __init__(
        self,
        initial_values: Any = None,
        length: int | None = None,
        *,
        normalization: Any = Normalization.NONE,
        params: TSIndexParams | None = None,
        seal_threshold: int | None = DEFAULT_SEAL_THRESHOLD,
        _store: LiveStore | None = None,
        _sealed: tuple[Segment, ...] = (),
    ):
        self._length = check_positive_int(length, name="length")
        self._normalization = Normalization.coerce(normalization)
        if self._normalization is Normalization.GLOBAL:
            raise UnsupportedNormalizationError(
                "global z-normalization is undefined for a growing series "
                "(appends shift the series moments under every "
                "already-indexed window); use 'none' or 'per_window'"
            )
        self._params = params or TSIndexParams()
        self._seal_threshold = (
            None
            if seal_threshold is None
            else check_positive_int(seal_threshold, name="seal_threshold")
        )
        #: The durable directory (``None``: an in-memory plane). Set
        #: once; its journal and manifest change only under the lock.
        self._store = _store
        self._lock = threading.RLock()
        self._ingest = IngestBuffer(  # lint: guarded-by(_lock)
            coerce_readings(initial_values, allow_empty=True),
            self._length,
            self._normalization,
        )
        #: Replaced, never mutated, so a query's snapshot stays valid.
        self._segments: tuple[Segment, ...] = ()  # lint: guarded-by(_lock)
        #: The sealed segments joined as one forest, over the monolithic
        #: source's span ``[0, _delta_start)`` (see :meth:`_take`);
        #: ``None`` until a query installs it after ``_segments`` changed.
        self._forest: FrozenTSIndex | None = None  # lint: guarded-by(_lock)
        #: The delta: windows ``[_delta_start, _delta_start +
        #: _delta_count)`` of ``_source``, which end at ``_source.count``.
        self._delta_start = 0  # lint: guarded-by(_lock)
        self._delta_count = 0  # lint: guarded-by(_lock)
        self._source: WindowSource | None = None  # lint: guarded-by(_lock)
        self._mutations = 0  # lint: guarded-by(_lock)
        self._seals = 0  # lint: guarded-by(_lock)
        self._seal_failures = 0  # lint: guarded-by(_lock)
        self._last_seal_error: str | None = None  # lint: guarded-by(_lock)
        self._closed = False  # lint: guarded-by(_lock)
        self._quarantined: tuple[str, ...] = ()  # lint: guarded-by(_lock)
        with self._lock:
            if _sealed:
                # The chain a recovery loaded, each segment re-sourced
                # against the recovered monolith.
                self._source = self._ingest.source()
                self._segments = tuple(
                    segment.rebased(self._source, self._params) for segment in _sealed
                )
                self._delta_start = _sealed[-1].stop
            self._absorb()

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: WindowSource,
        *,
        params: TSIndexParams | None = None,
        seal_threshold: int | None = DEFAULT_SEAL_THRESHOLD,
    ) -> "LiveTwinIndex":
        """Build an in-memory live plane preloaded with a prepared
        source's series (the :func:`~repro.indices.base.create_method`
        entry point); the preload seals as appends do."""
        return cls(
            source.series.values,
            source.length,
            normalization=source.normalization,
            params=params,
            seal_threshold=seal_threshold,
        )

    @classmethod
    def create(
        cls,
        path: Any,
        initial_values: Any = None,
        *,
        length: int,
        normalization: Any = Normalization.NONE,
        params: TSIndexParams | None = None,
        seal_threshold: int | None = DEFAULT_SEAL_THRESHOLD,
        fsync: bool = False,
        archive_format: str = "raw",
    ) -> "LiveTwinIndex":
        """Initialize a **durable** live plane under directory ``path``.

        Every subsequent :meth:`append` is journaled to the write-ahead
        log before it is buffered; sealed segments are archived as
        uncompressed array directories and committed to the manifest:
        one archive per seal, never merged, so recovery reads as many
        archives as the plane sealed (into memory, so the plane holds
        no archive open).
        ``fsync=True`` additionally fsyncs each journal write
        (crash-safe against power loss, at a heavy per-append cost;
        the default survives process crashes).
        """
        # ``archive_format`` has one value; the keyword stays only because
        # benchmarks/twinbench (frozen by BENCHMARK.json) passes "raw".
        if archive_format != "raw":
            raise InvalidParameterError(
                f"unknown archive format {archive_format!r}; expected 'raw'"
            )
        values = coerce_readings(initial_values, allow_empty=True)
        index = cls(
            values,
            length,
            normalization=normalization,
            params=params,
            seal_threshold=seal_threshold,
            _store=LiveStore.create(path, values, fsync=fsync),
        )
        with index._lock:
            index._store.commit(index._manifest())
        return index

    @classmethod
    def recover(
        cls,
        path: Any,
        *,
        fsync: bool | None = None,
        strict: bool = True,
    ) -> "LiveTwinIndex":
        """Reopen a durable live plane after a shutdown or crash.

        ``fsync`` defaults to the mode the plane was created with (it is
        recorded in the manifest), so a durability choice made at
        :meth:`create` time survives every reopen; pass an explicit
        value to override.

        Sealed segments are restored from their archives (pure array
        reads — no rebuild); the journal is replayed up to its last
        fully durable record into the ingest buffer, where the un-sealed
        windows are the delta again — a count. A torn tail record (the
        in-flight append a crash interrupted) is dropped, which is the
        durability contract; a corrupted manifest, a broken segment
        chain, or a segment archive that fails its structural
        validation raises
        :class:`~repro.exceptions.SerializationError` /
        :class:`~repro.exceptions.InvalidParameterError` loudly.

        ``strict=False`` quarantines unreadable archives instead (see
        :meth:`LiveStore.open <repro.live.store.LiveStore.open>`) and
        recovers the longest intact prefix, byte-identical to a
        from-scratch index over those readings; manifest damage stays
        loud in both modes. A manifest an older version wrote may carry
        ``max_segments``: it is ignored, and the chain recovers as it
        is, however many segments it holds.
        """
        store, found = LiveStore.open(path, fsync=fsync, strict=strict)
        try:
            config = found.manifest
            index = cls(
                found.series,
                config.length,
                normalization=config.normalization,
                params=config.params,
                seal_threshold=config.seal_threshold,
                _store=store,
                _sealed=found.sealed,
            )
            with index._lock:
                index._quarantined = found.quarantined
                # Normalize the directory to the recovered state: the
                # journal re-anchored at the sealed frontier without its
                # torn tail, and the archives a crash orphaned swept.
                manifest = index._manifest()
                store.commit(
                    manifest,
                    tail=index._ingest.values[index._delta_start :],
                    stale=store.orphans(manifest),
                )
        except BaseException:
            store.close()
            raise
        _metrics()["recoveries"].inc()
        _log.info(
            "recovered live plane at %r: %d segments, %d journal "
            "readings replayed%s%s",
            store.directory, len(found.sealed), found.replayed,
            "" if found.clean else " (torn WAL tail dropped)",
            f" ({len(found.quarantined)} archives quarantined)"
            if found.quarantined else "",
        )
        return index

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Indexed window length ``l``."""
        return self._length

    @property
    def normalization(self) -> Normalization:
        """The active regime (``NONE`` or ``PER_WINDOW``)."""
        return self._normalization

    @property
    def params(self) -> TSIndexParams:
        """Tree construction parameters shared by delta and segments."""
        return self._params

    @property
    def series_length(self) -> int:
        """Number of readings appended so far."""
        with self._lock:
            return self._ingest.size

    @property
    def window_count(self) -> int:
        """Number of indexed windows (0 until ``length`` readings)."""
        with self._lock:
            return self._ingest.window_count

    @property
    def size(self) -> int:
        """Alias of :attr:`window_count` (the index-surface name)."""
        return self.window_count

    @property
    def values(self) -> np.ndarray:
        """The series so far (a read-only view)."""
        with self._lock:
            view = self._ingest.values
        view.setflags(write=False)
        return view

    @property
    def source(self) -> WindowSource:
        """The monolithic window source over everything appended."""
        with self._lock:
            if self._source is None:
                raise IndexNotBuiltError(
                    f"no windows yet: {self._ingest.size} readings < "
                    f"length {self._length}"
                )
            return self._source

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The sealed segments, ascending by span (snapshot)."""
        with self._lock:
            return self._segments

    @property
    def segment_count(self) -> int:
        """Number of sealed segments."""
        with self._lock:
            return len(self._segments)

    @property
    def delta_windows(self) -> int:
        """Windows appended since the last seal — what a query scans."""
        with self._lock:
            return self._delta_count

    @property
    def mutations(self) -> int:
        """Count of accepted appends — the cache-invalidation
        generation :class:`repro.engine.QueryEngine` keys results on."""
        with self._lock:
            return self._mutations

    @property
    def seal_count(self) -> int:
        """Seals performed over this plane's lifetime (this process)."""
        with self._lock:
            return self._seals

    @property
    def directory(self) -> str | None:
        """The durability directory (``None`` for in-memory planes)."""
        return None if self._store is None else self._store.directory

    @property
    def durable(self) -> bool:
        """Whether appends are journaled to a write-ahead log."""
        return self._store is not None

    @property
    def _wal(self) -> WriteAheadLog | None:
        return None if self._store is None else self._store.wal

    @property
    def _fsync(self) -> bool:
        return self._store is not None and self._store.fsync

    @property
    def build_stats(self) -> BuildStats:
        """Aggregate build counters over the sealed segments (the delta
        is not built and not counted): counters summed and ``height``
        the maximum, as in :attr:`ShardedTSIndex.build_stats
        <repro.engine.sharding.ShardedTSIndex.build_stats>` — except
        ``seconds``: shards build one after another and that one sums
        them; this one reports the slowest seal's bulk load."""
        merged = BuildStats()
        for segment in self.segments:
            stats = segment.index.build_stats
            merged.seconds = max(merged.seconds, stats.seconds)
            merged.windows += stats.windows
            merged.splits += stats.splits
            merged.height = max(merged.height, stats.height)
            merged.nodes += stats.nodes
        return merged

    def stats(self) -> dict:
        """One structural stats snapshot (for ``live stats`` and the
        engine's index rows)."""
        with self._lock:
            return {
                "windows": self._ingest.window_count,
                "readings": self._ingest.size,
                "length": self._length,
                "normalization": self._normalization.value,
                "segments": len(self._segments),
                "delta_windows": self._delta_count,
                "seal_threshold": self._seal_threshold,
                "seals": self._seals,
                "seal_failures": self._seal_failures,
                "last_seal_error": self._last_seal_error,
                # Segments are never merged. This row and "compaction"
                # below stay, at 0, only because benchmarks/twinbench
                # (frozen by BENCHMARK.json) reads them.
                "compactions": 0,
                "mutations": self._mutations,
                "durable": self.durable,
                "directory": self.directory,
                "quarantined_files": list(self._quarantined),
                "compaction": {"retries": 0},
                "segment_stats": [
                    segment.stats_row() for segment in self._segments
                ],
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LiveTwinIndex(readings={self._ingest.size}, "
                f"windows={self._ingest.window_count}, "
                f"length={self._length}, segments={len(self._segments)}, "
                f"delta={self._delta_count})"
            )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, readings: Any) -> int:
        """Durably append one reading or a batch; returns the number of
        newly indexed windows.

        The journal write (durable planes) happens *before* any
        in-memory mutation, so a crash mid-append loses at most the
        un-journaled batch. May seal the delta on the way out; once the
        batch is journaled the append has succeeded, so a seal that
        fails is accounted (log, ``stats()["seal_failures"]``) and
        retried by the next append, not raised.
        """
        readings = coerce_readings(readings, allow_empty=False)
        metrics = _metrics()
        with self._lock:
            self._check_open()
            if self._store is not None:
                self._store.wal.append(readings)
            self._ingest.extend(readings)
            added = self._absorb()
            self._mutations += 1
            metrics["readings"].inc(readings.size)
            metrics["lag"].set(self._ingest.size - self._delta_start)
            return added

    def seal(self) -> bool:
        """Force-seal the current delta into a segment (normally the
        ``seal_threshold`` does this automatically); returns whether a
        seal happened. A closed plane refuses, as :meth:`append` does:
        its directory may already belong to a recovered plane."""
        with self._lock:
            self._check_open()
            if self._delta_count == 0:
                return False
            self._seal_locked(self._delta_start + self._delta_count)
            return True

    def wait_for_compaction(self, timeout: float | None = None) -> None:
        """Return at once: segments are never merged, so there is no
        compaction to wait for. Kept only because benchmarks/twinbench
        (frozen by BENCHMARK.json) calls it."""

    def close(self) -> None:
        """Seal nothing and close the journal (idempotent). The plane
        refuses further appends and seals; reopen durable planes with
        :meth:`recover`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._store is not None:
                self._store.close()

    def abandon(self) -> None:
        """Drop the plane as a crash would. :meth:`close` already
        flushes and seals nothing, so this *is* :meth:`close`; the name
        is what a fault test says after a
        :class:`~repro.exceptions.SimulatedCrashError` (the state
        machine in ``tests/test_live_state_machine.py`` does): the only
        way back is :meth:`recover`, exactly as after a real kill."""
        self.close()

    def __enter__(self) -> "LiveTwinIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internal lifecycle (all callers hold the lock)
    # ------------------------------------------------------------------
    def _absorb(self) -> int:  # lint: holds(_lock) called with the plane lock held
        """Count every window completed since the last call into the
        delta — the source is re-pointed at the grown buffer, whose
        already-extracted window values never change (see
        :meth:`IngestBuffer.source
        <repro.live.ingest.IngestBuffer.source>`); nothing is built —
        then seal the oldest ``seal_threshold`` windows while the delta
        holds that many.

        A seal that raises leaves the delta (or, past the in-memory
        hand-over, the new segment) answering for its windows; it is
        counted and left to the next append, which starts again at the
        oldest un-sealed window: a threshold seal is exactly
        ``seal_threshold`` windows however large a backlog a failure
        left. A :class:`~repro.exceptions.SimulatedCrashError` is not
        an ``Exception`` and passes through.
        """
        if self._ingest.size < self._length:
            return 0
        self._source = self._ingest.source()
        added = self._source.count - self._delta_start - self._delta_count
        self._delta_count += added
        threshold = self._seal_threshold
        while threshold is not None and self._delta_count >= threshold:
            try:
                self._seal_locked(self._delta_start + threshold)
            except Exception as exc:
                self._seal_failures += 1
                # Its repr, not the exception, is kept and logged: the
                # traceback's frames hold this plane, so a kept
                # exception (or a log record holding it) would leave a
                # dropped plane to the cyclic GC.
                self._last_seal_error = repr(exc)
                _metrics()["seal_failures"].inc()
                _log.error(
                    "seal failed with %d windows in the delta (the "
                    "next append retries): %s",
                    self._delta_count, self._last_seal_error,
                )
                break
        return added

    def _seal_locked(self, stop: int) -> None:  # lint: holds(_lock) called with the plane lock held
        """Bulk-load the delta's windows up to ``stop`` into an
        immutable segment; durable planes archive it and commit it
        (:meth:`LiveStore.commit <repro.live.store.LiveStore.commit>`:
        manifest, then journal truncation)."""
        metrics = _metrics()
        start = self._delta_start
        with wrap_os_errors("seal", f"[{start}, {stop})"):
            failpoint("live.seal", start=start, stop=stop)
        with metrics["seal_seconds"].time():
            segment = Segment.build(
                self._source.detach(start, stop), start, self._params
            )
            if self._store is not None:
                segment.file = self._store.save_segment(segment)
            self._segments = (*self._segments, segment)
            self._forest = None
            self._delta_start = stop
            self._delta_count -= stop - start
            self._seals += 1
            if self._store is not None:
                self._store.commit(
                    self._manifest(), tail=self._ingest.values[stop:]
                )
        self._last_seal_error = None
        metrics["seals"].inc()
        metrics["lag"].set(self._ingest.size - self._delta_start)
        _log.info(
            "sealed segment [%d, %d) (%d windows, %d segments total)",
            start, stop, stop - start, len(self._segments),
        )

    def _check_open(self) -> None:  # lint: holds(_lock) called with the plane lock held
        if self._closed:
            raise InvalidParameterError(
                "live index is closed; reopen with LiveTwinIndex.recover()"
            )

    def _manifest(self) -> Manifest:  # lint: holds(_lock) called with the plane lock held
        """The plane as its directory's catalog should describe it."""
        return Manifest(
            length=self._length,
            normalization=self._normalization,
            params=self._params,
            seal_threshold=self._seal_threshold,
            fsync=self._store.fsync,
            wal_offset=self._delta_start,
            segments=tuple(
                (segment.start, segment.stop, segment.file)
                for segment in self._segments
            ),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _take(self, query: Any, executor: Any = None) -> tuple[np.ndarray, PartSet] | None:
        """What a query takes from the plane: the query prepared, and
        every span as a part — the sealed segments as **one** part, their
        :func:`~repro.core.frozen.join` forest over the monolithic
        source's span ``[0, frontier)``, labelled ``0``; the delta as a
        sweepline over its shard of the monolithic source (immutable
        once taken: the ingest buffer only ever writes past it),
        labelled by its start; and, for a query of length ``m < l``, the
        series tail as a sweepline over the ``m``-windows no
        ``l``-window covers. ``None`` before the first full window (a
        prefix query: before ``m`` readings). Every executor gets the
        same parts: none names an archive, so a process pool leaves
        them all to the calling thread.

        One locked read snapshots the segment tuple, its forest if one
        is installed, and the delta, so the parts always cover one
        moment's windows. The first query after the segments change (a
        seal, or recovery) joins the forest *after* releasing the lock,
        from that snapshot, and installs it only if no seal has replaced
        the tuple meanwhile; concurrent first queries may each join. The
        forest copies the segments' arrays (as many bytes again) and its
        source shard aliases the ingest buffer and rolling statistics of
        the snapshot, so a buffer that an append has since outgrown
        stays alive until the forest is replaced. ``executor`` is
        unused."""
        with self._lock:
            values = self._ingest.values
            prefix = is_prefix_query(query, self._length)
            if prefix:
                query = check_varlength_query(query, self._length, self._normalization)
                if values.size < query.size:
                    return None
            elif self._source is None:
                return None
            else:
                query = prepare_values(self._source, query, expected=self._length)
            segments, forest = self._segments, self._forest
            if segments and forest is None:
                sealed = self._source.shard(0, self._delta_start)
            parts = []
            if self._delta_count:
                start = self._delta_start
                delta = self._source.shard(start, start + self._delta_count)
                parts.append(Part(start, SweeplineSearch.from_source(delta), start, None))
            if prefix:
                start = max(0, values.size - self._length + 1)
                tail = assemble_source(values[start:], query.size, Normalization.NONE, name="live-tail")
                parts.append(Part(start, SweeplineSearch.from_source(tail), start, None))
        if segments:
            if forest is None:
                forest = join(
                    [segment.index for segment in segments],
                    [segment.start for segment in segments],
                    sealed,
                )
                with self._lock:
                    if self._segments is segments:
                        self._forest = forest
            parts.insert(0, Part(0, forest, 0, None))
        return query, PartSet(parts, "segment", values)
