"""LiveTwinIndex — the LSM-style live ingestion plane.

The paper motivates twin search with monitoring workloads (traffic,
EEG, seismic) where readings arrive continuously; this module serves
them with a log-structured lifecycle:

* **append** — readings land in a growable buffer (journaled to a
  :class:`~repro.live.wal.WriteAheadLog` first when the plane is
  durable); each newly completed window is inserted into a small
  mutable **delta** :class:`~repro.core.tsindex.TSIndex` (the
  memtable);
* **seal** — once the delta holds ``seal_threshold`` windows it is
  flattened into an immutable
  :class:`~repro.core.frozen.FrozenTSIndex` **segment**
  (:class:`~repro.live.segments.Segment`) whose value chunk overlaps
  its neighbour by ``l - 1`` readings, so no window is lost at a
  boundary;
* **compact** — a background thread merges adjacent segments whenever
  more than ``max_segments`` accumulate, keeping query fan-out bounded
  (:mod:`repro.live.compaction`);
* **recover** — :meth:`LiveTwinIndex.recover` reloads sealed segments
  from their archives and replays the journal's un-sealed readings
  after a crash.

``search`` / ``knn`` / ``exists`` / ``search_batch`` fan out across
delta + segments (the delta answers under the plane lock, the segments
through :class:`repro.query.parts.PartSet`, the loop the sharded engine
shares) and merge with the library's ``(distance, position)``
tie-breaks, so results are **byte-identical to a from-scratch TSIndex
over the full series** — enforced by the randomized interleaving suite
in ``tests/test_live_index.py``. Both the raw and the per-window
normalization regimes are supported (per-window scaling depends only on
each window's own values, and the library's rolling statistics are
prefix-stable under appends — see
:func:`~repro.core.normalization.rolling_std`); only global
z-normalization stays rejected, because appends shift the series
moments under every already-indexed window.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Any

import numpy as np

from .._util import FLOAT_DTYPE, check_non_negative, check_positive_int
from ..core.batch import BatchResult
from ..core.frozen import FrozenTSIndex
from ..core.normalization import Normalization, rolling_std, std_block_size
from ..core.series import TimeSeries
from ..core.stats import BuildStats, SearchResult
from ..core.tsindex import TSIndex, TSIndexParams
from ..core.windows import WindowSource, assemble_source
from ..exceptions import (
    IndexNotBuiltError,
    InvalidParameterError,
    SerializationError,
    StorageError,
    UnsupportedNormalizationError,
    wrap_os_errors,
)
from ..faults.failpoints import failpoint
from ..indices.base import SubsequenceIndex
from ..obs.logsetup import get_logger
from ..obs.metrics import HandleCache
from ..query.capabilities import (
    CAP_COUNT,
    CAP_EXECUTOR,
    CAP_EXISTS,
    CAP_FANOUT_TIMEOUT,
    CAP_KNN,
    CAP_SEARCH,
    CAP_SEARCH_BATCH,
    CAP_VARLENGTH,
    CAP_VERIFICATION,
)
from ..query.parts import Part, PartSet, local_exclude
from ..query.registration import register_plane
from ..query.spec import (
    check_varlength_query,
    normalize_exclude,
    prepare_values,
)
from ..query.varlength import (
    is_prefix_query,
    prefix_search_part,
    scan_prefix_knn,
    scan_prefix_search,
)
from .compaction import Compactor, select_adjacent_pair
from .segments import Segment, merge_segments
from .wal import MANIFEST_FORMAT, WriteAheadLog, load_manifest, manifest_path, save_manifest

#: Delta windows accumulated before the memtable is sealed into a
#: frozen segment. Large enough that segment trees amortize their
#: freeze cost, small enough that the insert-heavy delta stays shallow.
DEFAULT_SEAL_THRESHOLD = 4096

#: Segment count above which background compaction kicks in.
DEFAULT_MAX_SEGMENTS = 8

#: Journal file name inside a live directory.
WAL_NAME = "wal.log"

#: Segment archive name suffixes: the one written (a directory, see
#: :mod:`repro.persistence.serializer`), then the legacy single-file
#: one an older live directory may still hold — loaded through its
#: manifest entry, swept when orphaned, rewritten by compaction.
SEGMENT_SUFFIXES = (".rts", ".npz")

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
            "(indexed in the delta or still completing windows, not "
            "yet sealed into a segment).",
        ),
        "seal_seconds": registry.histogram(
            "repro_live_seal_seconds",
            "Delta seal duration (freeze + archive + manifest commit "
            "+ WAL truncation), in seconds.",
        ),
        "seals": registry.counter(
            "repro_live_seals_total", "Delta seals performed."
        ),
        "seal_failures": registry.counter(
            "repro_live_seal_failures_total",
            "Threshold seals that raised; the delta stays in memory "
            "and the next append retries.",
        ),
        "compaction_seconds": registry.histogram(
            "repro_live_compaction_seconds",
            "Adjacent-segment merge duration, in seconds.",
        ),
        "compactions": registry.counter(
            "repro_live_compactions_total",
            "Segment compactions committed.",
        ),
        "recoveries": registry.counter(
            "repro_live_recoveries_total",
            "Live-plane recoveries completed.",
        ),
        "quarantined": registry.counter(
            "repro_segments_quarantined_total",
            "Segment archives moved aside by non-strict recovery "
            "(corrupt archive plus the non-contiguous suffix behind it).",
        ),
    }
)


@register_plane(
    "live",
    aliases=("livetwinindex",),
    summary="LSM-style durable ingestion plane (repro.live)",
)
class LiveTwinIndex(SubsequenceIndex):
    """An appendable twin-search index with an LSM segment lifecycle.

    Build an in-memory plane with the constructor (or
    :meth:`from_source`), a durable one with :meth:`create`, and reopen
    a durable one with :meth:`recover`. All public methods are safe to
    call from multiple threads; queries snapshot the segment list and
    never block on background compaction.

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

    #: Native kernels the query planner may call directly.
    capabilities = frozenset(
        {
            CAP_SEARCH,
            CAP_KNN,
            CAP_EXISTS,
            CAP_COUNT,
            CAP_SEARCH_BATCH,
            CAP_EXECUTOR,
            CAP_FANOUT_TIMEOUT,
            CAP_VARLENGTH,
            CAP_VERIFICATION,
        }
    )

    def __init__(
        self,
        initial_values: Any = None,
        length: int | None = None,
        *,
        normalization: Any = Normalization.NONE,
        params: TSIndexParams | None = None,
        seal_threshold: int | None = DEFAULT_SEAL_THRESHOLD,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        background_compaction: bool = True,
        _directory: Any = None,
        _wal: WriteAheadLog | None = None,
    ):
        self._init_config(
            length,
            normalization,
            params,
            seal_threshold,
            max_segments,
            background_compaction,
            directory=_directory,
            wal=_wal,
            fsync=_wal.fsync if _wal is not None else False,
        )
        values = _coerce_readings(initial_values, allow_empty=True)
        self._init_buffer(values)
        with self._lock:
            self._absorb(0)

    def _init_config(  # lint: holds(_lock) constructor helper, object not yet shared
        self,
        length,
        normalization,
        params,
        seal_threshold,
        max_segments,
        background_compaction,
        *,
        directory,
        wal,
        fsync,
    ) -> None:
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
        self._max_segments = check_positive_int(
            max_segments, name="max_segments"
        )
        self._background = bool(background_compaction)
        self._directory = None if directory is None else os.fspath(directory)
        self._wal = wal
        #: fsync segment archives (and, inside the WAL, every journal
        #: write) — the power-loss durability mode.
        self._fsync = bool(fsync)
        self._lock = threading.RLock()
        # Per-window rolling statistics, maintained incrementally (see
        # _extend_window_stats): prefix-stability makes extending the
        # cached arrays bitwise identical to recomputing from scratch,
        # turning the per-append source refresh O(batch), not O(series).
        self._csum: np.ndarray | None = None  # lint: guarded-by(_lock)
        self._csum_count = 0  # lint: guarded-by(_lock)
        self._win_means: np.ndarray | None = None  # lint: guarded-by(_lock)
        self._win_stds: np.ndarray | None = None  # lint: guarded-by(_lock)
        self._stats_count = 0  # lint: guarded-by(_lock)
        self._segments: list[Segment] = []  # lint: guarded-by(_lock)
        self._delta: TSIndex | None = None  # lint: guarded-by(_lock)
        self._delta_start = 0  # lint: guarded-by(_lock)
        self._delta_count = 0  # lint: guarded-by(_lock)
        self._source: WindowSource | None = None  # lint: guarded-by(_lock)
        self._mutations = 0  # lint: guarded-by(_lock)
        self._seals = 0  # lint: guarded-by(_lock)
        self._seal_failures = 0  # lint: guarded-by(_lock)
        self._last_seal_error: Exception | None = None  # lint: guarded-by(_lock)
        self._compactions = 0  # lint: guarded-by(_lock)
        self._closed = False  # lint: guarded-by(_lock)
        self._quarantined: tuple[str, ...] = ()  # lint: guarded-by(_lock)
        self._compactor = Compactor(self._compact_loop)

    def _init_buffer(self, values: np.ndarray) -> None:  # lint: holds(_lock) constructor helper, object not yet shared
        self._capacity = max(1024, int(values.size) * 2, self._length * 2)
        self._buffer = np.empty(self._capacity, dtype=FLOAT_DTYPE)  # lint: guarded-by(_lock)
        self._buffer[: values.size] = values
        self._size = int(values.size)  # lint: guarded-by(_lock)

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
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        background_compaction: bool = True,
    ) -> "LiveTwinIndex":
        """Build a live plane preloaded with a prepared source's series
        (the :func:`~repro.indices.base.create_method` entry point)."""
        if source.normalization is Normalization.GLOBAL:
            raise UnsupportedNormalizationError(
                "live indexes cannot serve globally z-normalized windows; "
                "use 'none' or 'per_window'"
            )
        return cls(
            source.series.values,
            source.length,
            normalization=source.normalization,
            params=params,
            seal_threshold=seal_threshold,
            max_segments=max_segments,
            background_compaction=background_compaction,
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
        max_segments: int = DEFAULT_MAX_SEGMENTS,
        background_compaction: bool = True,
        fsync: bool = False,
        archive_format: str = "raw",
    ) -> "LiveTwinIndex":
        """Initialize a **durable** live plane under directory ``path``.

        Every subsequent :meth:`append` is journaled to the write-ahead
        log before it is indexed; sealed segments are archived as
        uncompressed mmap-able directories (they recover in O(metadata)
        and support process fan-out with a single page-cache copy) and
        committed to the manifest.
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
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        if os.path.exists(manifest_path(path)):
            raise InvalidParameterError(
                f"{path!r} already holds a live index; open it with "
                "LiveTwinIndex.recover()"
            )
        values = _coerce_readings(initial_values, allow_empty=True)
        wal = WriteAheadLog.create(
            os.path.join(path, WAL_NAME), start=0, fsync=fsync
        )
        if values.size:
            wal.append(values)
        index = cls(
            values,
            length,
            normalization=normalization,
            params=params,
            seal_threshold=seal_threshold,
            max_segments=max_segments,
            background_compaction=background_compaction,
            _directory=path,
            _wal=wal,
        )
        with index._lock:
            index._write_manifest_locked()
        return index

    @classmethod
    def recover(
        cls,
        path: Any,
        *,
        fsync: bool | None = None,
        background_compaction: bool = True,
        strict: bool = True,
    ) -> "LiveTwinIndex":
        """Reopen a durable live plane after a shutdown or crash.

        ``fsync`` defaults to the mode the plane was created with (it is
        recorded in the manifest), so a durability choice made at
        :meth:`create` time survives every reopen; pass an explicit
        value to override.

        Sealed segments are restored from their archives (pure array
        reads — no re-insertion); the journal is replayed up to its
        last fully durable record, and only the un-sealed windows are
        re-inserted into a fresh delta. A torn tail record (the
        in-flight append a crash interrupted) is dropped, which is the
        durability contract; a corrupted manifest, a broken segment
        chain, or a segment archive that fails its structural
        validation raises
        :class:`~repro.exceptions.SerializationError` /
        :class:`~repro.exceptions.InvalidParameterError` loudly.

        ``strict=False`` switches corrupt-**archive** handling from
        fail-loud to quarantine-and-continue: the first unreadable
        archive *and every archive behind it* (segments partition the
        position axis, so nothing past a hole is position-addressable)
        are moved into a ``quarantine/`` subdirectory — never deleted —
        a WARNING is logged, and the plane recovers the longest intact
        prefix, byte-identical to a from-scratch index over those
        readings. A journal that no longer abuts the truncated frontier
        is quarantined with them. Manifest damage stays loud in both
        modes: quarantine is for losing *data files*, not for trusting
        a directory whose catalog cannot be parsed.
        """
        from ..persistence import load_index  # lazy: avoids import cost

        path = os.fspath(path)
        manifest = load_manifest(path)
        try:
            length = int(manifest["length"])
            normalization = Normalization.coerce(manifest["normalization"])
            params = TSIndexParams(**manifest["params"])
            seal_threshold = manifest.get(
                "seal_threshold", DEFAULT_SEAL_THRESHOLD
            )
            if seal_threshold is not None:
                seal_threshold = int(seal_threshold)
            max_segments = int(manifest.get("max_segments", DEFAULT_MAX_SEGMENTS))
        except (TypeError, ValueError, InvalidParameterError) as exc:
            raise SerializationError(
                f"live manifest in {path!r} holds invalid configuration: {exc}"
            ) from exc
        if fsync is None:
            fsync = bool(manifest.get("fsync", False))

        loaded: list[tuple[int, int, str, FrozenTSIndex]] = []
        frontier = 0
        quarantined: list[str] = []
        entries = manifest["segments"]
        for position, entry in enumerate(entries):
            start, stop = int(entry["start"]), int(entry["stop"])
            if start != frontier or stop <= start:
                raise SerializationError(
                    f"segment chain broken at [{start}, {stop}) "
                    f"(expected a segment starting at {frontier})"
                )
            try:
                with wrap_os_errors("segment read", entry["file"]):
                    failpoint("segment.read", file=str(entry["file"]))
                    archive = load_index(os.path.join(path, str(entry["file"])))
                if not isinstance(archive, FrozenTSIndex):
                    raise SerializationError(
                        f"{entry['file']}: not a frozen segment archive "
                        f"(got {type(archive).__name__})"
                    )
                if archive.size != stop - start or archive.length != length:
                    raise SerializationError(
                        f"{entry['file']}: archive shape disagrees with "
                        f"the manifest span [{start}, {stop})"
                    )
            except (StorageError, InvalidParameterError) as exc:
                if strict:
                    raise
                quarantined = [str(e["file"]) for e in entries[position:]]
                _quarantine_files(path, quarantined, reason=exc)
                break
            loaded.append((start, stop, str(entry["file"]), archive))
            frontier = stop
        wal_offset = manifest.get("wal_offset")
        if (
            not quarantined
            and wal_offset is not None
            and int(wal_offset) != frontier
        ):
            raise SerializationError(
                f"manifest wal_offset {wal_offset} disagrees with the "
                f"sealed frontier {frontier}"
            )

        wal_path = os.path.join(path, WAL_NAME)
        wal_dropped = False
        wal_start, wal_values, _clean = WriteAheadLog.replay(wal_path)
        if wal_start > frontier:
            if not quarantined:
                raise SerializationError(
                    f"WAL begins at value {wal_start}, past the sealed "
                    f"frontier {frontier}; readings are missing"
                )
            # The journal starts past the truncated frontier — its
            # readings are not contiguous with the surviving prefix.
            # Preserve it alongside the quarantined archives.
            _quarantine_files(path, [WAL_NAME], reason=None)
            wal_dropped = True
            wal_start = frontier
            wal_values = np.empty(0, dtype=FLOAT_DTYPE)

        # Reconstruct the full series: sealed chunks cover
        # [0, frontier + l - 1), the journal covers [wal_start, ...).
        pieces = [
            archive.source.series.values[: stop - start]
            for start, stop, _, archive in loaded
        ]
        if loaded:
            last_start, last_stop, _, last_archive = loaded[-1]
            pieces.append(
                last_archive.source.series.values[last_stop - last_start :]
            )
        known = (
            np.concatenate(pieces)
            if pieces
            else np.empty(0, dtype=FLOAT_DTYPE)
        )
        overlap = min(known.size, wal_start + wal_values.size) - wal_start
        if overlap > 0 and not np.array_equal(
            known[wal_start : wal_start + overlap], wal_values[:overlap]
        ):
            raise SerializationError(
                "WAL readings disagree with sealed segment values; "
                "refusing to recover from an inconsistent directory"
            )
        if wal_start + wal_values.size > known.size:
            series = np.concatenate(
                [known, wal_values[known.size - wal_start :]]
            )
        else:
            series = known

        index = cls.__new__(cls)
        index._init_config(
            length,
            normalization,
            params,
            seal_threshold,
            max_segments,
            background_compaction,
            directory=path,
            wal=None,
            fsync=fsync,
        )
        index._init_buffer(series)
        with index._lock:
            if index._size >= length:
                index._refresh_source()
            # Re-source each sealed segment against the recovered
            # monolith: prefix-stable rolling statistics make the
            # re-derived chunk sources bitwise equal to the pre-crash
            # ones, and from_arrays re-validates the flat structure.
            for start, stop, file, archive in loaded:
                detached = index._source.detach(start, stop)
                index._segments.append(
                    Segment(
                        start=start,
                        index=FrozenTSIndex.from_arrays(
                            detached,
                            params,
                            dataclasses.replace(archive.build_stats),
                            # Resident form: the re-sourced segment
                            # adopts the loaded envelopes (mmap views
                            # for raw archives) without a re-layout
                            # copy per segment.
                            archive.raw_arrays(),
                        ),
                        file=file,
                    )
                )
            index._delta_start = frontier
            if wal_dropped:
                index._wal = WriteAheadLog.create(
                    wal_path, start=frontier, fsync=fsync
                )
            else:
                index._wal = WriteAheadLog.open(wal_path, fsync=fsync)
            index._quarantined = tuple(quarantined)
            index._absorb(frontier)
            # Normalize the journal to the recovered state: drops any
            # torn tail record and re-anchors at the sealed frontier.
            index._wal.rewrite(
                start=index._delta_start,
                values=index._buffer[index._delta_start : index._size],
            )
            index._write_manifest_locked()
            # Sweep archives a crash orphaned (written but never
            # committed to the manifest, or superseded by a compaction
            # whose unlink step was interrupted).
            referenced = {segment.file for segment in index._segments}
            for name in os.listdir(path):
                if (
                    name.startswith("seg-")
                    and name.endswith(SEGMENT_SUFFIXES)
                    and name not in referenced
                ):
                    _remove_archive(os.path.join(path, name))
        _metrics()["recoveries"].inc()
        _log.info(
            "recovered live plane at %r: %d segments, %d journal "
            "readings replayed%s%s",
            path, len(loaded), wal_values.size,
            "" if _clean else " (torn WAL tail dropped)",
            f" ({len(quarantined)} archives quarantined)"
            if quarantined else "",
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
            return self._size

    @property
    def window_count(self) -> int:
        """Number of indexed windows (0 until ``length`` readings)."""
        with self._lock:
            return max(0, self._size - self._length + 1)

    @property
    def size(self) -> int:
        """Alias of :attr:`window_count` (the index-surface name)."""
        return self.window_count

    @property
    def values(self) -> np.ndarray:
        """The series so far (a read-only view)."""
        with self._lock:
            view = self._buffer[: self._size]
        view.setflags(write=False)
        return view

    @property
    def source(self) -> WindowSource:
        """The monolithic window source over everything appended."""
        with self._lock:
            if self._source is None:
                raise IndexNotBuiltError(
                    f"no windows yet: {self._size} readings < "
                    f"length {self._length}"
                )
            return self._source

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The sealed segments, ascending by span (snapshot)."""
        with self._lock:
            return tuple(self._segments)

    @property
    def segment_count(self) -> int:
        """Number of sealed segments."""
        with self._lock:
            return len(self._segments)

    @property
    def delta(self) -> TSIndex | None:
        """The mutable delta tree (``None`` right after a seal)."""
        with self._lock:
            return self._delta

    @property
    def delta_windows(self) -> int:
        """Windows currently held by the delta."""
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
    def compaction_count(self) -> int:
        """Segment merges performed (this process)."""
        with self._lock:
            return self._compactions

    @property
    def directory(self) -> str | None:
        """The durability directory (``None`` for in-memory planes)."""
        return self._directory

    @property
    def durable(self) -> bool:
        """Whether appends are journaled to a write-ahead log."""
        return self._directory is not None

    @property
    def build_stats(self) -> BuildStats:
        """Aggregate build counters (seconds: max over parts; counters
        summed), mirroring :attr:`ShardedTSIndex.build_stats
        <repro.engine.sharding.ShardedTSIndex.build_stats>`."""
        merged = BuildStats()
        with self._lock:
            parts = [segment.index for segment in self._segments]
            if self._delta is not None:
                parts.append(self._delta)
        for tree in parts:
            stats = tree.build_stats
            merged.seconds = max(merged.seconds, stats.seconds)
            merged.windows += stats.windows
            merged.splits += stats.splits
            merged.height = max(merged.height, stats.height)
            merged.nodes += stats.nodes
        return merged

    def stats(self) -> dict:
        """One structural stats snapshot (for ``live stats`` and the
        engine registry)."""
        with self._lock:
            return {
                "windows": max(0, self._size - self._length + 1),
                "readings": self._size,
                "length": self._length,
                "normalization": self._normalization.value,
                "segments": len(self._segments),
                "delta_windows": self._delta_count,
                "seal_threshold": self._seal_threshold,
                "seals": self._seals,
                "seal_failures": self._seal_failures,
                "last_seal_error": (
                    repr(self._last_seal_error)
                    if self._last_seal_error
                    else None
                ),
                "compactions": self._compactions,
                "mutations": self._mutations,
                "durable": self._directory is not None,
                "directory": self._directory,
                "quarantined_files": list(self._quarantined),
                "compaction": self._compactor.stats(),
                "segment_stats": [
                    segment.stats_row() for segment in self._segments
                ],
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"LiveTwinIndex(readings={self._size}, "
                f"windows={max(0, self._size - self._length + 1)}, "
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
        un-journaled batch. May seal the delta and schedule background
        compaction on the way out; once the batch is journaled the
        append has succeeded, so a seal that fails is accounted like a
        failed compaction (log, ``stats()["seal_failures"]``) and
        retried by the next append, not raised.
        """
        readings = _coerce_readings(readings, allow_empty=False)
        metrics = _metrics()
        with self._lock:
            if self._closed:
                raise InvalidParameterError(
                    "live index is closed; reopen with LiveTwinIndex.recover()"
                )
            if self._wal is not None:
                self._wal.append(readings)
            previous_windows = max(0, self._size - self._length + 1)
            needed = self._size + readings.size
            if needed > self._capacity:
                while self._capacity < needed:
                    self._capacity *= 2
                grown = np.empty(self._capacity, dtype=FLOAT_DTYPE)
                grown[: self._size] = self._buffer[: self._size]
                self._buffer = grown
            self._buffer[self._size : needed] = readings
            self._size = needed
            added = self._absorb(previous_windows)
            self._mutations += 1
            metrics["readings"].inc(readings.size)
            metrics["lag"].set(self._size - self._delta_start)
            return added

    def seal(self) -> bool:
        """Force-seal the current delta into a segment (normally the
        ``seal_threshold`` does this automatically); returns whether a
        seal happened."""
        with self._lock:
            if self._delta_count == 0:
                return False
            self._seal_locked()
            return True

    def compact(self, timeout: float | None = None) -> None:
        """Compact until at most ``max_segments`` segments remain,
        waiting for the background worker when one is in use."""
        if self._background:
            self._compactor.schedule()
            self._compactor.wait(timeout)
        else:
            self._compact_loop()

    def wait_for_compaction(self, timeout: float | None = None) -> None:
        """Block until any in-flight background compaction finishes."""
        self._compactor.wait(timeout)

    def close(self) -> None:
        """Seal nothing, stop background work, close the journal
        (idempotent). The plane rejects further appends; reopen durable
        planes with :meth:`recover`. A background-compaction error
        surfaces here — after the journal has been closed, so shutdown
        side effects happen even on the failure path."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._compactor.close()
        finally:
            with self._lock:
                if self._wal is not None:
                    self._wal.close()

    def abandon(self) -> None:
        """Drop the plane as a crash would: stop accepting work and
        release file handles **without** flushing, sealing, or letting
        in-flight background compaction commit anything.

        For fault testing (the chaos harness calls this after a
        :class:`~repro.exceptions.SimulatedCrashError`): after
        ``abandon()`` the only way back is :meth:`recover`, exactly as
        after a real kill. Idempotent, like :meth:`close`.
        """
        with self._lock:
            if self._closed:
                return
            # _closed makes the compaction loop bail before its next
            # splice/manifest commit, so the background thread cannot
            # mutate durable state past the "crash".
            self._closed = True
        self._compactor.close()
        with self._lock:
            if self._wal is not None:
                # Every append ends in a flush, so closing the handle
                # writes nothing a crash would not have written.
                self._wal.close()

    def __enter__(self) -> "LiveTwinIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internal lifecycle (all callers hold the lock)
    # ------------------------------------------------------------------
    def _refresh_source(self) -> None:  # lint: holds(_lock) called with the plane lock held
        """Point the monolithic source (and the delta's shard view) at
        the grown buffer. Already-extracted window values never change:
        the regime is raw or per-window, and the rolling statistics are
        prefix-stable (see :func:`~repro.core.normalization.rolling_std`).

        Under the per-window regime the rolling statistics are extended
        incrementally rather than recomputed — prefix-stability makes
        the extension bitwise identical, and it keeps each append
        O(batch + block) instead of O(series)."""
        view = self._buffer[: self._size]
        if self._normalization is Normalization.PER_WINDOW:
            self._extend_window_stats()
            count = self._size - self._length + 1
            self._source = assemble_source(
                view,
                self._length,
                self._normalization,
                means=self._win_means[:count],
                stds=self._win_stds[:count],
                name="live",
            )
        else:
            series = TimeSeries(view, name="live", copy=False)
            self._source = WindowSource(
                series, self._length, self._normalization
            )
        if self._delta is not None:
            self._delta._source = self._source.shard(
                self._delta_start, self._source.count
            )

    def _extend_window_stats(self) -> None:  # lint: holds(_lock) called with the plane lock held
        """Extend the cached per-window rolling statistics to the
        current size — bitwise identical to recomputing
        ``rolling_mean``/``rolling_std`` over the full buffer, because
        the cumulative sum continues sequentially and the std kernel's
        block boundaries sit at fixed absolute positions."""
        size = self._size
        if self._csum is None or self._csum.size < size + 1:
            grown = np.zeros(self._capacity + 1, dtype=FLOAT_DTYPE)
            if self._csum is not None:
                grown[: self._csum_count + 1] = self._csum[
                    : self._csum_count + 1
                ]
            self._csum = grown
        if size > self._csum_count:
            new = self._buffer[self._csum_count : size]
            # cumsum seeded with the running total continues the exact
            # sequential accumulation one cumsum over the whole buffer
            # would perform — same order, same rounding.
            tail = np.cumsum(
                np.concatenate(([self._csum[self._csum_count]], new)),
                dtype=FLOAT_DTYPE,
            )
            self._csum[self._csum_count + 1 : size + 1] = tail[1:]
            self._csum_count = size
        count = size - self._length + 1
        if self._win_means is None or self._win_means.size < count:
            grown_means = np.empty(self._capacity, dtype=FLOAT_DTYPE)
            grown_stds = np.empty(self._capacity, dtype=FLOAT_DTYPE)
            if self._win_means is not None:
                grown_means[: self._stats_count] = self._win_means[
                    : self._stats_count
                ]
                grown_stds[: self._stats_count] = self._win_stds[
                    : self._stats_count
                ]
            self._win_means = grown_means
            self._win_stds = grown_stds
        if count <= self._stats_count:
            return
        lo = self._stats_count
        length = self._length
        self._win_means[lo:count] = (
            self._csum[lo + length : count + length] - self._csum[lo:count]
        ) / length
        # Only std blocks touching new windows change; recomputing from
        # the containing block's absolute boundary reproduces the global
        # kernel's chunks (and centers) exactly.
        block_start = (lo // std_block_size(length)) * std_block_size(length)
        self._win_stds[block_start:count] = rolling_std(
            self._buffer[block_start:size], length
        )
        self._stats_count = count

    def _absorb(self, previous_windows: int) -> int:  # lint: holds(_lock) called with the plane lock held
        """Index every window completed since ``previous_windows``,
        sealing whenever the delta crosses the threshold.

        Every window is inserted whatever a seal does: ``_size`` has
        already advanced, so a batch cut short would leave positions the
        next append never revisits. A seal that raises leaves the delta
        (or, past the in-memory hand-over, the new segment) answering
        for its windows; it is counted and left to the next append —
        not retried on every remaining window of this batch. A
        :class:`~repro.exceptions.SimulatedCrashError` is not an
        ``Exception`` and passes through.
        """
        if self._size < self._length:
            return 0
        self._refresh_source()
        total = self._source.count
        sealing = self._seal_threshold is not None
        for position in range(previous_windows, total):
            self._insert_window(position)
            if sealing and self._delta_count >= self._seal_threshold:
                try:
                    self._seal_locked()
                except Exception as exc:
                    sealing = False
                    self._seal_failures += 1
                    self._last_seal_error = exc
                    _metrics()["seal_failures"].inc()
                    _log.error(
                        "seal failed with %d windows in the delta (the "
                        "next append retries): %r", self._delta_count, exc,
                    )
        return total - previous_windows

    def _insert_window(self, position: int) -> None:  # lint: holds(_lock) called with the plane lock held
        if self._delta is None:
            view = self._source.shard(self._delta_start, self._source.count)
            self._delta = TSIndex(view, self._params)
        self._delta._insert_position(position - self._delta_start)
        self._delta._build_stats.windows += 1
        self._delta_count += 1

    def _seal_locked(self) -> None:  # lint: holds(_lock) called with the plane lock held
        """Flatten the delta into an immutable segment.

        The segment's source is **detached** (owns copies of its value
        chunk and statistics slices), so sealed segments never pin the
        historical append buffer alive. Durable planes write the
        archive, then the manifest, then truncate the journal — each
        step atomic, so a crash between any two recovers cleanly.
        """
        metrics = _metrics()
        start = self._delta_start
        stop = self._delta_start + self._delta_count
        failpoint("live.seal", start=start, stop=stop)
        with metrics["seal_seconds"].time():
            detached = self._source.detach(self._delta_start, stop)
            frozen = FrozenTSIndex.from_tree(
                detached,
                self._delta._root,
                self._params,
                dataclasses.replace(self._delta._build_stats),
            )
            segment = Segment(start=self._delta_start, index=frozen)
            if self._directory is not None:
                segment.file = self._segment_file(segment.start, stop)
                self._save_segment_archive(frozen, segment.file)
            self._segments.append(segment)
            self._delta = None
            self._delta_count = 0
            self._delta_start = stop
            self._seals += 1
            if self._directory is not None:
                self._write_manifest_locked()
                self._wal.rewrite(
                    start=stop, values=self._buffer[stop : self._size]
                )
        self._last_seal_error = None
        metrics["seals"].inc()
        metrics["lag"].set(self._size - self._delta_start)
        _log.info(
            "sealed segment [%d, %d) (%d windows, %d segments total)",
            start, stop, stop - start, len(self._segments),
        )
        if len(self._segments) > self._max_segments:
            if self._background:
                _log.debug(
                    "scheduling background compaction (%d segments > "
                    "max %d)", len(self._segments), self._max_segments,
                )
                self._compactor.schedule()
            else:
                self._compact_loop()

    def _compact_loop(self) -> None:
        """Merge adjacent segments until at most ``max_segments``
        remain. The expensive merge runs without the lock (its inputs
        are immutable); only the list splice and manifest commit are
        locked."""
        while True:
            with self._lock:
                if self._closed or len(self._segments) <= self._max_segments:
                    return
                pair = select_adjacent_pair(self._segments)
                first, second = (
                    self._segments[pair],
                    self._segments[pair + 1],
                )
            metrics = _metrics()
            with metrics["compaction_seconds"].time():
                merged = merge_segments(first, second, self._params)
            if self._directory is not None:
                merged.file = self._segment_file(merged.start, merged.stop)
                self._save_segment_archive(merged.index, merged.file)
            with self._lock:
                if self._closed:
                    return
                # Appends only ever add segments at the tail and this
                # loop is the only remover, so the pair is still
                # adjacent — located by identity for robustness.
                position = next(
                    (
                        i
                        for i, segment in enumerate(self._segments)
                        if segment is first
                    ),
                    None,
                )
                if (
                    position is None
                    or position + 1 >= len(self._segments)
                    or self._segments[position + 1] is not second
                ):
                    continue
                self._segments[position : position + 2] = [merged]
                self._compactions += 1
                metrics["compactions"].inc()
                _log.info(
                    "compacted segments [%d, %d) + [%d, %d) -> [%d, %d) "
                    "(%d segments remain)",
                    first.start, first.stop, second.start, second.stop,
                    merged.start, merged.stop, len(self._segments),
                )
                if self._directory is not None:
                    self._write_manifest_locked()
                    for stale in (first.file, second.file):
                        if stale and stale != merged.file:
                            _remove_archive(
                                os.path.join(self._directory, stale)
                            )

    def _segment_file(self, start: int, stop: int) -> str:
        """Archive name for the segment spanning ``[start, stop)``."""
        return f"seg-{start:012d}-{stop:012d}{SEGMENT_SUFFIXES[0]}"

    def _save_segment_archive(self, frozen: FrozenTSIndex, file: str) -> None:
        """Write one segment archive; in fsync mode the data (and its
        directory entry) must be durable *before* the manifest commits a
        reference to it — otherwise a power loss could leave a manifest
        pointing at a torn archive after the WAL was truncated. (The
        archive fsyncs and renames its own files; its commit marker is
        ``meta.json``, written last.)"""
        from ..persistence import save_index  # lazy: avoids import cost
        from .wal import fsync_directory

        path = os.path.join(self._directory, file)
        with wrap_os_errors("segment write", path):
            failpoint("segment.write", file=file)
            save_index(frozen, path, fsync=self._fsync)
        if self._fsync:
            fsync_directory(self._directory)

    def _write_manifest_locked(self) -> None:
        save_manifest(
            self._directory,
            {
                "format": MANIFEST_FORMAT,
                "length": self._length,
                "normalization": self._normalization.value,
                "params": {
                    "min_children": self._params.min_children,
                    "max_children": self._params.max_children,
                    "split_metric": self._params.split_metric,
                },
                "seal_threshold": self._seal_threshold,
                "max_segments": self._max_segments,
                "fsync": self._fsync,
                "wal_offset": self._delta_start,
                "segments": [
                    {
                        "start": segment.start,
                        "stop": segment.stop,
                        "file": segment.file,
                    }
                    for segment in self._segments
                ],
            },
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _snapshot(self, answer: Any) -> tuple[PartSet, list]:  # lint: holds(_lock) called with the plane lock held
        """What a query takes from under the lock: the sealed segments
        as an immutable :class:`~repro.query.parts.PartSet` (labelled by
        span start; fanned out once the lock is released) and, as its
        ``extra``, ``answer(delta)`` — the delta is the only mutable
        part, so it answers here. A durable segment names the archive a
        worker process reopens (bitwise equal to the in-memory segment:
        it embeds the rolling statistics); an in-memory one names none,
        and a process pool then degrades to the serial loop."""
        parts = [
            Part(
                segment.start,
                segment.index,
                segment.start,
                None
                if self._directory is None or segment.file is None
                else (os.path.join(self._directory, segment.file), None),
            )
            for segment in self._segments
        ]
        delta = self._delta
        extra = [] if delta is None else [(self._delta_start, answer(delta))]
        return PartSet(parts, "segment"), extra

    def search(
        self,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        executor: Any = None,
        timeout: float | None = None,
        degraded: bool = False,
    ) -> SearchResult:
        """All twins of ``query`` within Chebyshev ``ε`` over everything
        appended so far — byte-identical to a from-scratch
        :class:`~repro.core.tsindex.TSIndex` over the full series.

        Segments answer in parallel on ``executor`` when one is given;
        the delta is searched under the plane's lock (it is the only
        mutable part), segments from an immutable snapshot outside it.
        Queries shorter than ``l`` dispatch to :meth:`search_varlength`.

        ``timeout`` bounds the pooled segment fan-out, in seconds (the
        delta answers inline and is never dropped). On expiry the
        default is a typed
        :class:`~repro.exceptions.ShardTimeoutError`; ``degraded=True``
        instead serves the segments that answered, recording exactly
        which parts did on ``result.degraded``.
        """
        if is_prefix_query(query, self._length):
            return self.search_varlength(
                query, epsilon, verification=verification, executor=executor
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        with self._lock:
            if self._source is None:
                return SearchResult.empty()
            prepared = self._prepare(query)
            parts, extra = self._snapshot(
                lambda delta: delta.search(
                    prepared, epsilon, verification=verification
                )
            )
        return parts.search(
            prepared,
            epsilon,
            verification=verification,
            executor=executor,
            timeout=timeout,
            degraded=degraded,
            extra=extra,
        )

    def search_varlength(
        self,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        executor: Any = None,
    ) -> SearchResult:
        """All twins of a query of length ``m <= l`` over everything
        appended so far — including positions in the un-indexed series
        tail (and, before ``length`` readings have even arrived, over
        the raw readings themselves).

        Delta and segments each run the prefix-bounded traversal over
        their own span (their value chunks overlap by ``l - 1 >= m - 1``
        readings, so every ``m``-window of a part's window span lies
        inside its chunk); the tail — the last ``l - m`` starts — is a
        direct scan over a snapshot of the append buffer. Parts merge
        through the shared offset kernel, byte-identical to a prefix
        scan over the full series. ``m == l`` delegates to
        :meth:`search`; the per-window regime rejects shorter queries
        with a typed error.
        """
        epsilon = check_non_negative(epsilon, name="epsilon")
        query = check_varlength_query(
            query, self._length, self._normalization
        )
        m = query.size
        if m == self._length:
            return self.search(
                query, epsilon, verification=verification, executor=executor
            )
        with self._lock:
            size = self._size
            if size < m:
                return SearchResult.empty()
            parts, extra = self._snapshot(
                lambda delta: prefix_search_part(
                    delta, query, epsilon, verification=verification
                )
            )
            tail_lo = max(0, size - self._length + 1)
            # Snapshot: the buffer may be swapped by a concurrent append.
            tail_chunk = np.array(self._buffer[tail_lo:size])
        tail_source = assemble_source(
            tail_chunk, m, Normalization.NONE, name="live-tail"
        )
        tail_result = scan_prefix_search(
            tail_source, query, epsilon, verification=verification
        )
        return parts.prefix_search(
            query,
            epsilon,
            verification=verification,
            executor=executor,
            extra=[*extra, (tail_lo, tail_result)],
        )

    def count(self, query: Any, epsilon: float, *, executor: Any = None) -> int:
        """Number of twins — summed per part (delta + segments), so the
        merged result arrays are never materialized (shorter queries
        derive from :meth:`search_varlength`)."""
        if is_prefix_query(query, self._length):
            return len(
                self.search_varlength(query, epsilon, executor=executor)
            )
        epsilon = check_non_negative(epsilon, name="epsilon")
        with self._lock:
            if self._source is None:
                return 0
            prepared = self._prepare(query)
            parts, extra = self._snapshot(
                lambda delta: delta.count(prepared, epsilon)
            )
        return sum(n for _, n in extra) + parts.count(
            prepared, epsilon, executor=executor
        )

    def knn(
        self,
        query: Any,
        k: int,
        *,
        exclude: tuple[int, int] | None = None,
        executor: Any = None,
    ) -> SearchResult:
        """The ``k`` globally nearest windows, merged across delta and
        segments by ``(distance, position)`` — the library-wide k-NN
        tie-break, so the answer equals the monolithic one exactly.
        Queries shorter than ``l`` run the exact prefix scan — served
        even before ``length`` readings have arrived (over the raw
        readings themselves)."""
        if is_prefix_query(query, self._length):
            return self._prefix_knn(query, k, exclude)
        k = check_positive_int(k, name="k")
        exclude = normalize_exclude(exclude)
        with self._lock:
            if self._source is None:
                return SearchResult.empty()
            prepared = self._prepare(query)
            parts, extra = self._snapshot(
                lambda delta: delta.knn(
                    prepared,
                    min(k, self._delta_count),
                    exclude=local_exclude(
                        exclude, self._delta_start, self._delta_count
                    ),
                )
            )
        return parts.knn(
            prepared, k, exclude=exclude, executor=executor, extra=extra
        )

    def _prefix_knn(self, query, k: int, exclude) -> SearchResult:
        """Exact prefix-scan k-NN for a query shorter than ``l`` —
        self-contained (no window source needed), so it serves even a
        plane holding fewer than ``length`` readings."""
        k = check_positive_int(k, name="k")
        exclude = normalize_exclude(exclude)
        query = check_varlength_query(
            query, self._length, self._normalization
        )
        with self._lock:
            values = np.array(self._buffer[: self._size])
        if values.size < query.size:
            return SearchResult.empty()
        snapshot = assemble_source(
            values, self._length if values.size >= self._length
            else values.size,
            Normalization.NONE,
            name="live",
        )
        return scan_prefix_knn(snapshot, query, k, exclude=exclude)

    def exists(self, query: Any, epsilon: float) -> bool:
        """Whether the pattern has occurred anywhere so far (early
        exit; the delta — the freshest data — is probed first; shorter
        queries derive from :meth:`search_varlength`)."""
        if is_prefix_query(query, self._length):
            return len(self.search_varlength(query, epsilon)) > 0
        epsilon = check_non_negative(epsilon, name="epsilon")
        with self._lock:
            if self._source is None:
                return False
            prepared = self._prepare(query)
            parts, extra = self._snapshot(
                lambda delta: delta.exists(prepared, epsilon)
            )
        return any(hit for _, hit in extra) or parts.exists(prepared, epsilon)

    def search_batch(
        self,
        queries: Any,
        epsilon: float,
        *,
        executor: Any = None,
        **search_options: Any,
    ) -> BatchResult:
        """Run every query of ``queries`` at ``epsilon`` (queries fan
        out across ``executor`` when one is given); result order matches
        the input order."""
        epsilon = check_non_negative(epsilon, name="epsilon")
        return PartSet.search_batch(
            self.search, list(queries), epsilon, executor=executor, **search_options
        )

    # ------------------------------------------------------------------
    def _prepare(self, query) -> np.ndarray:
        return prepare_values(self._source, query, expected=self._length)


# ----------------------------------------------------------------------
def _coerce_readings(readings, *, allow_empty: bool) -> np.ndarray:
    if readings is None:
        if allow_empty:
            return np.empty(0, dtype=FLOAT_DTYPE)
        raise InvalidParameterError("readings must be a non-empty 1-D batch")
    array = np.atleast_1d(np.asarray(readings, dtype=FLOAT_DTYPE))
    if array.ndim != 1 or (array.size == 0 and not allow_empty):
        raise InvalidParameterError("readings must be a non-empty 1-D batch")
    if not np.all(np.isfinite(array)):
        raise InvalidParameterError("readings contain NaN or infinity")
    return array


def _remove_archive(path: str) -> None:
    """Best-effort removal of a segment archive — a directory, or a
    legacy single file (stale-file cleanup must never fail a recovery
    or compaction commit)."""
    import shutil

    try:
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.unlink(path)
    except OSError:  # lint: disable=crash-safety best-effort removal of an already-stale file
        pass


def _quarantine_files(directory, names, *, reason) -> None:
    """Move ``names`` from the live directory into ``quarantine/``
    (never deleted — preserved for forensics and manual repair)."""
    qdir = os.path.join(os.fspath(directory), "quarantine")
    os.makedirs(qdir, exist_ok=True)
    moved = 0
    for name in names:
        source = os.path.join(directory, name)
        try:
            os.replace(source, os.path.join(qdir, name))
            moved += 1
        except FileNotFoundError:
            continue
        except OSError as exc:
            _log.warning("could not quarantine %r: %s", source, exc)
    _metrics()["quarantined"].inc(len(names))
    _log.warning(
        "quarantined %d file(s) into %r%s: %s",
        moved, qdir,
        f" (first failure: {reason!r})" if reason is not None else "",
        list(names),
    )
