"""The live directory: its files, its catalog and its commit order.

A durable :class:`~repro.live.index.LiveTwinIndex` owns one directory::

    wal.log                  readings not yet sealed (repro.live.wal)
    MANIFEST.json            configuration, sealed frontier, segment chain
    seg-<start>-<stop>.rts/  one archive per sealed segment (``.npz``: the
                             legacy spelling — read and swept, never written)
    quarantine/              what a non-strict recovery moved aside

Every fact about that layout — names, manifest keys, what an absent key
means — is spelled here and nowhere else, and so is the one order in
which the files change: archive → manifest → journal truncation →
unlink of what the manifest dropped (:meth:`LiveStore.commit`). Each
step is atomic, so a crash between any two leaves a directory
:meth:`LiveStore.open` accepts: an archive the manifest does not name is
an orphan and is swept; a journal that starts before the manifest's
frontier merely repeats sealed readings, which are cross-checked.

A store holds no lock: the plane calls :meth:`LiveStore.commit` and
:meth:`LiveStore.save_segment` (which writes a file nothing names yet)
under its own.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from typing import Any, Iterable

import numpy as np

from .._util import FLOAT_DTYPE
from ..core.frozen import FrozenTSIndex
from ..core.normalization import Normalization
from ..core.tsindex import TSIndexParams
from ..exceptions import (
    InvalidParameterError,
    SerializationError,
    SimulatedCrashError,
    StorageError,
    wrap_os_errors,
)
from ..faults.failpoints import failpoint
from ..obs.logsetup import get_logger
from ..obs.metrics import HandleCache
from .segments import DEFAULT_SEAL_THRESHOLD, Segment
from .wal import WriteAheadLog, fsync_directory

_log = get_logger("repro.live")

_quarantined_total = HandleCache(
    lambda registry: registry.counter(
        "repro_segments_quarantined_total",
        "Segment archives moved aside by non-strict recovery "
        "(corrupt archive plus the non-contiguous suffix behind it).",
    )
)

#: Journal file name inside a live directory.
WAL_NAME = "wal.log"

#: Manifest file name inside a live directory, and its format marker.
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = 1

#: Segment archive names: ``seg-<start>-<stop>`` plus the suffix written
#: (a directory, see :mod:`repro.persistence.serializer`) or the legacy
#: single-file one an older live directory may still hold — loaded
#: through its manifest entry and swept when orphaned.
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIXES = (".rts", ".npz")

#: Where non-strict recovery moves what it cannot read.
QUARANTINE_DIR = "quarantine"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def manifest_path(directory: Any) -> str:
    """The manifest file path inside a live directory."""
    return os.path.join(os.fspath(directory), MANIFEST_NAME)


def save_manifest(directory: Any, manifest: dict) -> None:
    """Atomically write ``manifest`` (tmp file + fsync + rename + dir
    fsync, so a crash leaves either the old or the new manifest, never
    a torn one — and the rename itself is durable). Manifest writes
    happen only at init, seal and recovery, so the extra fsyncs are off
    the append hot path."""
    path = manifest_path(directory)
    tmp = path + ".tmp"
    with wrap_os_errors("manifest commit", path):
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        spec = failpoint("manifest.commit", path=path)
        if spec is not None:
            if isinstance(spec, dict) and "truncate_tmp_to" in spec:
                # Leave a *partially written* tmp file behind, as a
                # crash mid-write would.
                with open(tmp, "r+b") as handle:
                    handle.truncate(int(spec["truncate_tmp_to"]))
            raise SimulatedCrashError(
                f"injected crash before manifest commit at {path!r}"
            )
        os.replace(tmp, path)
        fsync_directory(directory)


def load_manifest(directory: Any) -> dict:
    """Read and validate a live directory's manifest.

    Every failure mode — missing file, invalid JSON, wrong format
    marker, missing keys, malformed segment entries — raises
    :class:`~repro.exceptions.SerializationError`: recovery must fail
    loudly rather than serve from a half-understood directory.
    """
    path = manifest_path(directory)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise SerializationError(
            f"cannot read live manifest {path!r}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"live manifest {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise SerializationError(f"live manifest {path!r} must be an object")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise SerializationError(
            f"unsupported live manifest format {manifest.get('format')!r} "
            f"in {path!r}"
        )
    for key in ("length", "normalization", "params", "segments"):
        if key not in manifest:
            raise SerializationError(
                f"live manifest {path!r} is missing {key!r}"
            )
    segments = manifest["segments"]
    if not isinstance(segments, list):
        raise SerializationError(
            f"live manifest {path!r}: segments must be a list"
        )
    for entry in segments:
        if not isinstance(entry, dict) or not {
            "start",
            "stop",
            "file",
        } <= set(entry):
            raise SerializationError(
                f"live manifest {path!r}: malformed segment entry {entry!r}"
            )
    return manifest


@dataclasses.dataclass(frozen=True)
class Manifest:
    """A live directory's catalog: the plane's configuration, the sealed
    frontier, the segment chain as ``(start, stop, file)``.
    :meth:`write` and :meth:`read` are the one spelling of its JSON keys
    (retired ones — ``archive_format``, and ``max_segments`` from when
    segments were merged — are read past and never written)."""

    length: int
    normalization: Normalization
    params: TSIndexParams
    seal_threshold: int | None
    fsync: bool
    wal_offset: int | None
    segments: tuple[tuple[int, int, str], ...]

    def write(self, directory: Any) -> None:
        """Commit this manifest to ``directory`` (atomic)."""
        save_manifest(
            directory,
            {
                "format": MANIFEST_FORMAT,
                "length": self.length,
                "normalization": self.normalization.value,
                "params": dataclasses.asdict(self.params),
                "seal_threshold": self.seal_threshold,
                "fsync": self.fsync,
                "wal_offset": self.wal_offset,
                "segments": [
                    {"start": start, "stop": stop, "file": file}
                    for start, stop, file in self.segments
                ],
            },
        )

    @classmethod
    def read(cls, directory: Any) -> "Manifest":
        """Parse ``directory``'s manifest; anything it cannot make
        sense of is a :class:`~repro.exceptions.SerializationError`."""
        raw = load_manifest(directory)
        try:
            seal_threshold = raw.get("seal_threshold", DEFAULT_SEAL_THRESHOLD)
            wal_offset = raw.get("wal_offset")
            return cls(
                length=int(raw["length"]),
                normalization=Normalization.coerce(raw["normalization"]),
                params=TSIndexParams(**raw["params"]),
                seal_threshold=None if seal_threshold is None else int(seal_threshold),
                fsync=bool(raw.get("fsync", False)),
                wal_offset=None if wal_offset is None else int(wal_offset),
                segments=tuple(
                    (int(entry["start"]), int(entry["stop"]), str(entry["file"]))
                    for entry in raw["segments"]
                ),
            )
        except (TypeError, ValueError, InvalidParameterError) as exc:
            raise SerializationError(
                f"live manifest in {os.fspath(directory)!r} holds invalid "
                f"configuration: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# The directory
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Recovered:
    """What :meth:`LiveStore.open` found on disk."""

    manifest: Manifest
    #: The intact segment chain, each still over its own archived chunk.
    sealed: tuple[Segment, ...]
    #: Every durable reading: sealed chunks, then the journal past them.
    series: np.ndarray
    #: Files non-strict recovery moved into ``quarantine/``.
    quarantined: tuple[str, ...]
    #: Journal readings replayed, and whether the journal ended cleanly.
    replayed: int
    clean: bool


class LiveStore:
    """One live directory and its open journal."""

    def __init__(self, directory: str, wal: WriteAheadLog):
        self.directory = directory
        self.wal = wal

    @property
    def fsync(self) -> bool:
        """Whether archives and journal writes are fsynced (the
        power-loss durability mode)."""
        return self.wal.fsync

    @classmethod
    def create(cls, path: Any, values: np.ndarray, *, fsync: bool) -> "LiveStore":
        """Start a live directory at ``path`` with ``values`` journaled.
        The caller commits the first manifest."""
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        if os.path.exists(manifest_path(path)):
            raise InvalidParameterError(
                f"{path!r} already holds a live index; open it with "
                "LiveTwinIndex.recover()"
            )
        wal = WriteAheadLog.create(os.path.join(path, WAL_NAME), start=0, fsync=fsync)
        if values.size:
            wal.append(values)
        return cls(path, wal)

    @classmethod
    def open(
        cls, path: Any, *, fsync: bool | None, strict: bool
    ) -> tuple["LiveStore", Recovered]:
        """Load and validate the directory at ``path``: the manifest,
        the segment chain it names, and the journal behind them
        (``fsync=None`` keeps the manifest's mode).

        ``strict=False`` switches corrupt-**archive** handling from
        fail-loud to quarantine-and-continue: the first unreadable
        archive *and every archive behind it* (segments partition the
        position axis, so nothing past a hole is position-addressable)
        are moved into ``quarantine/`` — never deleted — with a WARNING,
        and a journal that no longer abuts the truncated frontier goes
        with them. Manifest damage stays loud in both modes: quarantine
        is for losing *data files*, not for trusting a directory whose
        catalog cannot be parsed."""
        from ..persistence import load_index  # lazy: avoids import cost

        path = os.fspath(path)
        manifest = Manifest.read(path)
        if fsync is None:
            fsync = manifest.fsync

        sealed: list[Segment] = []
        frontier = 0
        quarantined: list[str] = []
        for position, (start, stop, file) in enumerate(manifest.segments):
            if start != frontier or stop <= start:
                raise SerializationError(
                    f"segment chain broken at [{start}, {stop}) "
                    f"(expected a segment starting at {frontier})"
                )
            try:
                with wrap_os_errors("segment read", file):
                    failpoint("segment.read", file=file)
                    # Read into memory, not mapped: every mapped array
                    # holds a file descriptor, and segments are never
                    # merged, so a plane would hold about nine per seal.
                    archive = load_index(os.path.join(path, file), mmap=False)
                if not isinstance(archive, FrozenTSIndex):
                    raise SerializationError(
                        f"{file}: not a frozen segment archive "
                        f"(got {type(archive).__name__})"
                    )
                if archive.size != stop - start or archive.length != manifest.length:
                    raise SerializationError(
                        f"{file}: archive shape disagrees with "
                        f"the manifest span [{start}, {stop})"
                    )
            except (StorageError, InvalidParameterError) as exc:
                if strict:
                    raise
                quarantined = [name for _, _, name in manifest.segments[position:]]
                _quarantine(path, quarantined, reason=exc)
                break
            sealed.append(Segment(start=start, index=archive, file=file))
            frontier = stop
        if (
            not quarantined
            and manifest.wal_offset is not None
            and manifest.wal_offset != frontier
        ):
            raise SerializationError(
                f"manifest wal_offset {manifest.wal_offset} disagrees with the "
                f"sealed frontier {frontier}"
            )

        wal_path = os.path.join(path, WAL_NAME)
        wal_start, wal_values, clean = WriteAheadLog.replay(wal_path)
        wal_dropped = wal_start > frontier
        if wal_dropped:
            if not quarantined:
                raise SerializationError(
                    f"WAL begins at value {wal_start}, past the sealed "
                    f"frontier {frontier}; readings are missing"
                )
            # The journal starts past the truncated frontier — its
            # readings are not contiguous with the surviving prefix.
            # Preserve it alongside the quarantined archives.
            _quarantine(path, [WAL_NAME], reason=None)
            wal_start = frontier
            wal_values = np.empty(0, dtype=FLOAT_DTYPE)

        # Reconstruct the full series: sealed chunks cover
        # [0, frontier + l - 1), the journal covers [wal_start, ...).
        pieces = [
            segment.index.source.series.values[: segment.size] for segment in sealed
        ]
        if sealed:
            pieces.append(sealed[-1].index.source.series.values[sealed[-1].size :])
        known = np.concatenate(pieces) if pieces else np.empty(0, dtype=FLOAT_DTYPE)
        overlap = min(known.size, wal_start + wal_values.size) - wal_start
        if overlap > 0 and not np.array_equal(
            known[wal_start : wal_start + overlap], wal_values[:overlap]
        ):
            raise SerializationError(
                "WAL readings disagree with sealed segment values; "
                "refusing to recover from an inconsistent directory"
            )
        if wal_start + wal_values.size > known.size:
            series = np.concatenate([known, wal_values[known.size - wal_start :]])
        else:
            series = known

        if wal_dropped:
            wal = WriteAheadLog.create(wal_path, start=frontier, fsync=fsync)
        else:
            wal = WriteAheadLog.open(wal_path, fsync=fsync)
        found = Recovered(
            manifest=manifest,
            sealed=tuple(sealed),
            series=series,
            quarantined=tuple(quarantined),
            replayed=int(wal_values.size),
            clean=clean,
        )
        return cls(path, wal), found

    def close(self) -> None:
        """Close the journal handle (idempotent). Every append ends in
        a flush, so this writes nothing a crash would not have."""
        self.wal.close()

    def path(self, file: str) -> str:
        """Where the archive named ``file`` lives."""
        return os.path.join(self.directory, file)

    def save_segment(self, segment: Segment) -> str:
        """Write ``segment``'s archive and return its name (the caller
        records it on the segment once written). In fsync mode the data (and its directory
        entry) is durable *before* any manifest can commit a reference
        to it — otherwise a power loss could leave a manifest pointing
        at a torn archive after the WAL was truncated. (The archive
        fsyncs and renames its own files; its commit marker is
        ``meta.json``, written last.)"""
        from ..persistence import save_index  # lazy: avoids import cost

        file = (
            f"{SEGMENT_PREFIX}{segment.start:012d}-{segment.stop:012d}{SEGMENT_SUFFIXES[0]}"
        )
        path = self.path(file)
        with wrap_os_errors("segment write", path):
            failpoint("segment.write", file=file)
            save_index(segment.index, path, fsync=self.fsync)
        if self.fsync:
            fsync_directory(self.directory)
        return file

    def commit(
        self,
        manifest: Manifest,
        *,
        tail: np.ndarray | None = None,
        stale: Iterable[str] = (),
    ) -> None:
        """Publish ``manifest``, whose archives are already written;
        then — only then — truncate the journal to ``tail``, the
        readings past the manifest's frontier, and unlink the ``stale``
        archives it no longer names."""
        manifest.write(self.directory)
        if tail is not None:
            self.wal.rewrite(start=manifest.wal_offset, values=tail)
        for file in stale:
            _remove_archive(self.path(file))

    def orphans(self, manifest: Manifest) -> list[str]:
        """Archives in the directory that ``manifest`` does not name:
        written by a seal that crashed before its commit, or left by an
        older version's segment merge that crashed before its unlink."""
        referenced = {file for _, _, file in manifest.segments}
        return [
            name
            for name in os.listdir(self.directory)
            if name.startswith(SEGMENT_PREFIX)
            and name.endswith(SEGMENT_SUFFIXES)
            and name not in referenced
        ]


def _remove_archive(path: str) -> None:
    """Best-effort removal of a segment archive — a directory, or a
    legacy single file (stale-file cleanup must never fail a recovery)."""
    try:
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.unlink(path)
    except OSError:  # lint: disable=crash-safety best-effort removal of an already-stale file
        pass


def _quarantine(directory: str, names: list[str], *, reason: Exception | None) -> None:
    """Move ``names`` from the live directory into ``quarantine/``
    (never deleted — preserved for forensics and manual repair)."""
    qdir = os.path.join(directory, QUARANTINE_DIR)
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
    _quarantined_total().inc(moved)
    _log.warning(
        "quarantined %d file(s) into %r%s: %s",
        moved, qdir,
        f" (first failure: {reason!r})" if reason is not None else "",
        list(names),
    )
