"""Write-ahead log for the live ingestion plane.

Every appended reading is written to the journal **before** it is
indexed — a crash loses at most the bytes of one in-flight record; a
seal truncates it to the readings past the sealed frontier
(:meth:`WriteAheadLog.rewrite`). Where the journal sits among the other
files of a live directory, and the order they are committed in, is
:mod:`repro.live.store`'s business; this module knows one file.

WAL format: a fixed header (magic + the global value offset of the
first reading in the file) followed by length-prefixed, CRC-guarded
records::

    b"RLWAL1" | <Q start_offset>
    record := <I count> <I crc32(payload)> | payload (count float64 LE)

Replay stops at the first incomplete or CRC-mismatched record (a torn
tail write) and reports whether the file ended cleanly; a corrupted
*header* fails loudly instead — a WAL whose provenance cannot be
established must never be silently treated as empty.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from typing import Any

import numpy as np

from .._util import FLOAT_DTYPE
from ..exceptions import (
    SerializationError,
    SimulatedCrashError,
    StorageError,
    wrap_os_errors,
)
from ..faults.failpoints import failpoint, make_error
from ..obs.logsetup import get_logger
from ..obs.metrics import HandleCache

_log = get_logger("repro.live.wal")

#: Journal latency instrumentation (process default registry): the
#: full record append (serialize + write + flush [+ fsync]) and the
#: fsync syscall alone, which dominates in power-loss mode.
_metrics = HandleCache(
    lambda registry: (
        registry.histogram(
            "repro_live_wal_append_seconds",
            "WAL record append latency (write + flush + optional "
            "fsync), in seconds.",
        ),
        registry.histogram(
            "repro_live_wal_fsync_seconds",
            "WAL fsync latency, in seconds (power-loss durability "
            "mode only).",
        ),
    )
)

#: WAL file magic (6 bytes; the trailing digit is the format version).
WAL_MAGIC = b"RLWAL1"

#: Header layout after the magic: the global value index of the first
#: reading stored in this file.
_HEADER = struct.Struct("<Q")

#: Record layout: reading count, CRC32 of the payload bytes.
_RECORD = struct.Struct("<II")


class WriteAheadLog:
    """An append-only journal of readings with crash-tolerant replay.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "wal.log")
    >>> wal = WriteAheadLog.create(path, start=0)
    >>> wal.append([1.0, 2.0, 3.0])
    >>> wal.close()
    >>> start, values, clean = WriteAheadLog.replay(path)
    >>> (start, values.tolist(), clean)
    (0, [1.0, 2.0, 3.0], True)
    """

    def __init__(self, path: Any, *, fsync: bool = False):
        self._path = os.fspath(path)
        self._fsync = bool(fsync)
        self._file = None

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The journal file path."""
        return self._path

    @property
    def fsync(self) -> bool:
        """Whether every journal write is fsynced (power-loss mode)."""
        return self._fsync

    @classmethod
    def create(cls, path: Any, *, start: int = 0, fsync: bool = False) -> "WriteAheadLog":
        """Create a fresh journal whose first reading will be the global
        value index ``start``; truncates any existing file."""
        wal = cls(path, fsync=fsync)
        with wrap_os_errors("WAL create", path):
            wal._file = open(wal._path, "wb")
            wal._file.write(WAL_MAGIC + _HEADER.pack(int(start)))
            wal._flush()
        return wal

    @classmethod
    def open(cls, path: Any, *, fsync: bool = False) -> "WriteAheadLog":
        """Open an existing journal for appending (no replay; callers
        replay first, then open)."""
        wal = cls(path, fsync=fsync)
        with wrap_os_errors("WAL open", path):
            wal._file = open(wal._path, "ab")
        return wal

    # ------------------------------------------------------------------
    def append(self, values: Any) -> None:
        """Durably journal one batch of readings (before indexing).

        A failed write (disk full, I/O error) is rolled back by
        truncating the journal to its pre-append size, so a *survivable*
        mid-record failure never leaves a torn record in the middle of
        the log — the typed :class:`~repro.exceptions.StorageError`
        propagates and the journal stays appendable.
        """
        if self._file is None:
            raise SerializationError(f"WAL {self._path!r} is closed")
        append_seconds, _ = _metrics()
        with append_seconds.time():
            payload = np.ascontiguousarray(
                values, dtype=FLOAT_DTYPE
            ).tobytes()
            record = _RECORD.pack(len(payload) // 8, zlib.crc32(payload))
            data = record + payload
            durable = self._durable_size()
            try:
                torn = failpoint("wal.append", path=self._path, size=len(data))
                if torn is not None:
                    self._torn_write(torn, data)
                self._file.write(data)
                self._flush()
            except SimulatedCrashError:
                raise
            except OSError as exc:
                self._rollback(durable)
                raise StorageError(
                    f"WAL append to {self._path!r} failed: {exc}"
                ) from exc

    def _durable_size(self) -> int | None:
        """Current on-disk journal size (the append rollback point).
        The write buffer is empty between appends — every append ends
        in a flush — so ``fstat`` is exact here."""
        try:
            return os.fstat(self._file.fileno()).st_size
        except OSError:
            return None

    def _torn_write(self, spec: Any, data: bytes) -> None:
        """Armed ``wal.append`` torn-write protocol: write the first
        ``torn_after_bytes`` of the record, then fail — with the payload's
        ``error`` class when given (a survivable partial write the
        rollback must clean up), else a simulated crash that leaves the
        torn tail on disk for replay to drop."""
        keep = int(spec.get("torn_after_bytes", 0)) if isinstance(spec, dict) else 0
        self._file.write(data[:keep])
        self._file.flush()
        if isinstance(spec, dict) and spec.get("error"):
            raise make_error(spec["error"])
        raise SimulatedCrashError(
            f"injected crash: torn WAL append at {self._path!r} "
            f"({keep}/{len(data)} bytes written)"
        )

    def _rollback(self, durable: int | None) -> None:
        """Best-effort truncation back to the last durable record
        boundary after a failed append."""
        if durable is None:
            return
        try:
            self._file.flush()
        except OSError:  # lint: disable=crash-safety flush is advisory before the rollback truncate
            pass
        try:
            self._file.truncate(durable)
            self._file.seek(durable)
        except OSError as exc:
            _log.warning(
                "could not roll back failed WAL append on %r: %s",
                self._path, exc,
            )

    def rewrite(self, *, start: int, values: Any) -> None:
        """Atomically replace the journal with one holding ``values``
        from global offset ``start`` (the post-seal truncation).

        A rewrite that fails leaves the old journal in place and
        appendable: it merely starts before ``start``, which recovery
        accepts (and cross-checks against the sealed values).
        """
        was_open = self._file is not None
        if was_open:
            self._file.close()
            self._file = None
        tmp = self._path + ".tmp"
        payload = np.ascontiguousarray(values, dtype=FLOAT_DTYPE).tobytes()
        try:
            with wrap_os_errors("WAL rewrite", self._path):
                failpoint("wal.rewrite", path=self._path, start=int(start))
                try:
                    with open(tmp, "wb") as handle:
                        handle.write(WAL_MAGIC + _HEADER.pack(int(start)))
                        if payload:
                            handle.write(
                                _RECORD.pack(len(payload) // 8, zlib.crc32(payload))
                            )
                            handle.write(payload)
                        handle.flush()
                        if self._fsync:
                            os.fsync(handle.fileno())
                    os.replace(tmp, self._path)
                except OSError:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp)
                    raise
                if self._fsync:
                    fsync_directory(os.path.dirname(self._path) or ".")
        finally:
            # Whichever journal is at the path now — the new one, or the
            # old one after a failure — is the one appends continue in.
            if was_open:
                with wrap_os_errors("WAL reopen", self._path):
                    self._file = open(self._path, "ab")

    def close(self) -> None:
        """Close the journal handle (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def _flush(self) -> None:
        self._file.flush()
        failpoint("wal.fsync", path=self._path, fsync=self._fsync)
        if self._fsync:
            _, fsync_seconds = _metrics()
            with fsync_seconds.time():
                os.fsync(self._file.fileno())

    def __repr__(self) -> str:
        state = "closed" if self._file is None else "open"
        return f"WriteAheadLog(path={self._path!r}, {state})"

    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: Any) -> tuple[int, np.ndarray, bool]:
        """Read ``(start_offset, readings, clean)`` from a journal.

        ``readings`` holds every fully durable reading in order;
        ``clean`` is False when the file ended mid-record (a torn tail
        write — the truncated record's readings are dropped, which is
        exactly the durability contract: a reading is durable once its
        record is fully on disk). A missing or corrupted *header* raises
        :class:`~repro.exceptions.SerializationError` loudly.
        """
        path = os.fspath(path)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise SerializationError(
                f"cannot read WAL {path!r}: {exc}"
            ) from exc
        head = len(WAL_MAGIC) + _HEADER.size
        if len(blob) < head or blob[: len(WAL_MAGIC)] != WAL_MAGIC:
            raise SerializationError(
                f"WAL {path!r} has a missing or corrupted header"
            )
        (start,) = _HEADER.unpack_from(blob, len(WAL_MAGIC))
        chunks: list[np.ndarray] = []
        offset = head
        clean = True
        while offset < len(blob):
            if offset + _RECORD.size > len(blob):
                clean = False  # torn header
                break
            count, crc = _RECORD.unpack_from(blob, offset)
            offset += _RECORD.size
            payload = blob[offset : offset + count * 8]
            if len(payload) < count * 8 or zlib.crc32(payload) != crc:
                clean = False  # torn or corrupted payload
                break
            chunks.append(np.frombuffer(payload, dtype=FLOAT_DTYPE))
            offset += count * 8
        values = (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=FLOAT_DTYPE)
        )
        if not clean:
            _log.warning(
                "WAL %r ended in a torn or corrupted record; dropping "
                "the tail (replayed %d durable readings from offset %d)",
                path, values.size, int(start),
            )
        return int(start), values, clean


# ----------------------------------------------------------------------
def fsync_directory(directory: Any) -> None:
    """fsync a directory so renames/creations inside it are durable
    (best-effort: some filesystems refuse directory fds)."""
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # lint: disable=crash-safety some filesystems refuse fsync on a directory fd
        pass
    finally:
        os.close(fd)


def __getattr__(name: str) -> Any:
    # The manifest moved to repro.live.store (which imports this module,
    # so the old names resolve on first use, not at import).
    if name in ("MANIFEST_NAME", "load_manifest", "manifest_path", "save_manifest"):
        from . import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
