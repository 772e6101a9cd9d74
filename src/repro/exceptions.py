"""Exception hierarchy for the twin subsequence search library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class. Errors raised for invalid user input derive from
the standard :class:`ValueError` as well, following the principle of least
surprise for NumPy-centric code.
"""

from __future__ import annotations

import contextlib

__all__ = [
    "IncompatibleQueryError",
    "IndexNotBuiltError",
    "InvalidParameterError",
    "ReproError",
    "SerializationError",
    "SimulatedCrashError",
    "StorageError",
    "UnsupportedCapabilityError",
    "UnsupportedNormalizationError",
    "wrap_os_errors",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class InvalidParameterError(ReproError, ValueError):
    """A parameter value is outside its valid domain."""


class IncompatibleQueryError(ReproError, ValueError):
    """A query is incompatible with the index it is issued against.

    Typical causes: the query length differs from the indexed window
    length, or the query was prepared under a different normalization
    regime than the index.
    """

    def __init__(self, message: str, *, expected=None, received=None):
        if expected is not None or received is not None:
            message = f"{message} (expected={expected!r}, received={received!r})"
        super().__init__(message)
        self.expected = expected
        self.received = received


class IndexNotBuiltError(ReproError, RuntimeError):
    """An operation requiring a built index was invoked before building."""


class UnsupportedCapabilityError(ReproError, TypeError):
    """A query was planned against an object that cannot serve it.

    Raised by the query planner when the target is not a servable plane
    (it has no ``search`` kernel) — the typed replacement for the raw
    ``AttributeError`` a kernel call would raise deep inside.
    """


class UnsupportedNormalizationError(ReproError, ValueError):
    """The requested normalization regime is unsupported by this method.

    The canonical case from the paper (Section 4.1): KV-Index cannot be
    built over per-subsequence z-normalized windows because every window
    mean collapses to zero, destroying the filter.
    """


class StorageError(ReproError):
    """A durability operation (WAL, segment archive, manifest) failed.

    The typed wrapper for every ``OSError``/``IOError`` that would
    otherwise escape raw from the storage layer — disk full, permission
    denied, torn writes surfacing as short reads. The original OS error
    is preserved as ``__cause__`` so ``errno`` stays inspectable.
    """


class SerializationError(StorageError):
    """An index could not be saved to or restored from disk."""


class SimulatedCrashError(BaseException):
    """A fault-injection crash: the process is assumed dead past this point.

    Raised by an armed ``crash``/torn-write failpoint
    (:mod:`repro.faults`). It deliberately derives from
    :class:`BaseException` — not :class:`ReproError`, not even
    :class:`Exception` — so no retry loop, quarantine path, or broad
    ``except Exception`` handler in the library can swallow it: a real
    ``kill -9`` runs no handlers, and neither does this.
    """


@contextlib.contextmanager
def wrap_os_errors(operation: str, path):
    """Re-raise any ``OSError`` escaping the block as a typed
    :class:`StorageError` naming the operation and path.

    Library-typed errors (including :class:`SerializationError`, which
    is *not* an ``OSError``) pass through untouched.
    """
    try:
        yield
    except ReproError:
        raise
    except OSError as exc:
        raise StorageError(f"{operation} failed for {str(path)!r}: {exc}") from exc
