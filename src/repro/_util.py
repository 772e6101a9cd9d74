"""Small shared helpers: validation, chunking, array coercion.

These utilities are internal (underscore module). They centralize the
defensive checks used at every public API boundary so the error messages
stay consistent across indices.
"""

from __future__ import annotations

import concurrent.futures
import os
from collections.abc import Iterator, Sequence

import numpy as np

from .exceptions import InvalidParameterError
from .faults.failpoints import failpoint

#: dtype used for all internal series buffers. float64 keeps the distance
#: arithmetic exact enough that equality-with-threshold tests are stable.
FLOAT_DTYPE = np.float64

#: dtype used for window start positions.
POSITION_DTYPE = np.int64


def as_float_array(values, *, name: str = "values") -> np.ndarray:
    """Coerce ``values`` to a contiguous 1-D float64 array.

    Raises :class:`InvalidParameterError` for empty input, non-1-D input,
    or non-finite entries (NaN/inf silently corrupt every distance bound
    in the library, so they are rejected at the boundary).
    """
    array = np.ascontiguousarray(values, dtype=FLOAT_DTYPE)
    if array.ndim != 1:
        raise InvalidParameterError(
            f"{name} must be one-dimensional, got shape {array.shape}"
        )
    if array.size == 0:
        raise InvalidParameterError(f"{name} must not be empty")
    if not np.all(np.isfinite(array)):
        raise InvalidParameterError(f"{name} contains NaN or infinite entries")
    return array


def as_position_array(positions, *, name: str = "positions") -> np.ndarray:
    """Coerce ``positions`` to a 1-D int64 array (possibly empty)."""
    array = np.ascontiguousarray(positions, dtype=POSITION_DTYPE)
    if array.ndim != 1:
        raise InvalidParameterError(
            f"{name} must be one-dimensional, got shape {array.shape}"
        )
    return array


def check_positive_int(value, *, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as int."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_non_negative(value, *, name: str) -> float:
    """Validate that ``value`` is a finite number >= 0 and return a float."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(number) or number < 0:
        raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return number


def check_window_length(length, series_length: int, *, name: str = "length") -> int:
    """Validate a window length against the series it will slide over."""
    length = check_positive_int(length, name=name)
    if length > series_length:
        raise InvalidParameterError(
            f"{name}={length} exceeds the series length {series_length}"
        )
    return length


def available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; under a restricted CPU
    affinity mask (containers, ``taskset``) that oversubscribes every
    default-sized pool. Prefer the scheduler's affinity set where the
    platform exposes it.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def is_process_executor(executor) -> bool:
    """Whether ``executor`` fans work out across processes (so only
    picklable, closure-free tasks may cross it)."""
    return isinstance(executor, concurrent.futures.ProcessPoolExecutor)


def call_task(task):
    """The ``fn`` used for picklable task fan-outs: each item is a
    self-contained callable (e.g. an ``ArchiveTask``) and ``fn(item)``
    is simply ``item()``. :func:`fan_out` recognizes this sentinel to
    route items across a process pool."""
    return task()


def _process_task(part, label, task):
    """Module-level process-pool worker: runs the fan-out failpoint
    (inherited state under the ``fork`` start method) then the task."""
    failpoint("fanout.task", part=part, label=label)
    return task()


def _annotate(exc: BaseException, part: str, label) -> None:
    """Attach the failing part's identity to an in-flight exception."""
    note = f"raised while fanning out over {part} {label!r}"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)


def fan_out(
    executor,
    fn,
    items: Sequence,
    *,
    labels: Sequence | None = None,
    part: str = "part",
) -> list:
    """``[fn(item) for item in items]`` fanned out on ``executor``, with
    typed failure semantics.

    * With no executor (or a single item) the parts run one after
      another in the calling thread — the engine's default, since
      threads sharing the GIL never beat it on this work. There a
      sharded plane hands over one part, its shards' forest, and the
      live plane its sealed forest, delta and tail.
    * Every part fires the ``fanout.task`` failpoint before it runs,
      in the caller, a pool thread or a worker process alike.
    * On the first worker exception, the remaining pending futures are
      cancelled (not leaked) and the original exception propagates with
      the failing part's label attached as a note.

    Every part runs to completion: the result list always matches the
    input order. ``labels`` (default: indices) name the parts in errors
    and notes.
    """
    if labels is None:
        labels = range(len(items))
    if is_process_executor(executor) and fn is not call_task:
        # Closure-based fan-outs (query-level loops capturing the index)
        # cannot cross a process boundary; run them serially instead —
        # byte-identical results, just without the parallelism. Planes
        # that want process fan-out submit picklable tasks via
        # ``call_task``.
        executor = None
    if executor is None or len(items) <= 1:
        results = []
        for label, item in zip(labels, items):
            try:
                failpoint("fanout.task", part=part, label=label)
                results.append(fn(item))
            except BaseException as exc:
                _annotate(exc, part, label)
                raise
        return results

    if is_process_executor(executor):
        futures = [
            executor.submit(_process_task, part, label, item)
            for label, item in zip(labels, items)
        ]
    else:
        def worker(label, item):
            failpoint("fanout.task", part=part, label=label)
            return fn(item)

        futures = [
            executor.submit(worker, label, item)
            for label, item in zip(labels, items)
        ]
    concurrent.futures.wait(
        futures, return_when=concurrent.futures.FIRST_EXCEPTION
    )
    for label, future in zip(labels, futures):
        if future.done() and future.exception() is not None:
            for other in futures:
                other.cancel()
            exc = future.exception()
            _annotate(exc, part, label)
            raise exc
    return [future.result() for future in futures]


def iter_chunks(total: int, chunk_size: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` pairs covering ``range(total)`` in chunks."""
    if chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, total, chunk_size):
        yield start, min(start + chunk_size, total)


def positions_to_intervals(positions: Sequence[int]) -> list[tuple[int, int]]:
    """Compress a sorted position list into half-open ``[start, stop)`` runs.

    >>> positions_to_intervals([1, 2, 3, 7, 9, 10])
    [(1, 4), (7, 8), (9, 11)]
    """
    array = as_position_array(positions)
    if array.size == 0:
        return []
    if np.any(np.diff(array) <= 0):
        raise InvalidParameterError("positions must be strictly increasing")
    breaks = np.flatnonzero(np.diff(array) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [array.size - 1]))
    return [(int(array[a]), int(array[b]) + 1) for a, b in zip(starts, stops)]


def intervals_to_positions(intervals: Sequence[tuple[int, int]]) -> np.ndarray:
    """Expand half-open ``[start, stop)`` runs back into a position array."""
    if not intervals:
        return np.empty(0, dtype=POSITION_DTYPE)
    parts = [np.arange(start, stop, dtype=POSITION_DTYPE) for start, stop in intervals]
    return np.concatenate(parts)
