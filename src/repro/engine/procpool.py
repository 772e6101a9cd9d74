"""The process fan-out worker protocol.

Thread fan-out ships closures over live index objects; a process pool
cannot (the index arrays would be pickled per call — gigabytes per
query). Instead, process fan-out ships :class:`ArchiveTask` values: a
tiny picklable record naming *an archive path*, the plane entry point
to call, and the (already prepared, query-sized) call arguments. Each
worker process opens the archive once by path and caches it for its
lifetime — with raw (mmap) archives every worker maps the same files,
so N processes share one page-cache copy of the index and exactly zero
index data crosses the process boundary per query.

Byte-identity with the thread path holds because the worker replays
the thread closure's exact call against an index rebuilt from the same
bytes: prepared queries re-prepare to themselves
(:meth:`~repro.core.windows.WindowSource.prepare_query` is
idempotent), per-window archives embed the monolithic rolling
statistics, and :class:`~repro.core.stats.QueryStats` carries only
structural counters — no wall-clock fields.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..exceptions import InvalidParameterError

#: Archives this worker process has already opened, by path. Bounded in
#: practice by the number of distinct planes a deployment serves; raw
#: archives cost address space, not private memory.
_CACHE: dict[str, object] = {}

#: Plane entry points a task may invoke (the read-only query surface —
#: a task must never be able to name arbitrary attributes).
ALLOWED_CALLS = frozenset(
    {
        "search",
        "search_varlength",
        "search_batch",
        "knn",
        "exists",
        "count",
        "prefix_search_part",
    }
)


def open_archive(path: str) -> Any:
    """The worker-side archive cache: load ``path`` on first use (mmap
    for raw archives), then serve every later task from the cached
    index object."""
    index = _CACHE.get(path)
    if index is None:
        from ..persistence import load_index  # lazy: keeps fork cheap

        _CACHE[path] = index = load_index(path)
    return index


@dataclasses.dataclass(frozen=True, eq=False)
class ArchiveTask:
    """One picklable unit of process fan-out: call ``call`` on the
    index stored at ``path`` (or on its ``shard``-th shard) with the
    given arguments. Self-executing — ``task()`` returns the plane
    call's result — so :func:`repro._util.fan_out` can route tasks
    through :func:`repro._util.call_task` on any executor, including
    none (the serial path runs them in-process against the same
    archive, byte-identical)."""

    path: str
    call: str
    shard: int | None = None
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)

    def __call__(self) -> Any:
        if self.call not in ALLOWED_CALLS:
            raise InvalidParameterError(
                f"archive task call {self.call!r} is not a fan-out entry "
                f"point (allowed: {sorted(ALLOWED_CALLS)})"
            )
        target = open_archive(self.path)
        if self.shard is not None:
            target = target.shards[self.shard]
        from ..query.parts import call_part  # lazy: keeps fork cheap

        return call_part(target, self.call, self.args, self.kwargs)
