"""The one fan-out plane: an ordered set of index parts, six query modes.

Filter-and-refine cost and exactness do not depend on how the windows
are partitioned, so the sharded engine (static shards) and the live
plane (sealed segments + the delta) answer a query the same way: run it
on every part, then merge by position (``search``) or by ``(distance,
position)`` (``knn``). :class:`PartSet` is that loop, written once. A
plane contributes its **parts** and its **kind** (``"shard"`` /
``"segment"`` — the span key, the failpoint site, the wording of
fan-out errors). Every span a query touches is a part: a span the plane
scans rather than indexes — the live delta, a prefix query's ``l - m``
tail starts — is a :class:`~repro.indices.sweepline.SweeplineSearch`
over it, answered like a tree.

Every part call of every mode opens one ``execute`` span, fires the
plane's part failpoint and is timed into ``repro_shard_search_seconds``;
on a process pool a worker replays the same call from an
:class:`~repro.engine.procpool.ArchiveTask` instead, for every part with
an archive to reopen (a part without one answers in the calling thread).
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

from .._util import FanOutResult, call_task, fan_out, is_process_executor, map_with_executor
from ..core.batch import BatchResult
from ..core.stats import DegradedReport, SearchResult
from ..faults.failpoints import failpoint
from ..obs.metrics import HandleCache
from ..obs.trace import current_trace
from .merge import batch_result, merge_knn, merge_offset_search
from .varlength import prefix_search_part

#: Per-part call latency and merge latency (process default registry).
_metrics = HandleCache(
    lambda registry: (
        registry.histogram(
            "repro_shard_search_seconds",
            "Per-part (shard or segment) latency during fan-out, in seconds.",
        ),
        registry.histogram(
            "repro_shard_merge_seconds",
            "Cross-part result merge latency, in seconds.",
        ),
    )
)


class Part(NamedTuple):
    """One immutable slice of the position axis."""

    #: Global position of the part's first window.
    start: int
    #: The part's index — a tree, or a sweepline over a scanned span; it
    #: answers in part-local positions.
    index: Any
    #: Names the part in spans, error notes and degraded reports.
    label: Any
    #: ``(archive path, shard number or None)`` for a worker process to
    #: reopen; ``None`` when the part exists only in memory (a process
    #: pool then leaves it to the calling thread).
    archive: tuple[str, int | None] | None


def call_part(index: Any, call: str, args: tuple, kwargs: dict) -> Any:
    """Run the kernel named ``call`` on one part — also what an
    :class:`~repro.engine.procpool.ArchiveTask` runs in its worker, so
    the replay is the in-memory call."""
    if call == "prefix_search_part":
        return prefix_search_part(index, *args, **kwargs)
    return getattr(index, call)(*args, **kwargs)


def local_exclude(
    exclude: tuple[int, int] | None, start: int, size: int
) -> tuple[int, int] | None:
    """A global k-NN exclusion zone in the frame of the part covering
    ``[start, start + size)``."""
    if exclude is None:
        return None
    lo = max(0, exclude[0] - start)
    hi = min(size, exclude[1] - start)
    return (lo, hi) if lo < hi else None


@dataclasses.dataclass(frozen=True)
class PartSet:
    """An immutable, ordered set of parts and the query modes over it.
    Queries arrive validated and prepared; answers are byte-identical
    to one index over the union of the parts."""

    parts: Sequence[Part]
    kind: str

    def _answer(self, trace: Any, part: Part, call: str, args: tuple, kwargs: dict) -> Any:
        """One part call in this process: span, failpoint, histogram."""
        with trace.span("execute", **{self.kind: part.label}):
            # Two literals, so tests/test_invariants.py can audit site names.
            if self.kind == "shard":
                failpoint("shard.search", shard=part.label)
            else:
                failpoint("segment.search", segment=part.label)
            with _metrics()[0].time():
                return call_part(part.index, call, args, kwargs)

    def _run(
        self,
        call: str,
        args: tuple,
        kwargs: Callable[[Part], dict],
        executor: Any,
        timeout: float | None = None,
        degraded: bool = False,
    ) -> FanOutResult:
        """``call(*args, **kwargs(part))`` on every part, with
        :func:`~repro._util.fan_out`'s failure and deadline semantics.
        On a process pool the parts with an archive go to the workers as
        :class:`~repro.engine.procpool.ArchiveTask` values, after the
        others have answered here, one after another: a scan part, or
        every segment of an in-memory plane (then this is the serial
        loop, byte-identical)."""
        # Captured here: pool threads do not inherit the trace context.
        trace = current_trace()

        def one(part: Part) -> Any:
            return self._answer(trace, part, call, args, kwargs(part))

        def labels(parts: Sequence[Part]) -> list:
            return [part.label for part in parts]

        deadline = {"part": self.kind, "timeout": timeout, "degraded": degraded}
        if not is_process_executor(executor):
            return fan_out(executor, one, self.parts, labels=labels(self.parts), **deadline)
        from ..engine.procpool import ArchiveTask  # lazy: only process fan-out

        here = [part for part in self.parts if part.archive is None]
        shipped = [part for part in self.parts if part.archive is not None]
        answers = iter(fan_out(None, one, here, labels=labels(here), part=self.kind).results)
        tasks = [
            ArchiveTask(part.archive[0], call, shard=part.archive[1], args=args, kwargs=kwargs(part))
            for part in shipped
        ]
        outcome = fan_out(executor, call_task, tasks, labels=labels(shipped), **deadline)
        remote = iter(outcome.results)
        return FanOutResult(
            [next(answers if part.archive is None else remote) for part in self.parts],
            tuple(label for label in labels(self.parts) if label not in outcome.missing),
            outcome.missing,
        )

    def _pairs(self, outcome: FanOutResult) -> list:
        """``(start, result)`` of every part that answered."""
        return [
            (part.start, result)
            for part, result in zip(self.parts, outcome.results)
            if result is not None
        ]

    def search(
        self,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        executor: Any = None,
        timeout: float | None = None,
        degraded: bool = False,
        call: str = "search",
    ) -> SearchResult:
        """All twins of a full-length query. ``timeout`` bounds the
        pooled fan-out: past it the default raises
        :class:`~repro.exceptions.ShardTimeoutError`, ``degraded=True``
        merges what answered and says which on ``result.degraded``."""
        outcome = self._run(
            call, (query, epsilon), lambda part: {"verification": verification},
            executor, timeout, degraded,
        )
        # Parts ascend by span, so the offset merge is globally
        # position-sorted without a sort.
        with current_trace().span("merge"), _metrics()[1].time():
            merged = merge_offset_search(self._pairs(outcome))
        if outcome.degraded:
            merged.degraded = DegradedReport(
                answered=list(outcome.answered),
                missing=list(outcome.missing),
                timeout=timeout,
            )
        return merged

    #: All twins of a query shorter than ``l``, each part verifying its
    #: own prefix candidates (the plane adds the series tail as a scan
    #: part). Prefix queries take no deadline — the planes pass none.
    prefix_search = functools.partialmethod(search, call="prefix_search_part")

    def count(self, query: Any, epsilon: float, *, executor: Any = None) -> int:
        """Number of twins, summed per part — no result arrays merged."""
        return sum(self._run("count", (query, epsilon), lambda part: {}, executor).results)

    def knn(
        self,
        query: Any,
        k: int,
        *,
        exclude: tuple[int, int] | None = None,
        executor: Any = None,
    ) -> SearchResult:
        """The ``k`` nearest windows: a local k-NN per part (exclusion
        zone translated into its frame), re-ranked globally."""

        def kwargs(part: Part) -> dict:
            size = part.index.size
            return {"k": min(k, size), "exclude": local_exclude(exclude, part.start, size)}

        outcome = self._run("knn", (query,), kwargs, executor)
        with current_trace().span("merge"), _metrics()[1].time():
            return merge_knn(self._pairs(outcome), k)

    def exists(self, query: Any, epsilon: float) -> bool:
        """Whether any part holds a twin — probed in span order in the
        calling thread, stopping at the first hit."""
        trace = current_trace()
        return any(
            self._answer(trace, part, "exists", (query, epsilon), {}) for part in self.parts
        )

    @staticmethod
    def search_batch(
        search: Callable[..., SearchResult],
        queries: Sequence,
        epsilon: float,
        *,
        executor: Any = None,
        **options: Any,
    ) -> BatchResult:
        """Every query through the plane's own ``search`` (a fresh part
        snapshot per query), in input order. On a thread pool the
        *queries* fan out and each walks its parts serially (no nested
        pool to deadlock); query closures cannot cross a process
        boundary, so on a process pool the loop runs here and each
        query's *parts* fan out. Identical results either way."""
        if is_process_executor(executor):
            results = [search(query, epsilon, executor=executor, **options) for query in queries]
        else:
            results = map_with_executor(
                executor, lambda query: search(query, epsilon, **options), queries
            )
        return batch_result(results, epsilon)
