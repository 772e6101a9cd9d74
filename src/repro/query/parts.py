"""The one fan-out plane: an ordered set of index parts, and the query
surface of every plane served as parts.

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

A plane served this way is a :class:`PartitionedPlane`: it brings one
method, ``_take``, which validates and prepares a query and hands back
the :class:`PartSet` it runs on. :mod:`repro.query.planner` serves every
mode from that pair, and the public query methods — defined here, once
for both planes — are each one planned call.

Which parts a query gets is the plane's choice: on the calling thread
a sharded plane hands over one, its shards' joined forest (labelled
``"forest"``), and on a pool its shards. Every part call of every mode
opens one ``execute`` span, fires the plane's part failpoint and is
timed into ``repro_shard_search_seconds``;
on a process pool a worker replays the same call from an
:class:`~repro.engine.procpool.ArchiveTask` instead, for every part with
an archive to reopen (a part without one answers in the calling thread).
"""

from __future__ import annotations

import abc
import dataclasses
import functools
from collections.abc import Callable, Sequence
from typing import Any, NamedTuple

import numpy as np

from .._util import call_task, fan_out, is_process_executor
from ..core.batch import BatchResult
from ..core.stats import SearchResult
from ..faults.failpoints import failpoint
from ..indices.base import SubsequenceIndex
from ..obs.metrics import HandleCache
from ..obs.trace import current_trace
from .merge import merge_knn, merge_offset_search
from .planner import execute
from .spec import QuerySpec
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
    #: Names the part in spans and error notes.
    label: Any
    #: ``(archive path, shard number)`` for a worker process to reopen
    #: (a sharded plane's shard); ``None`` when the part exists only in
    #: memory (a process pool then leaves it to the calling thread).
    archive: tuple[str, int] | None


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
    #: The series the parts cover, in the index value domain — what a
    #: prefix k-NN scans whole (see :mod:`repro.query.planner`).
    values: np.ndarray | None = None

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
    ) -> list:
        """``call(*args, **kwargs(part))`` on every part, in part order,
        with :func:`~repro._util.fan_out`'s failure semantics.
        On a process pool the parts with an archive go to the workers as
        :class:`~repro.engine.procpool.ArchiveTask` values, after the
        others have answered here, one after another: a scan part, or
        every part of the live plane (then this is the serial loop,
        byte-identical)."""
        # Captured here: pool threads do not inherit the trace context.
        trace = current_trace()

        def one(part: Part) -> Any:
            return self._answer(trace, part, call, args, kwargs(part))

        def labels(parts: Sequence[Part]) -> list:
            return [part.label for part in parts]

        if not is_process_executor(executor):
            return fan_out(executor, one, self.parts, labels=labels(self.parts), part=self.kind)
        from ..engine.procpool import ArchiveTask  # lazy: only process fan-out

        here = [part for part in self.parts if part.archive is None]
        shipped = [part for part in self.parts if part.archive is not None]
        answers = iter(fan_out(None, one, here, labels=labels(here), part=self.kind))
        tasks = [
            ArchiveTask(part.archive[0], call, shard=part.archive[1], args=args, kwargs=kwargs(part))
            for part in shipped
        ]
        remote = iter(fan_out(executor, call_task, tasks, labels=labels(shipped), part=self.kind))
        return [next(answers if part.archive is None else remote) for part in self.parts]

    def _pairs(self, results: list) -> list:
        """``(start, result)`` of every part."""
        return [(part.start, result) for part, result in zip(self.parts, results)]

    def search(
        self,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        executor: Any = None,
        call: str = "search",
    ) -> SearchResult:
        """All twins of a full-length query."""
        results = self._run(
            call, (query, epsilon), lambda part: {"verification": verification}, executor
        )
        # Parts ascend by span, so the offset merge is globally
        # position-sorted without a sort.
        with current_trace().span("merge"), _metrics()[1].time():
            return merge_offset_search(self._pairs(results))

    #: All twins of a query shorter than ``l``, each part verifying its
    #: own prefix candidates (the plane adds the series tail as a scan
    #: part).
    prefix_search = functools.partialmethod(search, call="prefix_search_part")

    def count(self, query: Any, epsilon: float, *, executor: Any = None) -> int:
        """Number of twins, summed per part — no result arrays merged."""
        return sum(self._run("count", (query, epsilon), lambda part: {}, executor))

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

        results = self._run("knn", (query,), kwargs, executor)
        with current_trace().span("merge"), _metrics()[1].time():
            return merge_knn(self._pairs(results), k)

    def exists(self, query: Any, epsilon: float) -> bool:
        """Whether any part holds a twin — probed in span order in the
        calling thread, stopping at the first hit."""
        trace = current_trace()
        return any(
            self._answer(trace, part, "exists", (query, epsilon), {}) for part in self.parts
        )


class PartitionedPlane(SubsequenceIndex):
    """A plane served as parts: the sharded engine and the live plane.

    A subclass brings :meth:`_take`; the planner serves every mode from
    the ``(query, parts)`` pair it hands back, and never calls the
    methods below — each is one planned call, so a direct call and a
    :class:`~repro.engine.executor.QueryEngine` call run the same path.
    ``executor`` fans a query's parts out on a pool; every part runs to
    completion, and the first part to raise fails the query. Queries
    shorter than ``l`` take the prefix path.
    """

    @abc.abstractmethod
    def _take(self, query: Any, executor: Any = None) -> tuple[np.ndarray, PartSet] | None:
        """``query`` validated and prepared (``expected=`` the window
        length), and the :class:`PartSet` it runs on — the series tail
        a scan part when the query is shorter than ``l``. ``None`` when
        nothing is indexed for it yet. ``executor`` is the pool the
        parts will fan out on."""

    def search(
        self,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        executor: Any = None,
    ) -> SearchResult:
        """All twins of ``query`` within Chebyshev ``ε``, merged across
        the parts by position — byte-identical to one index over the
        whole series, structural counters merged in part order."""
        return execute(
            self,
            QuerySpec(
                query=query, mode="search", epsilon=epsilon,
                options={"verification": verification},
            ),
            executor=executor,
        )

    def search_varlength(
        self,
        query: Any,
        epsilon: float,
        *,
        verification: str = "bulk",
        executor: Any = None,
    ) -> SearchResult:
        """All twins of a query of length ``m <= l``: each part runs the
        prefix-bounded traversal over its own span, and the series tail
        — the ``l - m`` starts past the last full window — is one more
        scan part. ``m == l`` is :meth:`search`, and so is this call:
        the planner routes a shorter query to the prefix path."""
        return self.search(query, epsilon, verification=verification, executor=executor)

    def count(self, query: Any, epsilon: float, *, executor: Any = None) -> int:
        """Number of twins — summed per part, so no result arrays are
        merged (a shorter query counts its prefix search)."""
        return execute(
            self, QuerySpec(query=query, mode="count", epsilon=epsilon), executor=executor
        )

    def knn(
        self,
        query: Any,
        k: int,
        *,
        exclude: tuple[int, int] | None = None,
        executor: Any = None,
    ) -> SearchResult:
        """The ``k`` nearest windows: a local k-NN per part, re-ranked
        by ``(distance, position)``. A shorter query is the exact
        prefix scan over the series."""
        return execute(
            self, QuerySpec(query=query, mode="knn", k=k, exclude=exclude), executor=executor
        )

    def exists(self, query: Any, epsilon: float) -> bool:
        """Whether any twin exists — the parts probed in span order in
        the calling thread, stopping at the first hit (a shorter query
        asks its prefix search)."""
        return execute(self, QuerySpec(query=query, mode="exists", epsilon=epsilon))

    def search_batch(
        self,
        queries: Any,
        epsilon: float,
        *,
        executor: Any = None,
        **search_options: Any,
    ) -> BatchResult:
        """Every query of ``queries`` at ``epsilon``, in input order. On
        a thread pool the queries fan out, each walking its parts in
        turn; on a process pool the loop runs here and each query's
        parts fan out. Mixed lengths are served."""
        return execute(
            self,
            QuerySpec(
                query=list(queries), mode="batch", epsilon=epsilon,
                options=dict(search_options),
            ),
            executor=executor,
        )
