"""Named-index registry: owns built query planes for multi-tenant serving.

A server process typically holds several built indexes at once (one per
archive / window length / regime). :class:`IndexRegistry` is the owner:
it builds planes under caller-chosen names, hands out live references,
evicts them, persists them through :mod:`repro.persistence`, and
reports per-index stats. All operations are thread-safe; builds for
distinct names can proceed concurrently (the registry lock is only held
around map mutation, never around a build).

Any :class:`~repro.indices.base.SubsequenceIndex` registers — the
default :meth:`IndexRegistry.build` produces a sharded
:class:`~repro.engine.sharding.ShardedTSIndex`, but every registered
plane name (``method="sweepline"``, ``"kvindex"``, ``"isax"``,
``"tsindex"``, ``"frozen"``, ``"live"``) builds and serves through the
same front door, the planner synthesizing whatever the plane lacks.

Mutable :class:`~repro.live.LiveTwinIndex` planes register through
:meth:`IndexRegistry.add_live`. For those, the generation reported by
:meth:`get_with_generation` incorporates the plane's **mutation
counter**, so cache entries keyed on ``(name, generation)`` become
unreachable the moment an append lands — the generation-scoped
invalidation :class:`~repro.engine.executor.QueryEngine` relies on.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..core.normalization import Normalization
from ..core.tsindex import TSIndexParams
from ..exceptions import IndexNotBuiltError, InvalidParameterError
from ..indices.base import SubsequenceIndex, create_method
from .sharding import ShardedTSIndex


class IndexRegistry:
    """A thread-safe name → :class:`~repro.indices.base.SubsequenceIndex`
    mapping with ownership semantics (build, evict, persist, stats).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.engine import IndexRegistry
    >>> registry = IndexRegistry()
    >>> series = np.cumsum(np.random.default_rng(0).normal(size=2000))
    >>> engine = registry.build(
    ...     "demo", series, length=50, shards=2, normalization="none"
    ... )
    >>> registry.names()
    ['demo']
    >>> registry.get("demo") is engine
    True
    """

    def __init__(self) -> None:
        # Query planes (sharded engines, live planes, ...), by name.
        self._engines: dict[str, SubsequenceIndex] = {}  # lint: guarded-by(_lock)
        self._built_at: dict[str, float] = {}  # lint: guarded-by(_lock)
        # Monotonic per-name registration counter. Callers that cache
        # results key on (name, generation) so an in-flight computation
        # against a replaced index can never be served for its
        # successor (see QueryEngine).
        self._generations: dict[str, int] = {}  # lint: guarded-by(_lock)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------
    def build(
        self,
        name: str,
        series: Any,
        length: int,
        *,
        method: str = "sharded",
        normalization: Any = Normalization.GLOBAL,
        shards: int | None = None,
        params: TSIndexParams | None = None,
        overwrite: bool = False,
        **method_options: Any,
    ) -> SubsequenceIndex:
        """Build a query plane and register it under ``name``.

        The default ``method="sharded"`` builds a fan-out
        :class:`ShardedTSIndex` (shards bulk-loaded into flat
        read-optimized arrays); any other registered plane name — paper
        method or extended plane — builds through
        :func:`~repro.indices.base.create_method` with
        ``method_options`` forwarded. The sharded-only ``shards`` is
        rejected for other methods rather than silently ignored.
        Refuses to clobber an existing name unless ``overwrite=True``
        (rebuilding a live index should be a deliberate act).
        """
        name = self._check_name(name)
        if not overwrite and name in self._engines:
            raise InvalidParameterError(
                f"index {name!r} already exists; pass overwrite=True to rebuild"
            )
        if method == "sharded":
            engine = ShardedTSIndex.build(
                series,
                length,
                normalization=normalization,
                shards=shards,
                params=params,
                **method_options,
            )
        else:
            if shards is not None:
                raise InvalidParameterError(
                    f"shards only applies to method='sharded', "
                    f"not method={method!r}"
                )
            if params is not None:
                method_options["params"] = params
            engine = create_method(
                method,
                series,
                length,
                normalization=normalization,
                **method_options,
            )
        self.add(name, engine, overwrite=overwrite)
        return engine

    def add(
        self, name: str, engine: SubsequenceIndex, *, overwrite: bool = False
    ) -> None:
        """Register a plane built elsewhere (e.g. loaded from disk).

        Accepts any :class:`~repro.indices.base.SubsequenceIndex` —
        sharded engines, live planes, frozen snapshots or the paper
        methods all serve through the same registry.
        """
        if not isinstance(engine, SubsequenceIndex):
            raise InvalidParameterError(
                "registry entries must implement the SubsequenceIndex "
                f"query surface, got {type(engine).__name__}"
            )
        self._register(name, engine, overwrite=overwrite)

    def add_live(self, name: str, index: Any, *, overwrite: bool = False) -> None:
        """Register a mutable :class:`~repro.live.LiveTwinIndex` plane.

        Live entries serve the same query surface; their cache
        generation additionally tracks the plane's mutation counter, so
        results cached before an append are never served after it.
        """
        from ..live import LiveTwinIndex  # lazy: live imports core only

        if not isinstance(index, LiveTwinIndex):
            raise InvalidParameterError(
                "add_live expects a LiveTwinIndex, got "
                f"{type(index).__name__}"
            )
        self._register(name, index, overwrite=overwrite)

    def _register(
        self, name: str, engine: SubsequenceIndex, *, overwrite: bool
    ) -> None:
        name = self._check_name(name)
        with self._lock:
            if not overwrite and name in self._engines:
                raise InvalidParameterError(
                    f"index {name!r} already exists; pass overwrite=True"
                )
            self._engines[name] = engine
            self._built_at[name] = time.time()  # lint: disable=wall-clock epoch timestamp, not a duration
            self._generations[name] = self._generations.get(name, 0) + 1

    def get(self, name: str) -> SubsequenceIndex:
        """The plane registered under ``name``."""
        return self.get_with_generation(name)[0]

    def get_with_generation(self, name: str) -> tuple[SubsequenceIndex, object]:
        """The plane plus its cache generation (atomic).

        The generation increments every time ``name`` is (re)registered,
        so ``(name, generation)`` uniquely identifies one built index
        across rebuilds. For mutable planes (anything exposing a
        ``mutations`` counter, i.e. :class:`~repro.live.LiveTwinIndex`)
        the generation is the pair ``(registration, mutations)``: every
        accepted append moves it, so cache entries keyed on the old
        value become unreachable without any explicit invalidation.
        """
        with self._lock:
            try:
                engine = self._engines[name]
                generation = self._generations[name]
            except KeyError:
                known = ", ".join(sorted(self._engines)) or "<none>"
                raise IndexNotBuiltError(
                    f"no index named {name!r} (built: {known})"
                ) from None
        mutations = getattr(engine, "mutations", None)
        if mutations is not None:
            return engine, (generation, mutations)
        return engine, generation

    def evict(self, name: str) -> SubsequenceIndex:
        """Remove and return the plane under ``name`` (the last live
        reference unless a caller kept one)."""
        with self._lock:
            try:
                engine = self._engines.pop(name)
            except KeyError:
                raise IndexNotBuiltError(f"no index named {name!r}") from None
            self._built_at.pop(name, None)
            return engine

    def names(self) -> list[str]:
        """Registered names, sorted."""
        with self._lock:
            return sorted(self._engines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._engines)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._engines

    # ------------------------------------------------------------------
    # Persistence (via repro.persistence)
    # ------------------------------------------------------------------
    def save(self, name: str, path: Any) -> None:
        """Persist the plane under ``name`` as an archive directory of
        uncompressed per-array files that later loads open O(1) via
        ``mmap`` (see :func:`repro.persistence.save_index`)."""
        engine = self.get(name)
        if getattr(engine, "method_name", "") == "live":
            raise InvalidParameterError(
                f"index {name!r} is a live plane; it persists through its "
                "write-ahead-log directory (LiveTwinIndex.create/recover), "
                "not through snapshot archives"
            )
        from ..persistence import save_index  # lazy: avoids import cycle

        save_index(engine, path)

    def load(self, name: str, path: Any, *, overwrite: bool = False) -> ShardedTSIndex:
        """Restore an engine from ``path`` and register it as ``name``."""
        from ..persistence import load_index  # lazy: avoids import cycle

        engine = load_index(path)
        if not isinstance(engine, ShardedTSIndex):
            raise InvalidParameterError(
                f"archive {path!r} holds a {type(engine).__name__}, "
                "not a sharded engine"
            )
        self.add(name, engine, overwrite=overwrite)
        return engine

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self, name: str) -> dict:
        """Structural stats for one index (shape, shards/segments,
        build cost). Live planes report their LSM shape (segments,
        delta, seals, compactions) instead of shard rows; other
        non-sharded planes report a generic structural row keyed by
        their plane kind. Every row carries the plane's declared
        ``capabilities`` (sorted), so operators can see at a glance
        which kernels — including variable-length ``search`` — a
        registered plane serves natively."""
        from ..query.capabilities import capabilities_of

        engine = self.get(name)
        with self._lock:
            built_at = self._built_at.get(name, 0.0)
        capabilities = sorted(capabilities_of(engine))
        if getattr(engine, "method_name", "") == "live":
            # A live plane: its own stats snapshot carries the shape.
            return {"name": name, "kind": "live", "built_at": built_at,
                    "capabilities": capabilities, **engine.stats()}
        if not isinstance(engine, ShardedTSIndex):
            # A generic plane (paper method or frozen snapshot).
            build = engine.build_stats
            return {
                "name": name,
                "kind": engine.method_name or type(engine).__name__,
                "windows": engine.source.count,
                "length": engine.source.length,
                "normalization": engine.source.normalization.value,
                "nodes": build.nodes,
                "splits": build.splits,
                "build_seconds": round(build.seconds, 4),
                "built_at": built_at,
                "capabilities": capabilities,
            }
        build = engine.build_stats
        return {
            "name": name,
            "kind": "sharded",
            "windows": engine.size,
            "length": engine.length,
            "normalization": engine.source.normalization.value,
            "shards": engine.shard_count,
            "nodes": build.nodes,
            "splits": build.splits,
            "build_seconds": round(build.seconds, 4),
            "built_at": built_at,
            "capabilities": capabilities,
            "shard_stats": engine.shard_stats(),
        }

    def stats_all(self) -> list[dict]:
        """Stats rows for every registered index."""
        return [self.stats(name) for name in self.names()]

    def __repr__(self) -> str:
        return f"IndexRegistry(indexes={self.names()})"

    # ------------------------------------------------------------------
    @staticmethod
    def _check_name(name: object) -> str:
        if not isinstance(name, str) or not name.strip():
            raise InvalidParameterError(
                f"index name must be a non-empty string, got {name!r}"
            )
        return name
