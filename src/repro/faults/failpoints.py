"""Deterministic failpoints: named fault-injection sites for the serving stack.

The storage and fan-out layers call :func:`failpoint` at every durability
and distribution edge (``"wal.append"``, ``"manifest.commit"``,
``"shard.search"``, ...). In production nothing is armed and the call is
a single dict lookup on an empty module-global. Tests arm sites with
deterministic triggers and let the *real* recovery code run against the
injected failure.

Arming::

    from repro.faults import failpoints

    with failpoints.armed("wal.append", error="enospc", on_hit=3):
        ...           # the 3rd append raises ENOSPC (wrapped in StorageError)

    failpoints.arm("segment.search", error=RuntimeError("part refused"),
                   times=2)             # first two part calls fail, then clean
    failpoints.arm("segment.write", error="io", probability=0.25, seed=9)
    failpoints.arm("live.seal", crash=True)          # SimulatedCrashError
    failpoints.arm("wal.append",
                   payload={"torn_after_bytes": 10})  # torn write + crash
    failpoints.reset()

Triggers compose: ``on_hit`` (fire only on the Nth hit, 1-based),
``probability`` + ``seed`` (deterministic Bernoulli stream), and
``times`` (cap on total firings). On firing a site either raises the
configured ``error`` (an exception instance, class, or one of the
shorthands ``"io"`` / ``"enospc"`` / ``"crash"``), raises
:class:`~repro.exceptions.SimulatedCrashError` when ``crash=True``, or
returns ``payload`` for the site to interpret (e.g. the WAL's torn-write
protocol). The registry is process-global and thread-safe; readers never
take a lock — arming swaps the whole mapping.
"""

from __future__ import annotations

import errno as _errno
import random
import threading
from contextlib import contextmanager
from typing import Any, Iterator

from ..exceptions import InvalidParameterError, SimulatedCrashError
from ..obs.metrics import HandleCache

__all__ = [
    "Failpoint",
    "SITES",
    "arm",
    "armed",
    "disarm",
    "failpoint",
    "list_armed",
    "make_error",
    "reset",
    "site_stats",
]

_metrics = HandleCache(
    lambda registry: registry.counter(
        "repro_faults_injected_total",
        "Faults injected by armed failpoints, by site.",
        labels=("site",),
    )
)

#: Error-class shorthands accepted by :func:`arm` / :func:`make_error`.
ERROR_CLASSES = ("io", "enospc", "crash")

#: Canonical registry of every failpoint site in the library.
#: :func:`arm` rejects any other name, and ``tests/test_invariants.py``
#: holds the call sites to it both ways: every ``failpoint("...")``
#: literal names a registered site, and every registered site still has
#: a call. Either way an armed fault test can never silently no-op.
#: Adding a new site means adding its call *and* its entry here.
SITES = frozenset(
    {
        "fanout.task",
        "live.seal",
        "manifest.commit",
        "segment.read",
        "segment.search",
        "segment.write",
        "shard.search",
        "wal.append",
        "wal.fsync",
        "wal.rewrite",
    }
)


def make_error(kind: str) -> BaseException:
    """Build a fresh exception for an error-class shorthand.

    ``"io"`` -> a generic :class:`OSError`; ``"enospc"`` -> ``OSError``
    with ``errno.ENOSPC``; ``"crash"`` ->
    :class:`~repro.exceptions.SimulatedCrashError`.
    """
    if kind == "io":
        return OSError("injected I/O error")
    if kind == "enospc":
        return OSError(_errno.ENOSPC, "injected: no space left on device")
    if kind == "crash":
        return SimulatedCrashError("injected crash")
    raise InvalidParameterError(
        f"unknown failpoint error class {kind!r}; expected one of {ERROR_CLASSES}"
    )


class Failpoint:
    """One armed site: trigger rules plus hit/fire accounting."""

    __slots__ = (
        "name",
        "_error",
        "_crash",
        "payload",
        "_on_hit",
        "_times",
        "_rng",
        "_probability",
        "_lock",
        "hits",
        "fired",
    )

    def __init__(
        self,
        name: str,
        *,
        error: Any = None,
        crash: bool = False,
        payload: Any = None,
        on_hit: int | None = None,
        probability: float | None = None,
        seed: int = 0,
        times: int | None = None,
    ) -> None:
        if error is None and not crash and payload is None:
            raise InvalidParameterError(
                f"failpoint {name!r} needs an action: error=, crash=True, "
                "or payload="
            )
        if error is not None and crash:
            raise InvalidParameterError(
                f"failpoint {name!r}: error= and crash=True are exclusive"
            )
        if isinstance(error, str):
            make_error(error)  # validate the shorthand eagerly
        if on_hit is not None and on_hit < 1:
            raise InvalidParameterError(
                f"failpoint {name!r}: on_hit must be >= 1, got {on_hit}"
            )
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise InvalidParameterError(
                f"failpoint {name!r}: probability must be in [0, 1], "
                f"got {probability}"
            )
        if times is not None and times < 1:
            raise InvalidParameterError(
                f"failpoint {name!r}: times must be >= 1, got {times}"
            )
        self.name = name
        self._error = error
        self._crash = bool(crash)
        self.payload = payload
        self._on_hit = on_hit
        self._times = times
        self._probability = probability
        self._rng = random.Random(seed) if probability is not None else None
        self._lock = threading.Lock()
        self.hits = 0
        self.fired = 0

    def _should_fire(self) -> bool:
        """Count one hit and decide (under the lock) whether to fire."""
        with self._lock:
            self.hits += 1
            if self._times is not None and self.fired >= self._times:
                return False
            if self._on_hit is not None and self.hits != self._on_hit:
                return False
            if self._rng is not None and self._rng.random() >= self._probability:
                return False
            self.fired += 1
            return True

    def _build_error(self) -> BaseException | None:
        if self._crash:
            return SimulatedCrashError(f"injected crash at failpoint {self.name!r}")
        error = self._error
        if error is None:
            return None
        if isinstance(error, str):
            return make_error(error)
        if isinstance(error, type):
            return error(f"injected failure at failpoint {self.name!r}")
        # A fresh instance per firing keeps tracebacks independent.
        try:
            return type(error)(*error.args)
        except Exception:
            return error

    def stats(self) -> dict:
        with self._lock:
            return {"hits": self.hits, "fired": self.fired}


_lock = threading.Lock()
#: name -> Failpoint. Readers access this without a lock; writers swap
#: the whole dict so a read never observes a half-updated mapping.
_armed: dict[str, Failpoint] = {}
#: Lifetime hit counters per site, kept across reset() for test forensics.
_site_hits: dict[str, int] = {}


def failpoint(name: str, **context: Any) -> Any:
    """Declare a fault-injection site. Returns ``None`` when disarmed.

    When the site is armed and its trigger fires, either raises the
    configured error (``SimulatedCrashError`` for ``crash=True``) or
    returns the armed ``payload`` for site-specific interpretation.
    ``context`` kwargs are accepted for self-description at the call
    site (path, shard id, byte counts); they are intentionally unused on
    the disarmed fast path.
    """
    if not _armed:
        return None
    point = _armed.get(name)
    if point is None:
        return None
    with _lock:
        _site_hits[name] = _site_hits.get(name, 0) + 1
    if not point._should_fire():
        return None
    _metrics().labels(site=name).inc()
    error = point._build_error()
    if error is None:
        return point.payload
    try:
        raise error
    finally:
        # The error's traceback holds this frame, and through its
        # callers whatever they hold: drop the frame's own reference,
        # or the two form a cycle only the cyclic GC frees.
        del error


def arm(name: str, **config: Any) -> Failpoint:
    """Arm (or re-arm, replacing) the site ``name``, which must be one
    of :data:`SITES`. See module docs for the trigger/action keywords."""
    if name not in SITES:
        raise InvalidParameterError(
            f"unknown failpoint site {name!r}; known sites: "
            f"{', '.join(sorted(SITES))}"
        )
    point = Failpoint(name, **config)
    with _lock:
        global _armed
        mapping = dict(_armed)
        mapping[name] = point
        _armed = mapping
    return point


def disarm(name: str) -> None:
    """Disarm ``name`` (no-op when it was not armed)."""
    with _lock:
        global _armed
        if name in _armed:
            mapping = dict(_armed)
            del mapping[name]
            _armed = mapping


def reset() -> None:
    """Disarm every site (hit forensics from :func:`site_stats` survive)."""
    with _lock:
        global _armed
        _armed = {}


@contextmanager
def armed(name: str, **config: Any) -> Iterator[Failpoint]:
    """Context manager: arm ``name`` on entry, restore the previous
    arming state (armed-or-not) on exit. Yields the :class:`Failpoint`."""
    global _armed
    with _lock:
        previous = _armed.get(name)
    point = arm(name, **config)
    try:
        yield point
    finally:
        with _lock:
            mapping = dict(_armed)
            if mapping.get(name) is point:
                if previous is not None:
                    mapping[name] = previous
                else:
                    mapping.pop(name, None)
                _armed = mapping


def list_armed() -> dict[str, Failpoint]:
    """Snapshot of the currently armed sites."""
    return dict(_armed)


def site_stats() -> dict[str, dict]:
    """Accounting per site: lifetime hits plus the armed point's
    hit/fire counts (when armed)."""
    with _lock:
        hits = dict(_site_hits)
        points = dict(_armed)
    out: dict[str, dict] = {}
    for name in sorted(set(hits) | set(points)):
        row = {"lifetime_hits": hits.get(name, 0)}
        if name in points:
            row.update(points[name].stats())
        out[name] = row
    return out
