"""Structured logging for the ``repro`` library.

Following the standard library convention for packages, the ``repro``
root logger carries a :class:`logging.NullHandler` (installed by
:func:`install_null_handler` at import time from ``repro/__init__``),
so the library stays silent unless the application configures logging.

Applications that want to see the library's events — segment seals,
WAL recovery, cache invalidation — call
:func:`configure_logging`:

>>> import repro.obs
>>> repro.obs.configure_logging(level="INFO")  # doctest: +SKIP

Events and levels:

* ``WARNING`` — live-plane recovery dropped a truncated or corrupt WAL
  tail (data past the last intact record is discarded);
* ``INFO`` — segment seal, WAL recovery summary;
* ``DEBUG`` — cache invalidation.
"""

from __future__ import annotations

import logging
from typing import Any

#: Name of the library's root logger.
ROOT_LOGGER_NAME = "repro"

_DEFAULT_FORMAT = (
    "%(asctime)s %(levelname)s %(name)s %(message)s"
)


def get_logger(name: str = ROOT_LOGGER_NAME) -> logging.Logger:
    """The library logger for ``name`` (dotted children of ``repro``)."""
    return logging.getLogger(name)


def install_null_handler() -> None:
    """Attach a :class:`logging.NullHandler` to the ``repro`` root
    logger (idempotent). Keeps the library silent by default without
    suppressing application-configured handlers."""
    root = logging.getLogger(ROOT_LOGGER_NAME)
    if not any(
        isinstance(handler, logging.NullHandler)
        for handler in root.handlers
    ):
        root.addHandler(logging.NullHandler())


def configure_logging(
    level: Any = "INFO",
    *,
    stream: Any = None,
    fmt: str = _DEFAULT_FORMAT,
) -> logging.Logger:
    """Attach a :class:`~logging.StreamHandler` to the ``repro`` root
    logger and set its level.

    Parameters
    ----------
    level:
        A :mod:`logging` level name (``"DEBUG"``, ``"INFO"``, ...) or
        numeric value.
    stream:
        Destination stream (defaults to ``sys.stderr``).
    fmt:
        Log record format string.

    Returns the configured root logger. Calling again replaces the
    handler installed by the previous call rather than stacking
    duplicates.
    """
    if isinstance(level, str):
        level = logging.getLevelName(level.upper())
    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(fmt))
    handler._repro_obs_handler = True
    root.addHandler(handler)
    root.setLevel(level)
    return root
