"""``crash-safety`` — keep :class:`SimulatedCrashError` un-swallowable.

The fault tests' central guarantee is that an injected crash
(:class:`~repro.exceptions.SimulatedCrashError`, deliberately derived
from ``BaseException``) unwinds the process the way a real ``kill -9``
would — no retry loop or cleanup handler may absorb it and carry on.
Two handler shapes can break that, and one more silently breaks
durability:

* ``except BaseException`` / bare ``except:`` catches the simulated
  crash. Allowed only when the handler provably re-raises (a bare
  ``raise``, or ``raise <caught name>``) on every path — the
  annotate-and-reraise idiom;
* a tuple handler listing ``BaseException`` is the same hole;
* ``except``-and-``pass`` (a handler whose body does nothing) on a
  durability path (WAL / manifest / segment IO) or in a
  faults-instrumented module swallows injected IO errors, so the fault
  tests pass without exercising recovery.

Suppress a deliberate swallow with ``# lint: disable=crash-safety`` on
the ``except`` line and say why.
"""

from __future__ import annotations

import ast
import fnmatch

from .model import SourceFile, SourceTree, Violation

CHECKER = "crash-safety"

#: Tree-relative globs of the durability paths where a silent
#: ``except: pass`` is never acceptable.
DURABILITY_GLOBS = (
    "live/*.py",
    "persistence/*.py",
)


def _exception_names(node: ast.expr | None) -> list[str]:
    """Names of the exception types an ``except`` clause catches."""
    if node is None:
        return []
    if isinstance(node, ast.Tuple):
        names = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body re-raises the caught exception."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True
            if (
                isinstance(node.exc, ast.Name)
                and handler.name is not None
                and node.exc.id == handler.name
            ):
                return True
    return False


def _body_is_noop(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body does nothing (``pass``, ``...``, or a
    bare string/constant expression)."""
    for statement in handler.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue
        return False
    return True


def _is_instrumented(file: SourceFile) -> bool:
    """Whether the module contains a ``failpoint(...)`` call site."""
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name == "failpoint":
                return True
    return False


def _on_durability_path(file: SourceFile) -> bool:
    return any(fnmatch.fnmatch(file.rel, glob) for glob in DURABILITY_GLOBS)


def check(tree: SourceTree) -> list[Violation]:
    """Run the crash-safety audit over ``tree``."""
    violations = []
    for file in tree:
        swallow_sensitive = _on_durability_path(file) or _is_instrumented(file)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = _exception_names(node.type)
            catches_everything = node.type is None or "BaseException" in caught
            if catches_everything and not _reraises(node):
                what = (
                    "bare `except:`" if node.type is None
                    else "`except BaseException`"
                )
                violations.append(
                    Violation(
                        CHECKER,
                        file.rel,
                        node.lineno,
                        f"{what} swallows SimulatedCrashError, breaking "
                        "the kill-and-recover contract; re-raise "
                        "unconditionally or narrow the handler",
                    )
                )
                continue
            if (
                swallow_sensitive
                and node.type is not None
                and _body_is_noop(node)
            ):
                violations.append(
                    Violation(
                        CHECKER,
                        file.rel,
                        node.lineno,
                        f"except-and-pass on {' and '.join(caught) or 'a handler'} "
                        "in a durability/faults-instrumented module "
                        "silently absorbs injected faults; handle the "
                        "error or let it propagate",
                    )
                )
    return violations
