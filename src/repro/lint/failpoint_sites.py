"""``failpoint-sites`` — audit failpoint call sites against the registry.

The failpoint framework (:mod:`repro.faults.failpoints`) is name-based:
``arm("wal.append", ...)`` and the ``failpoint("wal.append")`` call site
only meet at runtime, through a string. Renaming a call site therefore
silently turns every armed fault test for it into a no-op — the test
still passes, it just stops injecting. This checker makes the contract
static, in both directions, against the canonical
:data:`repro.faults.failpoints.SITES` registry:

* every ``failpoint("<name>", ...)`` literal in the tree must name a
  registered site;
* every registered site must still have at least one call site;
* a call site whose name is not a string literal cannot be audited and
  is itself a violation.
"""

from __future__ import annotations

import ast

from .model import SourceFile, SourceTree, Violation, call_name

CHECKER = "failpoint-sites"

#: Module that must define the ``SITES`` registry (tree-relative).
REGISTRY_MODULE = "faults/failpoints.py"


def _registry_sites(file: SourceFile) -> tuple[set[str], int] | None:
    """Parse ``SITES = frozenset({...})`` out of the registry module.

    Returns ``(site_names, lineno)`` or ``None`` when no statically
    readable registry assignment exists.
    """
    for node in file.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "SITES"
            for target in node.targets
        ):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "frozenset"
            and len(value.args) == 1
        ):
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            names = set()
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                names.add(element.value)
            return names, node.lineno
    return None


def _call_sites(tree: SourceTree):
    """Yield ``(file, node, site_or_None)`` for every ``failpoint(...)``
    call in the tree (``site`` is ``None`` for non-literal names)."""
    for file in tree:
        if file.rel == REGISTRY_MODULE:
            # The framework module itself defines ``failpoint`` and
            # mentions sites in docs, not as instrumented call sites.
            continue
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) != "failpoint":
                continue
            if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                node.args[0].value, str
            ):
                yield file, node, node.args[0].value
            else:
                yield file, node, None


def check(tree: SourceTree) -> list[Violation]:
    """Run the failpoint-site audit over ``tree``."""
    violations = []
    registry_file = tree.get(REGISTRY_MODULE)
    registry = _registry_sites(registry_file) if registry_file else None
    if registry is None:
        violations.append(
            Violation(
                CHECKER,
                REGISTRY_MODULE,
                0,
                "no statically readable `SITES = frozenset({...})` "
                "registry found; the failpoint-site audit cannot run",
            )
        )
        return violations
    sites, registry_line = registry

    used: set[str] = set()
    for file, node, site in _call_sites(tree):
        if site is None:
            violations.append(
                Violation(
                    CHECKER,
                    file.rel,
                    node.lineno,
                    "failpoint site name must be a string literal so the "
                    "site audit can match it against the registry",
                )
            )
            continue
        used.add(site)
        if site not in sites:
            violations.append(
                Violation(
                    CHECKER,
                    file.rel,
                    node.lineno,
                    f"unknown failpoint site {site!r}: not in "
                    "repro.faults.failpoints.SITES — armed tests for the "
                    "old name would silently no-op; register the site or "
                    "fix the name",
                )
            )
    for site in sorted(sites - used):
        violations.append(
            Violation(
                CHECKER,
                REGISTRY_MODULE,
                registry_line,
                f"registered failpoint site {site!r} has no call site in "
                "the tree; remove the registry entry or restore the call",
            )
        )
    return violations
